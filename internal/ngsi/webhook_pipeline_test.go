package ngsi

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/shardhash"
	"github.com/swamp-project/swamp/internal/tenant"
)

// sameLaneEntities returns n entity ids that all hash to lane.
func sameLaneEntities(t *testing.T, lane, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; len(ids) < n && i < 100_000; i++ {
		if id := fmt.Sprintf("urn:pipe:%d", i); shardhash.Index(webhookLanes, id) == lane {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("found %d entity ids on lane %d, want %d", len(ids), lane, n)
	}
	return ids
}

// arrival is one request as the endpoint saw it.
type arrival struct {
	conn, id string // the connection's remote address, the entity
	seq      int
}

// pipeEndpoint records every request before answer decides its fate:
// answer returns the status to send, or 0 once it has answered itself.
// The first request waits for release, so a lane's next batch queues up
// behind it.
type pipeEndpoint struct {
	srv     *httptest.Server
	gate    chan struct{}
	once    sync.Once
	mu      sync.Mutex
	arrived []arrival
}

func newPipeEndpoint(t *testing.T, answer func(i int, a arrival, w http.ResponseWriter) int) *pipeEndpoint {
	t.Helper()
	e := &pipeEndpoint{gate: make(chan struct{})}
	e.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var body notificationBody
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil || len(body.Data) != 1 {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		seq, _ := body.Data[0].Attrs["seq"].Float()
		a := arrival{conn: req.RemoteAddr, id: body.Data[0].ID, seq: int(seq)}
		e.mu.Lock()
		i := len(e.arrived)
		e.arrived = append(e.arrived, a)
		e.mu.Unlock()
		if i == 0 {
			<-e.gate
		}
		if status := answer(i, a, w); status != 0 {
			w.WriteHeader(status)
		}
	}))
	t.Cleanup(e.srv.Close)
	t.Cleanup(e.release) // runs before srv.Close, which waits for the handlers
	return e
}

func (e *pipeEndpoint) release() { e.once.Do(func() { close(e.gate) }) }

func (e *pipeEndpoint) arrivals() []arrival {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]arrival(nil), e.arrived...)
}

func always204(int, arrival, http.ResponseWriter) int { return http.StatusNoContent }

// pipePool is a pool whose timeout outlasts the gate and whose retries
// come at once.
func pipePool(t *testing.T) *WebhookPool {
	t.Helper()
	p := NewWebhookPool(WebhookConfig{Timeout: 30 * time.Second, Clock: instantBackoff(t)})
	t.Cleanup(p.Close)
	return p
}

// queueBehindGate notifies first, waits until the endpoint holds it — alone
// on the lane's fresh connection — and queues the rest behind it.
func queueBehindGate(t *testing.T, pool *WebhookPool, hn *httpNotifier, e *pipeEndpoint, first Notification, rest []Notification) {
	t.Helper()
	hn.Notify(first)
	waitFor(t, 2*time.Second, func() bool { return len(e.arrivals()) == 1 })
	for _, note := range rest {
		hn.Notify(note)
	}
	d := pool.Depth()
	e.release()
	if d != len(rest) {
		t.Fatalf("Depth() = %d behind the gate, want %d", d, len(rest))
	}
}

// TestPipelineBatchInFewWrites: what a lane holds when it wakes leaves in one
// write, pipelined on the connection the first request opened.
func TestPipelineBatchInFewWrites(t *testing.T) {
	ids := sameLaneEntities(t, 0, 32)
	e := newPipeEndpoint(t, always204)
	pool := pipePool(t)
	hn, err := pool.notifier("sub-pipe", e.srv.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	var rest []Notification
	for _, id := range ids[1:] {
		rest = append(rest, seqNote(id, 0))
	}
	queueBehindGate(t, pool, hn, e, seqNote(ids[0], 0), rest)
	waitFor(t, 5*time.Second, func() bool { return pool.cSent.Value() == 32 })
	got := e.arrivals()
	for i, a := range got {
		if a.id != ids[i] || a.conn != got[0].conn {
			t.Fatalf("arrival %d: %s on %s, want %s on %s", i, a.id, a.conn, ids[i], got[0].conn)
		}
	}
	if w := pool.cWrites.Value(); w > 3 {
		t.Errorf("32 notifications took %d writes, want ≤ 3", w)
	}
	if d := pool.cDials.Value(); d != 1 {
		t.Errorf("%d dials, want 1", d)
	}
}

// TestPipelineConnectionCloseResendsUncounted: what was pipelined behind an
// answer that closed the connection goes again, once each, in order, on a
// new connection, and costs no retry.
func TestPipelineConnectionCloseResendsUncounted(t *testing.T) {
	ids := sameLaneEntities(t, 0, 8)
	e := newPipeEndpoint(t, func(i int, _ arrival, w http.ResponseWriter) int {
		if i == 2 { // the second request of the pipelined batch
			w.Header().Set("Connection", "close")
		}
		return http.StatusNoContent
	})
	pool := pipePool(t)
	hn, err := pool.notifier("sub-close", e.srv.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	var rest []Notification
	for _, id := range ids[1:] {
		rest = append(rest, seqNote(id, 0))
	}
	queueBehindGate(t, pool, hn, e, seqNote(ids[0], 0), rest)
	waitFor(t, 5*time.Second, func() bool { return pool.cSent.Value() == 8 })
	got := e.arrivals()
	if len(got) != 8 {
		t.Fatalf("%d arrivals, want 8 (each once): %v", len(got), got)
	}
	for i, a := range got {
		if a.id != ids[i] {
			t.Fatalf("arrival %d is %s, want %s: %v", i, a.id, ids[i], got)
		}
		if again := a.conn != got[0].conn; again != (i > 2) {
			t.Errorf("arrival %d on %s, first connection %s", i, a.conn, got[0].conn)
		}
	}
	if r := pool.cRetries.Value(); r != 0 {
		t.Errorf("retries = %d, want 0", r)
	}
	if d := pool.cDials.Value(); d != 2 {
		t.Errorf("%d dials, want 2", d)
	}
}

// TestPipelineErrorAnswerRetriesInOrder: a 500 to entity A's first
// notification is retried before A's next two, while B's answer in the
// same batch — behind an interim 103 — is read and counted sent.
func TestPipelineErrorAnswerRetriesInOrder(t *testing.T) {
	ids := sameLaneEntities(t, 0, 3)
	a, b := ids[1], ids[2]
	var refused atomic.Bool
	e := newPipeEndpoint(t, func(_ int, got arrival, w http.ResponseWriter) int {
		if got.id == a && got.seq == 0 && refused.CompareAndSwap(false, true) {
			return http.StatusInternalServerError
		}
		if got.id == b {
			w.WriteHeader(http.StatusEarlyHints)
		}
		return http.StatusNoContent
	})
	pool := pipePool(t)
	hn, err := pool.notifier("sub-500", e.srv.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	queueBehindGate(t, pool, hn, e, seqNote(ids[0], 0),
		[]Notification{seqNote(a, 0), seqNote(b, 0), seqNote(a, 1), seqNote(a, 2)})
	waitFor(t, 5*time.Second, func() bool { return pool.cSent.Value() == 5 })
	var seqsOfA, order []string
	for _, got := range e.arrivals() {
		order = append(order, fmt.Sprintf("%s/%d", got.id, got.seq))
		if got.id == a {
			seqsOfA = append(seqsOfA, fmt.Sprint(got.seq))
		}
	}
	if fmt.Sprint(seqsOfA) != "[0 0 1 2]" {
		t.Errorf("A's notifications arrived as %v, want [0 0 1 2] (the first refused)", seqsOfA)
	}
	want := fmt.Sprintf("[%s/0 %s/0 %s/0 %s/0 %s/1 %s/2]", ids[0], a, b, a, a, a)
	if fmt.Sprint(order) != want {
		t.Errorf("arrivals %v, want %s", order, want)
	}
	if r, f := pool.cRetries.Value(), pool.cFailed.Value(); r != 1 || f != 0 {
		t.Errorf("retries = %d, failed = %d; want 1, 0", r, f)
	}
}

// TestPipelineResetMidBatch: a connection reset in the middle of a batch
// loses nothing and reorders no entity; what it left unanswered counts as
// retries.
func TestPipelineResetMidBatch(t *testing.T) {
	ids := sameLaneEntities(t, 0, 7)
	const seqs = 3
	var reset atomic.Bool
	e := newPipeEndpoint(t, func(i int, _ arrival, w http.ResponseWriter) int {
		if i != 3 || !reset.CompareAndSwap(false, true) { // the third of the pipelined batch
			return http.StatusNoContent
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return 0
		}
		_ = conn.(*net.TCPConn).SetLinger(0) // close with a reset
		conn.Close()
		return 0
	})
	pool := pipePool(t)
	hn, err := pool.notifier("sub-reset", e.srv.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	var rest []Notification
	for seq := 0; seq < seqs; seq++ {
		for _, id := range ids[1:] {
			rest = append(rest, seqNote(id, seq))
		}
	}
	queueBehindGate(t, pool, hn, e, seqNote(ids[0], 0), rest)
	waitFor(t, 5*time.Second, func() bool { return pool.cSent.Value() == uint64(1+len(rest)) })
	first := make(map[string]int) // "id/seq" → index of its first arrival
	for i, a := range e.arrivals() {
		if k := fmt.Sprintf("%s/%d", a.id, a.seq); first[k] == 0 {
			first[k] = i + 1
		}
	}
	for _, id := range ids[1:] {
		prev := 0
		for seq := 0; seq < seqs; seq++ {
			at := first[fmt.Sprintf("%s/%d", id, seq)]
			if at == 0 {
				t.Fatalf("%s/%d never arrived", id, seq)
			}
			if at < prev {
				t.Errorf("%s/%d first arrived before %s/%d", id, seq, id, seq-1)
			}
			prev = at
		}
	}
	if r, f := pool.cRetries.Value(), pool.cFailed.Value(); r == 0 || f != 0 {
		t.Errorf("retries = %d, failed = %d; want > 0, 0", r, f)
	}
}

// TestPipelineCloseAccountsForEveryNotification: a notification counts in
// Depth until its first attempt, so Drain waits for the requests a batch on
// a fresh connection has not yet written, and Drain then Close delivers a
// burst whole; a Close while the batch sits in a retry backoff drops it,
// counted. Either way sent + failed + dropped equals what was notified.
func TestPipelineCloseAccountsForEveryNotification(t *testing.T) {
	ids := sameLaneEntities(t, 0, 32)
	for _, drain := range []bool{true, false} {
		t.Run(fmt.Sprintf("drain=%v", drain), func(t *testing.T) {
			hold := make(chan struct{})
			e := newPipeEndpoint(t, func(i int, _ arrival, w http.ResponseWriter) int {
				switch {
				case i == 0: // the burst's first batch goes out on a fresh connection
					w.Header().Set("Connection", "close")
				case i == 1 && drain:
					<-hold
				case i == 1:
					return http.StatusInternalServerError
				}
				return http.StatusNoContent
			})
			unhold := sync.OnceFunc(func() { close(hold) })
			t.Cleanup(unhold)
			// A clock nobody advances parks a failed batch in its backoff.
			pool := NewWebhookPool(WebhookConfig{Timeout: 30 * time.Second, Clock: clock.NewSim(time.Unix(0, 0))})
			t.Cleanup(pool.Close)
			hn, err := pool.notifier("sub-burst", e.srv.URL, tenant.None)
			if err != nil {
				t.Fatal(err)
			}
			var rest []Notification
			for _, id := range ids[1:] {
				rest = append(rest, seqNote(id, 0))
			}
			queueBehindGate(t, pool, hn, e, seqNote(ids[0], 0), rest)
			if drain {
				waitFor(t, 2*time.Second, func() bool { return len(e.arrivals()) == 2 })
				if d := pool.Depth(); d != len(rest)-1 {
					t.Errorf("Depth() = %d with one request of the batch written, want %d", d, len(rest)-1)
				}
				unhold()
				if d := pool.Drain(5 * time.Second); d != 0 {
					t.Fatalf("Drain left %d", d)
				}
			} else {
				waitFor(t, 5*time.Second, func() bool { return pool.cRetries.Value() > 0 })
			}
			pool.Close()
			sent, failed, dropped := pool.cSent.Value(), pool.cFailed.Value(), pool.cDropped.Value()
			if sent+failed+dropped != uint64(len(ids)) || pool.depth.Value() != 0 {
				t.Errorf("sent %d + failed %d + dropped %d of %d notified; depth gauge %v", sent, failed, dropped, len(ids), pool.depth.Value())
			}
			if drain && sent != uint64(len(ids)) {
				t.Errorf("sent %d of %d after Drain", sent, len(ids))
			}
		})
	}
}

// TestPipelineSlowRoundHoldsSlotOneTimeout: a round against an endpoint that
// answers slowly, each answer inside Timeout, holds its pool slot for one
// Timeout, not one per answer. While such rounds hold every pool slot,
// another subscription waiting for one is delivered within about Timeout.
func TestPipelineSlowRoundHoldsSlotOneTimeout(t *testing.T) {
	const (
		timeout = 500 * time.Millisecond
		subs    = webhookWorkers / webhookLanes // their lanes take every slot
		batch   = webhookQueueLen / webhookLanes
	)
	// The endpoint holds each connection's first request until release and
	// answers every later one after timeout/2.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	var mu sync.Mutex
	perConn := make(map[string]int)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		perConn[req.RemoteAddr]++
		first := perConn[req.RemoteAddr] == 1
		mu.Unlock()
		if first {
			<-gate
		} else {
			time.Sleep(timeout / 2)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(slow.Close)
	t.Cleanup(release) // runs before slow.Close, which waits for the handlers
	conns := func(min int) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, k := range perConn {
			if k >= min {
				n++
			}
		}
		return n
	}
	recv := newWebhookReceiver(t)
	// A clock nobody advances parks the unanswered requests' retries.
	pool := NewWebhookPool(WebhookConfig{Timeout: timeout, Clock: clock.NewSim(time.Unix(0, 0))})
	t.Cleanup(pool.Close)
	var lanes [webhookLanes][]string
	for l := range lanes {
		lanes[l] = sameLaneEntities(t, l, batch)
	}
	var slows []*httpNotifier
	for s := 0; s < subs; s++ {
		hn, err := pool.notifier(fmt.Sprintf("sub-slow-%d", s), slow.URL, tenant.None)
		if err != nil {
			t.Fatal(err)
		}
		for _, ids := range lanes {
			hn.Notify(seqNote(ids[0], 0))
		}
		slows = append(slows, hn)
	}
	healthy, err := pool.notifier("sub-healthy", recv.srv.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	// Every lane's first request, alone on a fresh connection, holds a slot
	// at the gate; a batch queues up behind each.
	waitFor(t, 2*time.Second, func() bool { return conns(1) == webhookWorkers && pool.Depth() == 0 })
	for _, hn := range slows {
		for _, ids := range lanes {
			for _, id := range ids[1:] {
				hn.Notify(seqNote(id, 0))
			}
		}
	}
	release()
	// Each lane's pipelined round is on the wire, all slots held; answered
	// one per timeout/2, each would take batch-1 of them.
	waitFor(t, 2*time.Second, func() bool { return conns(2) == webhookWorkers })
	healthy.Notify(seqNote(lanes[0][0], 0))
	waitFor(t, 4*timeout, func() bool { return recv.count() == 1 })
	if r := pool.cRetries.Value(); r == 0 {
		t.Error("the rounds' unanswered requests cost no retry")
	}
}

// TestPipelineRemoveAndCloseCloseConnections: remove closes the
// subscription's lane connections, Close every other one — each once.
func TestPipelineRemoveAndCloseCloseConnections(t *testing.T) {
	ids := laneEntities(t)
	var opened, closed atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	pool := pipePool(t)
	for i, sub := range []string{"s1", "s2"} {
		hn, err := pool.notifier(sub, srv.URL, tenant.None)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			hn.Notify(seqNote(id, 0))
		}
		want := int64((i + 1) * webhookLanes)
		waitFor(t, 2*time.Second, func() bool { return pool.cSent.Value() == uint64(want) })
		if o := opened.Load(); o != want {
			t.Fatalf("%d connections for %d lanes", o, want)
		}
	}
	pool.remove("s1")
	waitFor(t, 2*time.Second, func() bool { return closed.Load() == webhookLanes })
	pool.Close()
	waitFor(t, 2*time.Second, func() bool { return closed.Load() == 2*webhookLanes })
	if o, d := opened.Load(), pool.cDials.Value(); o != 2*webhookLanes || d != 2*webhookLanes {
		t.Errorf("opened %d, dialled %d; want %d", o, d, 2*webhookLanes)
	}
}
