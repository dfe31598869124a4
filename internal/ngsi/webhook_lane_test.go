package ngsi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/shardhash"
	"github.com/swamp-project/swamp/internal/tenant"
)

// laneEntities returns one entity id per lane, in lane order.
func laneEntities(t *testing.T) [webhookLanes]string {
	t.Helper()
	var ids [webhookLanes]string
	found := 0
	for i := 0; found < webhookLanes && i < 10_000; i++ {
		id := fmt.Sprintf("urn:lane:%d", i)
		if l := shardhash.Index(webhookLanes, id); ids[l] == "" {
			ids[l] = id
			found++
		}
	}
	if found < webhookLanes {
		t.Fatal("no entity id found for some lane")
	}
	return ids
}

func seqNote(id string, seq int) Notification {
	return Notification{Entity: &Entity{ID: id, Type: "T", Attrs: map[string]Attribute{"seq": num(float64(seq))}}}
}

// gatedEndpoint holds every request until release, counting those in hand.
type gatedEndpoint struct {
	srv     *httptest.Server
	gate    chan struct{}
	once    sync.Once
	inHand  atomic.Int64
	maxHand atomic.Int64
	served  atomic.Int64
}

func newGatedEndpoint(t *testing.T) *gatedEndpoint {
	t.Helper()
	g := &gatedEndpoint{gate: make(chan struct{})}
	g.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := g.inHand.Add(1)
		for m := g.maxHand.Load(); n > m && !g.maxHand.CompareAndSwap(m, n); m = g.maxHand.Load() {
		}
		<-g.gate
		g.inHand.Add(-1)
		g.served.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(g.srv.Close)
	t.Cleanup(g.release) // runs before srv.Close, which waits for the handlers
	return g
}

func (g *gatedEndpoint) release() { g.once.Do(func() { close(g.gate) }) }

// gatedPool is a pool whose timeout outlasts the gate.
func gatedPool(t *testing.T, cfg WebhookConfig) *WebhookPool {
	t.Helper()
	cfg.Timeout = 30 * time.Second
	p := NewWebhookPool(cfg)
	t.Cleanup(p.Close)
	return p
}

// TestLanePerEntityOrder: behind a slow endpoint, entities on distinct lanes
// are POSTed side by side while each entity's notifications arrive in the
// order they were queued, each exactly once.
func TestLanePerEntityOrder(t *testing.T) {
	ids := laneEntities(t)
	const perEntity = 25
	var mu sync.Mutex
	got := make(map[string][]int)
	var inHand, overlapped atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if inHand.Add(1) > 1 {
			overlapped.Add(1)
		}
		defer inHand.Add(-1)
		var body notificationBody
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil || len(body.Data) != 1 {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		time.Sleep(time.Millisecond)
		seq, _ := body.Data[0].Attrs["seq"].Float()
		mu.Lock()
		got[body.Data[0].ID] = append(got[body.Data[0].ID], int(seq))
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(srv.Close)
	pool := fastWebhookPool(t, nil, WebhookConfig{QueueLen: webhookLanes * perEntity})
	hn, err := pool.notifier("sub-order", srv.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < perEntity; seq++ {
		for _, id := range ids {
			hn.Notify(seqNote(id, seq))
		}
	}
	if pool.Drain(10*time.Second) != 0 {
		t.Fatal("queue never drained")
	}
	waitFor(t, 5*time.Second, func() bool { return pool.cSent.Value() == webhookLanes*perEntity })
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		if len(got[id]) != perEntity {
			t.Errorf("%s: %d deliveries, want %d", id, len(got[id]), perEntity)
			continue
		}
		for i, seq := range got[id] {
			if seq != i {
				t.Errorf("%s: delivery %d carries seq %d: %v", id, i, seq, got[id])
				break
			}
		}
	}
	if overlapped.Load() == 0 {
		t.Error("no two POSTs ever overlapped: the lanes did not deliver side by side")
	}
	if d := pool.cDropped.Value(); d != 0 {
		t.Errorf("dropped %d below the bound", d)
	}
}

// TestLaneQueueBoundIsSubscriptionWide: QueueLen bounds what the
// subscription holds, however the entity ids hash: nothing is dropped below
// it, the newest is dropped at it, Depth reports the total, and the tenant's
// webhook share applies to the total too.
func TestLaneQueueBoundIsSubscriptionWide(t *testing.T) {
	ids := laneEntities(t)
	const bound = 8
	adm := tenant.NewAdmission(tenant.Config{Enabled: true, Limits: tenant.Limits{
		Default:   tenant.Quota{MsgsPerSec: 1000},
		Overrides: map[tenant.ID]tenant.Quota{"half": {MsgsPerSec: 1000, WebhookSharePct: 50}},
	}})
	for _, tc := range []struct {
		name   string
		owner  tenant.ID
		spread bool
		want   int // notifications the queue accepts
	}{
		{"one lane", tenant.None, false, bound},
		{"spread", tenant.None, true, bound},
		{"tenant share, one lane", "half", false, bound / 2},
		{"tenant share, spread", "half", true, bound / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := gatedPool(t, WebhookConfig{QueueLen: bound, Admission: adm})
			g := newGatedEndpoint(t) // after the pool: released before the pool closes
			hn, err := pool.notifier("sub-bound", g.srv.URL, tc.owner)
			if err != nil {
				t.Fatal(err)
			}
			id := func(i int) string {
				if tc.spread {
					return ids[i%webhookLanes]
				}
				return ids[0]
			}
			// Occupy the delivery goroutines: what a lane has taken off its
			// queue no longer counts against the bound.
			busy := 1
			if tc.spread {
				busy = webhookLanes
			}
			for i := 0; i < busy; i++ {
				hn.Notify(seqNote(id(i), 0))
			}
			waitFor(t, 2*time.Second, func() bool { return g.inHand.Load() == int64(busy) && pool.Depth() == 0 })

			for i := 0; i < tc.want; i++ {
				hn.Notify(seqNote(id(i), 1+i))
			}
			if d := pool.cDropped.Value(); d != 0 {
				t.Fatalf("dropped %d with %d of %d queued", d, pool.Depth(), tc.want)
			}
			if d := pool.Depth(); d != tc.want {
				t.Fatalf("Depth() = %d, want %d", d, tc.want)
			}
			// At the bound the newest goes, whichever lane it hashes to.
			for i := 0; i < webhookLanes; i++ {
				hn.Notify(seqNote(ids[i], 99))
			}
			if d := pool.cDropped.Value(); d != webhookLanes {
				t.Errorf("dropped %d at the bound, want %d", d, webhookLanes)
			}
			if d := pool.Depth(); d != tc.want {
				t.Errorf("Depth() = %d after overflow, want %d", d, tc.want)
			}
			g.release()
			if pool.Drain(5*time.Second) != 0 {
				t.Fatal("queue never drained")
			}
			waitFor(t, 5*time.Second, func() bool { return pool.cSent.Value() == uint64(busy+tc.want) })
		})
	}
}

// TestLaneWorkersBoundOneSubscription: the pool's Workers bound holds for
// the lanes of a single busy subscription.
func TestLaneWorkersBoundOneSubscription(t *testing.T) {
	ids := laneEntities(t)
	pool := gatedPool(t, WebhookConfig{Workers: 2})
	g := newGatedEndpoint(t) // after the pool: released before the pool closes
	hn, err := pool.notifier("sub-workers", g.srv.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*webhookLanes; i++ {
		hn.Notify(seqNote(ids[i%webhookLanes], i))
	}
	// Two lanes hold a pool slot, their first notifications on the wire and
	// out of Depth; the other two wait for one.
	waitFor(t, 2*time.Second, func() bool { return pool.Depth() == 3*webhookLanes-2 && g.inHand.Load() == 2 })
	g.release()
	waitFor(t, 5*time.Second, func() bool { return g.served.Load() == 3*webhookLanes })
	if m := g.maxHand.Load(); m != 2 {
		t.Errorf("%d POSTs in flight at once with Workers = 2", m)
	}
}

// TestLaneFailureStateIsShared: exhausted deliveries on different lanes
// count towards one consecutive-failure run, one success on any lane ends
// it, and each change of status is reported once.
func TestLaneFailureStateIsShared(t *testing.T) {
	ids := laneEntities(t)
	var failing atomic.Bool
	failing.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(srv.Close)
	var mu sync.Mutex
	var flips []bool
	pool := fastWebhookPool(t, nil, WebhookConfig{
		MaxRetries: 1, FailureThreshold: 3,
		OnStatus: func(_ string, healthy bool) {
			mu.Lock()
			flips = append(flips, healthy)
			mu.Unlock()
		},
	})
	hn, err := pool.notifier("sub-fail", srv.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	status := func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprint(flips)
	}
	lane := func(i int) string { return ids[i%webhookLanes] }

	// Two failures, each on its own lane: below the threshold.
	hn.Notify(seqNote(lane(0), 0))
	hn.Notify(seqNote(lane(1), 0))
	waitFor(t, 2*time.Second, func() bool { return pool.cFailed.Value() == 2 })
	if status() != "[]" {
		t.Fatalf("status flipped below the threshold: %s", status())
	}
	// The third, on a third lane, crosses it; a fourth does not report again.
	hn.Notify(seqNote(lane(2), 0))
	hn.Notify(seqNote(lane(3), 0))
	waitFor(t, 2*time.Second, func() bool { return pool.cFailed.Value() == 4 })
	if status() != "[false]" {
		t.Fatalf("status reports after 4 failures across lanes: %s, want [false]", status())
	}
	if got := pool.cRetries.Value(); got != 4 {
		t.Errorf("retries = %d, want one per notification (4)", got)
	}
	// One success on any lane recovers, and restarts the run.
	failing.Store(false)
	hn.Notify(seqNote(lane(1), 1))
	waitFor(t, 2*time.Second, func() bool { return pool.cSent.Value() == 1 })
	if status() != "[false true]" {
		t.Fatalf("status reports after recovery: %s, want [false true]", status())
	}
	failing.Store(true)
	hn.Notify(seqNote(lane(0), 2))
	hn.Notify(seqNote(lane(2), 2))
	waitFor(t, 2*time.Second, func() bool { return pool.cFailed.Value() == 6 })
	if status() != "[false true]" {
		t.Fatalf("two failures after a recovery flipped the status: %s", status())
	}
}

// TestLaneEndlessBodyDoesNotPinDelivery: an endpoint that answers 200 and
// never ends its body costs a delivery the drain limit, not the client's
// timeout: other entities of the subscription (other lanes) and other
// subscriptions are delivered meanwhile, and so is the next notification
// of the same entity.
func TestLaneEndlessBodyDoesNotPinDelivery(t *testing.T) {
	ids := laneEntities(t)
	var posts atomic.Int64
	chunk := make([]byte, 8<<10)
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusOK)
		for req.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(endless.Close)
	recv := newWebhookReceiver(t)
	// A timeout far past the test's: only the drain limit ends a delivery.
	pool := NewWebhookPool(WebhookConfig{Timeout: time.Hour, Workers: 2})
	t.Cleanup(pool.Close)
	bad, err := pool.notifier("sub-endless", endless.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	good, err := pool.notifier("sub-good", recv.srv.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	bad.Notify(seqNote(ids[0], 0))
	bad.Notify(seqNote(ids[1], 0))
	bad.Notify(seqNote(ids[0], 1))
	good.Notify(seqNote(ids[0], 0))
	waitFor(t, 5*time.Second, func() bool { return recv.count() == 1 && pool.cSent.Value() == 4 })
	if got := posts.Load(); got != 3 {
		t.Errorf("endless endpoint saw %d POSTs, want 3", got)
	}
}

// laneGoroutines counts live webhook lane goroutines in this process.
func laneGoroutines() int { return goroutinesIn("ngsi.(*httpNotifier).run") }

// TestLaneGoroutinesStopOnRemoveAndClose: a subscription's lanes exist from
// notifier until remove (or the pool's Close) — also with a delivery parked
// in a retry backoff.
func TestLaneGoroutinesStopOnRemoveAndClose(t *testing.T) {
	ids := laneEntities(t)
	before := laneGoroutines()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	pool := fastWebhookPool(t, nil, WebhookConfig{RetryBackoff: time.Hour})
	for _, sub := range []string{"s1", "s2"} {
		hn, err := pool.notifier(sub, srv.URL, tenant.None)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			hn.Notify(seqNote(id, 0))
		}
	}
	waitFor(t, 2*time.Second, func() bool { return pool.cRetries.Value() == 2*webhookLanes })
	if got := laneGoroutines(); got != before+2*webhookLanes {
		t.Fatalf("%d lane goroutines for two subscriptions, want %d", got-before, 2*webhookLanes)
	}
	pool.remove("s1")
	waitFor(t, 2*time.Second, func() bool { return laneGoroutines() == before+webhookLanes })
	pool.Close()
	waitFor(t, 2*time.Second, func() bool { return laneGoroutines() == before })
	if d := pool.Depth(); d != 0 {
		t.Errorf("Depth() = %d after Close", d)
	}
}
