package fog

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/model"
)

var t0 = time.Date(2026, 6, 1, 6, 0, 0, 0, time.UTC)

// fakeUplink is a controllable cloud endpoint.
type fakeUplink struct {
	mu       sync.Mutex
	down     bool
	attempts int
	batches  [][]model.Reading
}

func (u *fakeUplink) forward(b []model.Reading) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.attempts++
	if u.down {
		return errors.New("backhaul down")
	}
	u.batches = append(u.batches, slices.Clone(b)) // the node reuses b
	return nil
}

func (u *fakeUplink) setDown(d bool) {
	u.mu.Lock()
	u.down = d
	u.mu.Unlock()
}

func (u *fakeUplink) received() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := 0
	for _, b := range u.batches {
		n += len(b)
	}
	return n
}

func reading(dev string, v float64, at time.Time) model.Reading {
	return model.Reading{Device: model.DeviceID(dev), Quantity: model.QSoilMoisture, Value: v, At: at}
}

// newNode builds a live node (drain goroutine running) closed with the test.
func newNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// newStoppedNode builds a node whose drain goroutine has already been
// stopped, so the test's own Flush calls are the queue's only consumer and
// trip counts are exact.
func newStoppedNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n := newNode(t, cfg)
	n.Close()
	return n
}

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Error("missing uplink accepted")
	}
	u := &fakeUplink{}
	if _, err := NewNode(Config{Uplink: u.forward, Decide: func(map[string]model.Reading, time.Time) []model.Command { return nil }}); err == nil {
		t.Error("decide without command sink accepted")
	}
}

func TestIngestForwardsWhenOnline(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{Uplink: u.forward})
	for i := 0; i < 5; i++ {
		if err := n.Ingest([]model.Reading{reading("p1", 0.2, t0.Add(time.Duration(i)*time.Minute))}); err != nil {
			t.Fatal(err)
		}
	}
	n.Flush() // barrier: the drain goroutine ships asynchronously
	if u.received() != 5 {
		t.Errorf("cloud received %d readings", u.received())
	}
	st := n.Stats()
	if st.Ingested != 5 || st.Forwarded != 5 || st.Buffered != 0 {
		t.Errorf("stats = %+v", st)
	}
	if !n.Online() {
		t.Error("node thinks it is offline")
	}
}

func TestIngestValidates(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{Uplink: u.forward})
	// An all-invalid batch is not an error (it must not look like a
	// transport failure) — it is skipped and counted, like cloud.Ingestor.
	if err := n.Ingest([]model.Reading{{}}); err != nil {
		t.Errorf("all-invalid batch returned error: %v", err)
	}
	if got := n.Metrics().Counter("fog.ingest.invalid").Value(); got != 1 {
		t.Errorf("fog.ingest.invalid = %d, want 1", got)
	}
	if u.received() != 0 {
		t.Errorf("invalid readings forwarded: %d", u.received())
	}
	if err := n.Ingest(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestIngestPoisonedBatchKeepsValidReadings: one invalid reading must not
// discard its valid batchmates — they are ingested, forwarded and visible
// in the latest view, while the poisoned reading is skipped and counted.
func TestIngestPoisonedBatchKeepsValidReadings(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{Uplink: u.forward})
	batch := []model.Reading{
		reading("p1", 0.21, t0),
		{}, // poisoned: fails Validate
		reading("p2", 0.27, t0),
	}
	if err := n.Ingest(batch); err != nil {
		t.Fatalf("poisoned batch rejected outright: %v", err)
	}
	if len(n.Latest()) != 2 {
		t.Errorf("latest view has %d series right after Ingest, want 2", len(n.Latest()))
	}
	n.Flush()
	if u.received() != 2 {
		t.Errorf("cloud received %d readings, want the 2 valid ones", u.received())
	}
	if got := n.Metrics().Counter("fog.ingest.invalid").Value(); got != 1 {
		t.Errorf("fog.ingest.invalid = %d, want 1", got)
	}
	if st := n.Stats(); st.Ingested != 2 {
		t.Errorf("stats.Ingested = %d, want 2", st.Ingested)
	}
}

func TestPartitionBuffersThenSyncs(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{Uplink: u.forward})

	u.setDown(true)
	for i := 0; i < 10; i++ {
		n.Ingest([]model.Reading{reading("p1", 0.2, t0.Add(time.Duration(i)*time.Minute))})
	}
	if sent := n.Flush(); sent != 0 {
		t.Fatalf("flush forwarded %d batches across a partition", sent)
	}
	if u.received() != 0 {
		t.Fatalf("readings crossed a partition: %d", u.received())
	}
	if n.Online() {
		t.Error("node did not notice the partition")
	}
	st := n.Stats()
	if st.Buffered != 10 {
		t.Errorf("buffered = %d, want 10", st.Buffered)
	}

	// Heal: everything syncs, in order (this Flush or the drain goroutine's
	// pending wake-up ships it; after the barrier it has all arrived).
	u.setDown(false)
	n.Flush()
	if u.received() != 10 {
		t.Errorf("cloud received %d after heal", u.received())
	}
	if st := n.Stats(); st.Forwarded != 10 || st.Buffered != 0 || st.Dropped != 0 {
		t.Errorf("stats after heal = %+v", st)
	}
	if !n.Online() {
		t.Error("node still offline after successful flush")
	}
	// Order preserved.
	u.mu.Lock()
	defer u.mu.Unlock()
	for i, b := range u.batches {
		if !b[0].At.Equal(t0.Add(time.Duration(i) * time.Minute)) {
			t.Fatalf("batch %d out of order", i)
		}
	}
}

func TestQueueBoundDropsOldest(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{Uplink: u.forward})
	u.setDown(true)
	const over = 7
	for i := 0; i < queueCap+over; i++ {
		n.Ingest([]model.Reading{reading("p1", float64(i), t0.Add(time.Duration(i)*time.Minute))})
	}
	n.Flush()
	st := n.Stats()
	if st.Buffered != queueCap || st.Dropped != over {
		t.Errorf("stats = %+v", st)
	}
	u.setDown(false)
	n.Flush()
	// The queueCap newest batches survived (coalesced into however many trips).
	if got := u.received(); got != queueCap {
		t.Errorf("synced %d readings, want %d", got, queueCap)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.batches[0][0].Value != over {
		t.Errorf("synced batches start at %g", u.batches[0][0].Value)
	}
}

func TestLatestViewKeepsFreshest(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{Uplink: u.forward})
	n.Ingest([]model.Reading{reading("p1", 0.30, t0.Add(time.Hour))})
	n.Ingest([]model.Reading{reading("p1", 0.10, t0)}) // stale arrival
	latest := n.Latest()
	if len(latest) != 1 {
		t.Fatalf("latest has %d series", len(latest))
	}
	for _, r := range latest {
		if r.Value != 0.30 {
			t.Errorf("stale reading overwrote fresh one: %g", r.Value)
		}
	}
	// Depth-distinct series are separate keys.
	deep := reading("p1", 0.5, t0)
	deep.Depth = 0.5
	n.Ingest([]model.Reading{deep})
	latest = n.Latest()
	if len(latest) != 2 {
		t.Errorf("depth series collapsed: %d keys", len(latest))
	}
	// Keys render as device/quantity and device/quantity/dNN.
	for _, key := range []string{"p1/soilMoisture", "p1/soilMoisture/d50"} {
		if _, ok := latest[key]; !ok {
			t.Errorf("latest view has no key %q: %v", key, latest)
		}
	}
}

// The availability headline: decisions keep flowing during a partition.
func TestDecisionsContinueOffline(t *testing.T) {
	u := &fakeUplink{}
	var mu sync.Mutex
	var applied []model.Command
	decide := func(latest map[string]model.Reading, at time.Time) []model.Command {
		for _, r := range latest {
			if r.Value < 0.15 { // dry → irrigate
				return []model.Command{{Target: "valve-1", Name: "open", Value: 1, Issuer: "fog", At: at}}
			}
		}
		return nil
	}
	sink := func(c model.Command) error {
		mu.Lock()
		applied = append(applied, c)
		mu.Unlock()
		return nil
	}
	n := newNode(t, Config{Uplink: u.forward, Decide: decide, Commands: sink})

	u.setDown(true) // Internet is gone.
	n.Ingest([]model.Reading{reading("p1", 0.10, t0)})
	cmds, err := n.RunDecision(t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 || cmds[0].Target != "valve-1" {
		t.Fatalf("offline decision = %+v", cmds)
	}
	mu.Lock()
	if len(applied) != 1 {
		t.Errorf("commands applied = %d", len(applied))
	}
	mu.Unlock()
	if st := n.Stats(); st.Decisions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFlushCoalescesBatches: a backlog syncs in bulk, maxBatchesPerTrip
// batches a trip — far fewer backhaul round trips — while preserving order
// and reading counts.
func TestFlushCoalescesBatches(t *testing.T) {
	u := &fakeUplink{}
	n := newStoppedNode(t, Config{Uplink: u.forward})
	u.setDown(true)
	const batches = 2*maxBatchesPerTrip + 2
	for i := 0; i < batches; i++ {
		n.Ingest([]model.Reading{reading("p1", float64(i), t0.Add(time.Duration(i)*time.Minute))})
	}
	u.setDown(false)
	if sent := n.Flush(); sent != batches {
		t.Errorf("flush forwarded %d batches, want %d", sent, batches)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	// Two full trips and the remainder → 3 uplink calls.
	if len(u.batches) != 3 {
		t.Fatalf("uplink trips = %d, want 3", len(u.batches))
	}
	total := 0
	last := -1.0
	for _, b := range u.batches {
		total += len(b)
		for _, r := range b {
			if r.Value <= last {
				t.Fatal("coalesced sync out of order")
			}
			last = r.Value
		}
	}
	if total != batches {
		t.Errorf("cloud received %d readings, want %d", total, batches)
	}
	if st := n.Stats(); st.Forwarded != batches || st.Buffered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFlushFailureRequeuesHead: a mid-drain partition pushes the in-flight
// batches back so nothing is lost once the backhaul heals.
func TestFlushFailureRequeuesHead(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{Uplink: u.forward})
	u.setDown(true)
	const batches = maxBatchesPerTrip + 2 // more than one trip's worth
	for i := 0; i < batches; i++ {
		n.Ingest([]model.Reading{reading("p1", float64(i), t0.Add(time.Duration(i)*time.Minute))})
	}
	n.Flush() // fails: the popped head goes back on the queue
	if st := n.Stats(); st.Buffered != batches {
		t.Fatalf("buffered = %d", st.Buffered)
	}
	u.setDown(false)
	n.Flush()
	if u.received() != batches {
		t.Errorf("cloud received %d readings after heal", u.received())
	}
}

func TestDecisionErrorsSurface(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{
		Uplink: u.forward,
		Decide: func(map[string]model.Reading, time.Time) []model.Command {
			return []model.Command{{Target: "v", Name: "open", Value: 1}}
		},
		Commands: func(model.Command) error { return errors.New("valve jammed") },
	})
	if _, err := n.RunDecision(t0); err == nil {
		t.Error("command failure swallowed")
	}
	if st := n.Stats(); st.CmdErrors != 1 {
		t.Errorf("stats = %+v", st)
	}
	bare := newNode(t, Config{Uplink: u.forward})
	if _, err := bare.RunDecision(t0); err == nil {
		t.Error("decision without decide func succeeded")
	}
}

// TestIngestDoesNotWaitForUplink: the contract the context dispatchers rely
// on — Ingest returns while the uplink trip is still blocked, and the local
// view is already current.
func TestIngestDoesNotWaitForUplink(t *testing.T) {
	release := make(chan struct{})
	var trips atomic.Int32
	n := newNode(t, Config{Uplink: func([]model.Reading) error {
		trips.Add(1)
		<-release
		return nil
	}})
	for i := 0; i < 20; i++ {
		n.Ingest([]model.Reading{reading(fmt.Sprintf("p%d", i), 0.2, t0)})
	}
	if got := len(n.Latest()); got != 20 {
		t.Errorf("latest view has %d series with the uplink blocked, want 20", got)
	}
	if st := n.Stats(); st.Forwarded != 0 || st.Buffered != 20 {
		t.Errorf("stats with the uplink blocked = %+v", st)
	}
	close(release)
	n.Flush()
	if st := n.Stats(); st.Forwarded != 20 || st.Buffered != 0 {
		t.Errorf("stats after release = %+v", st)
	}
	// The first trip left with whatever was queued when the drainer woke; the
	// rest accumulated behind it and shipped together.
	if got := trips.Load(); got > 2 {
		t.Errorf("20 batches took %d trips, want at most 2", got)
	}
}

// TestDrainUplinkFlapConservesReadings: eight ingesters race the drain
// goroutine and an explicit flusher while the uplink flaps. Nothing may be
// lost or duplicated, and — flushMu making one consumer at a time — each
// device's readings reach the uplink in ingest order. Within the bound
// nothing drops; with the uplink down while more than the bound arrives,
// the bound sheds. Run under -race.
func TestDrainUplinkFlapConservesReadings(t *testing.T) {
	const ingesters = 8
	for _, tc := range []struct {
		name        string
		perIngester int
		down        bool // the uplink refuses every trip while the ingesters run
	}{
		{"within-bound", 250, false},
		{"past-bound", queueCap/ingesters + 250, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perIngester := tc.perIngester
			var (
				mu   sync.Mutex
				down = tc.down
				got  = make(map[model.DeviceID][]float64)
			)
			uplink := func(b []model.Reading) error {
				mu.Lock()
				defer mu.Unlock()
				if down {
					return errors.New("backhaul down")
				}
				for _, r := range b {
					got[r.Device] = append(got[r.Device], r.Value)
				}
				return nil
			}
			n := newNode(t, Config{Uplink: uplink})

			stopFlap := make(chan struct{})
			flapDone := make(chan struct{})
			go func() {
				defer close(flapDone)
				for i := 0; ; i++ {
					select {
					case <-stopFlap:
						return
					default:
					}
					mu.Lock()
					down = tc.down || i%2 == 0
					mu.Unlock()
					n.Flush()
					runtime.Gosched()
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < ingesters; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dev := fmt.Sprintf("p%d", g)
					for i := 0; i < perIngester; i++ {
						n.Ingest([]model.Reading{reading(dev, float64(i), t0.Add(time.Duration(i)*time.Second))})
					}
				}()
			}
			wg.Wait()
			close(stopFlap)
			<-flapDone
			mu.Lock()
			down = false
			mu.Unlock()
			n.Flush()

			st := n.Stats()
			if st.Ingested != uint64(ingesters*perIngester) {
				t.Fatalf("ingested %d, want %d", st.Ingested, ingesters*perIngester)
			}
			// One reading per batch, so readings and batches count alike.
			if st.Buffered != 0 || st.Forwarded+st.Dropped != st.Ingested {
				t.Errorf("forwarded + buffered + dropped != ingested: %+v", st)
			}
			if !tc.down && st.Dropped != 0 {
				t.Errorf("dropped %d batches within the bound", st.Dropped)
			}
			if tc.down && st.Dropped < st.Ingested-queueCap {
				t.Errorf("dropped %d of %d batches past a bound of %d", st.Dropped, st.Ingested, queueCap)
			}
			mu.Lock()
			defer mu.Unlock()
			arrived := 0
			for dev, vals := range got {
				arrived += len(vals)
				for i := 1; i < len(vals); i++ {
					if vals[i] <= vals[i-1] { // a repeat is a duplicate, a drop in value a reordering
						t.Fatalf("%s: reading %g arrived after %g", dev, vals[i], vals[i-1])
					}
				}
			}
			if uint64(arrived) != st.Forwarded {
				t.Errorf("uplink saw %d readings, stats say %d forwarded", arrived, st.Forwarded)
			}
		})
	}
}

// TestDrainCloseFlushesAndStops: Close ships the backlog, stops the drain
// goroutine and may be called again.
func TestDrainCloseFlushesAndStops(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{Uplink: u.forward})
	for i := 0; i < 5; i++ {
		n.Ingest([]model.Reading{reading("p1", float64(i), t0.Add(time.Duration(i)*time.Minute))})
	}
	n.Close()
	n.Close()
	select {
	case <-n.done:
	default:
		t.Fatal("drain goroutine still running after Close")
	}
	if st := n.Stats(); st.Buffered != 0 || st.Forwarded != 5 {
		t.Errorf("stats after Close = %+v", st)
	}
	if u.received() != 5 {
		t.Errorf("cloud received %d readings", u.received())
	}
}

// TestDrainClosePartitionedKeepsBacklog: with the backhaul down Close
// returns after one refused attempt — it neither spins nor sheds — and the
// backlog still syncs through a later Flush.
func TestDrainClosePartitionedKeepsBacklog(t *testing.T) {
	u := &fakeUplink{}
	n := newNode(t, Config{Uplink: u.forward})
	u.setDown(true)
	const batches = 5
	for i := 0; i < batches; i++ {
		n.Ingest([]model.Reading{reading("p1", float64(i), t0.Add(time.Duration(i)*time.Minute))})
	}
	n.Close()
	if st := n.Stats(); st.Buffered != batches || st.Dropped != 0 || st.Forwarded != 0 {
		t.Errorf("stats after partitioned Close = %+v", st)
	}
	u.mu.Lock()
	attempts := u.attempts
	u.mu.Unlock()
	if attempts > batches+1 { // at most one per wake-up, plus Close's own
		t.Errorf("%d uplink attempts for %d ingests while partitioned", attempts, batches)
	}
	u.setDown(false)
	if sent := n.Flush(); sent != batches {
		t.Errorf("flush after heal forwarded %d batches, want %d", sent, batches)
	}
}

// TestPartitionBacklogReleasedAfterFlush: a forwarded batch must become
// collectable — popping the queue head may not leave it reachable from the
// queue's backing array.
func TestPartitionBacklogReleasedAfterFlush(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	const batches = 256
	n := newNode(t, Config{Uplink: func([]model.Reading) error {
		if down.Load() {
			return errors.New("backhaul down")
		}
		return nil // discards the batch
	}})
	for i := 0; i < batches; i++ {
		n.Ingest([]model.Reading{reading("p1", float64(i), t0.Add(time.Duration(i)*time.Minute))})
	}
	n.Flush()
	released := make(chan struct{})
	n.mu.Lock()
	if n.queue.len() != batches {
		n.mu.Unlock()
		t.Fatalf("queue holds %d batches, want %d", n.queue.len(), batches)
	}
	runtime.SetFinalizer(&n.queue.at(0)[0], func(*model.Reading) { close(released) })
	n.mu.Unlock()

	down.Store(false)
	n.Flush()
	if st := n.Stats(); st.Buffered != 0 || st.Forwarded != batches {
		t.Fatalf("stats after heal = %+v", st)
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-released:
			return
		case <-deadline:
			t.Fatal("forwarded batch still reachable after Flush")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestIngestAllocs guards the per-batch cost of the path the context
// dispatchers run: none. Ingest takes ownership of the batch it is handed,
// so it queues that slice instead of a copy, and the queue is a ring that
// does not regrow once it has held as many batches; the latest-view key is
// a struct, not a formatted string. Each call gets a fresh batch, as the
// ownership rule requires.
func TestIngestAllocs(t *testing.T) {
	u := &fakeUplink{}
	n := newStoppedNode(t, Config{Uplink: u.forward})
	const runs = 200
	batches := make([][]model.Reading, 2*(runs+1))
	for i := range batches {
		deep := reading("p1", 0.31, t0)
		deep.Depth = 0.5
		batches[i] = []model.Reading{reading("p1", 0.30, t0), deep}
	}
	// Create the two latest-view entries and grow the ring to hold a run.
	for _, b := range batches[:runs+1] {
		n.Ingest(b)
	}
	n.Flush()
	next := batches[runs+1:]
	allocs := testing.AllocsPerRun(runs, func() {
		n.Ingest(next[0])
		next = next[1:]
	})
	if allocs != 0 {
		t.Errorf("Ingest of a two-reading batch allocates %.2f times, want 0", allocs)
	}
}
