package ngsi

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateJournal is a Journal whose merge acks park until the test opens the
// gate: the deterministic stand-in for a slow commit. It holds whichever
// flush is inside BatchUpdate, so everything added meanwhile must coalesce
// into the next one. Attach with SetJournal before traffic.
type gateJournal struct {
	gate    chan struct{} // closed by open: every ack resolves from then on
	opened  sync.Once
	entered chan struct{} // signalled when an ack starts waiting
}

func newGateJournal() *gateJournal {
	return &gateJournal{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
}

func (j *gateJournal) open() { j.opened.Do(func() { close(j.gate) }) }

// waitParked blocks until a flush is parked on the gate.
func (j *gateJournal) waitParked(t *testing.T) {
	t.Helper()
	select {
	case <-j.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("no flush reached the journal")
	}
}

type gateAck struct{ j *gateJournal }

func (a gateAck) Wait() error {
	select {
	case a.j.entered <- struct{}{}:
	default:
	}
	<-a.j.gate
	return nil
}

func (j *gateJournal) EntitiesMerged([]MergeEntry) JournalAck      { return gateAck{j} }
func (j *gateJournal) EntityUpserted(*Entity) JournalAck           { return nil }
func (j *gateJournal) EntityDeleted(string) JournalAck             { return nil }
func (j *gateJournal) SubscriptionPut(SubscriptionView) JournalAck { return nil }
func (j *gateJournal) SubscriptionDeleted(string) JournalAck       { return nil }

// gatedBatcher builds a broker behind a shut gate and a batcher on it, then
// parks the flusher: flush 1 (entity "e0") is inside BatchUpdate, waiting
// for its ack, when gatedBatcher returns.
func gatedBatcher(t *testing.T, cfg BatcherConfig) (*Broker, *gateJournal, *Batcher) {
	t.Helper()
	b := NewBroker(BrokerConfig{})
	t.Cleanup(b.Close)
	j := newGateJournal()
	b.SetJournal(j)
	cfg.Writer, cfg.Metrics = Local{Broker: b}, b.Metrics()
	ba, err := NewBatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ba.Close)
	t.Cleanup(j.open) // runs first: Close waits for the parked flush
	if err := ba.Add("e0", "T", map[string]Attribute{"a": num(0)}); err != nil {
		t.Fatal(err)
	}
	j.waitParked(t)
	return b, j, ba
}

func floatAttr(t *testing.T, b *Broker, id, attr string) float64 {
	t.Helper()
	e, err := b.GetEntity(id)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := e.Attrs[attr].Float()
	if !ok {
		t.Fatalf("%s.%s = %v, not a number", id, attr, e.Attrs[attr].Value)
	}
	return v
}

// TestBatcherCoalescesPerEntity: several Adds that arrive while a flush is
// in progress produce exactly one further flush, with one BatchUpdate entry
// per entity, merged attributes (last-write-wins) and one notification.
func TestBatcherCoalescesPerEntity(t *testing.T) {
	var flushes atomic.Int32
	var lastStats atomic.Value
	b, j, ba := gatedBatcher(t, BatcherConfig{
		OnFlush: func(fs FlushStats) {
			lastStats.Store(fs)
			flushes.Add(1)
		},
	})
	var notes atomic.Int32 // subscribed after flush 1 applied e0: flush 2's only
	b.Subscribe(Subscription{EntityIDPattern: "*", Notifier: Callback(func(Notification) { notes.Add(1) })})

	ba.Add("e1", "T", map[string]Attribute{"a": num(1), "b": num(2)})
	ba.Add("e1", "T", map[string]Attribute{"a": num(10)}) // overwrites a
	ba.Add("e2", "T", map[string]Attribute{"a": num(3)})
	if flushes.Load() != 0 {
		t.Fatal("a flush completed behind the shut gate")
	}
	j.open()
	waitFor(t, 2*time.Second, func() bool { return flushes.Load() == 2 })
	fs := lastStats.Load().(FlushStats)
	if fs.Entities != 2 || fs.Updates != 3 || fs.Err != nil {
		t.Errorf("flush 2 stats = %+v", fs)
	}
	if n := ba.Flush(); n != 0 || flushes.Load() != 2 {
		t.Errorf("after flush 2: %d entities still pending, %d flushes", n, flushes.Load())
	}
	if v := floatAttr(t, b, "e1", "a"); v != 10 {
		t.Errorf("last write lost: a = %v", v)
	}
	if v := floatAttr(t, b, "e1", "b"); v != 2 {
		t.Errorf("earlier attribute lost: b = %v", v)
	}
	// One notification per entity per flush, not per Add.
	waitFor(t, time.Second, func() bool { return notes.Load() == 2 })
	time.Sleep(20 * time.Millisecond)
	if notes.Load() != 2 {
		t.Errorf("notifications = %d, want 2", notes.Load())
	}
}

// TestBatcherOwnsWhatItIsHanded: the map given to Add is the batcher's — an
// Add that finds the entity pending merges into the earlier Add's map, last
// write wins — and what reaches the broker is not copied again: the stored
// version carries the caller's Metadata map itself. No version's attribute
// map is one that was handed in, and an Add after a flush starts from its
// own map, so a version already applied does not change.
func TestBatcherOwnsWhatItIsHanded(t *testing.T) {
	b, j, ba := gatedBatcher(t, BatcherConfig{})
	mapOf := func(m any) uintptr { return reflect.ValueOf(m).Pointer() }
	stored := func() *Entity {
		t.Helper()
		res, err := b.Query(Query{IDPattern: "e1"})
		if err != nil || len(res.Entities) != 1 {
			t.Fatalf("query e1: %v, %d entities", err, len(res.Entities))
		}
		return res.Entities[0]
	}
	meta := map[string]string{"device": "d1"}

	// Both arrive while flush 1 is parked: the second merges into the first.
	m1 := map[string]Attribute{"a": {Type: "Number", Value: 1.0, Metadata: meta}, "b": num(2)}
	m2 := map[string]Attribute{"a": {Type: "Number", Value: 10.0, Metadata: meta}}
	ba.Add("e1", "T", m1)
	ba.Add("e1", "T", m2)
	j.open()
	ba.Flush()
	v1 := stored()
	if a, _ := v1.Attrs["a"].Float(); a != 10 || len(v1.Attrs) != 2 {
		t.Fatalf("merged version = %+v, want a=10 beside b", v1.Attrs)
	}
	if mapOf(v1.Attrs["a"].Metadata) != mapOf(meta) {
		t.Error("the stored version carries a copy of the Metadata it was handed")
	}
	was := fmt.Sprintf("%+v", *v1)

	m3 := map[string]Attribute{"b": num(3)}
	ba.Add("e1", "T", m3)
	ba.Flush()
	v2 := stored()
	if bv, _ := v2.Attrs["b"].Float(); bv != 3 || v2 == v1 {
		t.Fatalf("second version = %+v", v2.Attrs)
	}
	if now := fmt.Sprintf("%+v", *v1); now != was {
		t.Errorf("the applied version changed under a later Add:\n was %s\n now %s", was, now)
	}
	for _, handed := range []map[string]Attribute{m1, m2, m3} {
		if mapOf(v1.Attrs) == mapOf(handed) || mapOf(v2.Attrs) == mapOf(handed) {
			t.Error("a stored version's attribute map is one a caller handed to Add")
		}
	}
	if mapOf(v1.Attrs) == mapOf(v2.Attrs) {
		t.Error("two versions share one attribute map")
	}
}

// TestBatcherFlushesOnInterval: there is no interval — an Add on an idle
// batcher becomes visible in the broker with no Flush call.
func TestBatcherFlushesOnInterval(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	ba, err := NewBatcher(BatcherConfig{Writer: Local{Broker: b}})
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	ba.Add("e1", "T", map[string]Attribute{"a": num(1)})
	waitFor(t, time.Second, func() bool {
		_, err := b.GetEntity("e1")
		return err == nil
	})
}

// TestBatcherIdleAddNeedsNoWindow: an idle batcher adds no waiting of its
// own. 200 sequential Add → visible cycles took ≥ 400 ms behind the 2 ms
// ticker this replaced; they take a few milliseconds now.
func TestBatcherIdleAddNeedsNoWindow(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	ba, err := NewBatcher(BatcherConfig{Writer: Local{Broker: b}})
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	seen := make(chan float64, 1)
	b.Subscribe(Subscription{EntityIDPattern: "e1", Notifier: Callback(func(n Notification) {
		v, _ := n.Entity.Attrs["a"].Float()
		seen <- v
	})})
	start := time.Now()
	for i := 1; i <= 200; i++ {
		ba.Add("e1", "T", map[string]Attribute{"a": num(float64(i))})
		select {
		case v := <-seen:
			if v != float64(i) {
				t.Fatalf("cycle %d delivered %v", i, v)
			}
		case <-time.After(time.Second):
			t.Fatalf("cycle %d never became visible", i)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("200 idle Add→visible cycles took %v, want < 100ms", d)
	}
}

// TestBatcherMaxEntitiesFlushesEarly: the Add that brings MaxEntities
// entities pending flushes on its own goroutine — when it returns,
// everything added so far is in the broker, without a Flush call.
func TestBatcherMaxEntitiesFlushesEarly(t *testing.T) {
	b, j, ba := gatedBatcher(t, BatcherConfig{MaxEntities: 3})
	ba.Add("e1", "T", map[string]Attribute{"a": num(1)})
	ba.Add("e2", "T", map[string]Attribute{"a": num(2)})
	if got := b.EntityCount(); got != 1 { // flush 1's e0, applied and awaiting its ack
		t.Fatalf("entity count below MaxEntities = %d, want 1", got)
	}
	time.AfterFunc(10*time.Millisecond, j.open)
	ba.Add("e3", "T", map[string]Attribute{"a": num(3)})
	if got := b.EntityCount(); got != 4 {
		t.Errorf("entity count after cap flush = %d, want 4", got)
	}
}

// TestBatcherBackpressureAtMaxEntities: while a flush waits for its commit,
// the MaxEntities-th pending entity blocks its Add until that flush is
// done, so pending never exceeds the bound.
func TestBatcherBackpressureAtMaxEntities(t *testing.T) {
	const bound = 4
	b, j, ba := gatedBatcher(t, BatcherConfig{MaxEntities: bound})
	pending := b.Metrics().Gauge("ngsi.batcher.pending")
	returned := make(chan int, bound)
	go func() {
		for i := 1; i <= bound; i++ {
			ba.Add(fmt.Sprintf("e%d", i), "T", map[string]Attribute{"a": num(float64(i))})
			returned <- i
		}
	}()
	for i := 1; i < bound; i++ {
		select {
		case <-returned:
		case <-time.After(2 * time.Second):
			t.Fatalf("Add %d below the bound blocked", i)
		}
	}
	select {
	case <-returned:
		t.Fatal("the MaxEntities-th Add returned while the flush in progress was parked")
	case <-time.After(50 * time.Millisecond):
	}
	if got := pending.Value(); got != bound {
		t.Errorf("pending = %v with the bound reached, want %d", got, bound)
	}
	j.open()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("the blocked Add never returned after the gate opened")
	}
	if got := b.EntityCount(); got != bound+1 {
		t.Errorf("entity count = %d, want %d", got, bound+1)
	}
	if got := pending.Value(); got != 0 {
		t.Errorf("pending = %v after the cap flush, want 0", got)
	}
}

// TestBatcherCloseFlushesTail: Close waits for the flush in progress,
// pushes what was still pending and further Adds fail with ErrClosed.
func TestBatcherCloseFlushesTail(t *testing.T) {
	b, j, ba := gatedBatcher(t, BatcherConfig{})
	ba.Add("e1", "T", map[string]Attribute{"a": num(1)})
	closed := make(chan struct{})
	go func() {
		ba.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a flush was still waiting for its commit")
	case <-time.After(20 * time.Millisecond):
	}
	j.open()
	<-closed
	ba.Close() // idempotent
	if b.EntityCount() != 2 {
		t.Error("pending update lost at Close")
	}
	if err := ba.Add("e2", "T", map[string]Attribute{"a": num(2)}); err != ErrClosed {
		t.Errorf("add after close = %v, want ErrClosed", err)
	}
}

// TestBatcherAddRacingClose: every Add that returned nil is in the broker
// when Close returns, and once one Add got ErrClosed all later ones do.
func TestBatcherAddRacingClose(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	ba, err := NewBatcher(BatcherConfig{Writer: Local{Broker: b}, MaxEntities: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ba.Close) // the adders below only stop once the batcher is closed
	const adders = 4
	var wg sync.WaitGroup
	accepted := make([]float64, adders) // last value whose Add returned nil
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("e%d", g)
			refused := false
			for i := 1; ; i++ {
				err := ba.Add(id, "T", map[string]Attribute{"a": num(float64(i))})
				switch {
				case err == nil && refused:
					t.Errorf("%s: Add %d accepted after an earlier ErrClosed", id, i)
					return
				case err == nil:
					accepted[g] = float64(i)
				case errors.Is(err, ErrClosed):
					if refused { // a few more to pin "later ones too", then stop
						return
					}
					refused = true
				default:
					t.Errorf("%s: Add %d: %v", id, i, err)
					return
				}
			}
		}(g)
	}
	waitFor(t, 2*time.Second, func() bool { return b.EntityCount() == adders })
	ba.Close()
	wg.Wait()
	for g, want := range accepted {
		if got := floatAttr(t, b, fmt.Sprintf("e%d", g), "a"); got != want {
			t.Errorf("e%d = %v in the broker after Close, last accepted Add was %v", g, got, want)
		}
	}
}

// TestBatcherOrderUnderConcurrency: adders on disjoint entities, the
// flusher goroutine, cap flushes inside Add and an explicit flusher all
// swap batches out concurrently; flushMu keeps them applied in order, so
// no subscriber ever sees a value go backwards.
func TestBatcherOrderUnderConcurrency(t *testing.T) {
	const adders, perAdder = 8, 500
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	ba, err := NewBatcher(BatcherConfig{Writer: Local{Broker: b}, MaxEntities: 4, Metrics: b.Metrics()})
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	var mu sync.Mutex
	last := make(map[string]float64)
	b.Subscribe(Subscription{EntityIDPattern: "*", Notifier: Callback(func(n Notification) {
		v, _ := n.Entity.Attrs["a"].Float()
		mu.Lock()
		defer mu.Unlock()
		if v <= last[n.Entity.ID] {
			t.Errorf("%s went from %v to %v", n.Entity.ID, last[n.Entity.ID], v)
		}
		last[n.Entity.ID] = v
	})})

	stopFlushing := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stopFlushing:
				return
			default:
				ba.Flush()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 1; i <= perAdder; i++ {
				if err := ba.Add(id, "T", map[string]Attribute{"a": num(float64(i))}); err != nil {
					t.Errorf("%s: Add %d: %v", id, i, err)
					return
				}
			}
		}(fmt.Sprintf("e%d", g))
	}
	wg.Wait()
	close(stopFlushing)
	flusher.Wait()
	ba.Flush()
	for g := 0; g < adders; g++ {
		if got := floatAttr(t, b, fmt.Sprintf("e%d", g), "a"); got != perAdder {
			t.Errorf("e%d = %v, want the last Add's %d", g, got, perAdder)
		}
	}
	reg := b.Metrics()
	added, updates := reg.Counter("ngsi.batcher.added").Value(), reg.Counter("ngsi.batcher.updates").Value()
	if added != adders*perAdder || updates != added {
		t.Errorf("added = %d, updates = %d, want both %d", added, updates, adders*perAdder)
	}
}

// goroutinesIn counts the live goroutines of this process running fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), fn)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// batcherLoops counts live batcher flusher goroutines in this process.
func batcherLoops() int { return goroutinesIn("ngsi.(*Batcher).loop") }

// TestBatcherCloseLeavesNoGoroutine: the flusher exists from NewBatcher
// until Close returns.
func TestBatcherCloseLeavesNoGoroutine(t *testing.T) {
	before := batcherLoops()
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	ba, err := NewBatcher(BatcherConfig{Writer: Local{Broker: b}})
	if err != nil {
		t.Fatal(err)
	}
	ba.Add("e1", "T", map[string]Attribute{"a": num(1)})
	waitFor(t, 2*time.Second, func() bool { return batcherLoops() == before+1 })
	ba.Close()
	// Close returns once the flusher has closed its done channel; the
	// goroutine itself may take a moment more to leave the stack dump.
	waitFor(t, 2*time.Second, func() bool { return batcherLoops() == before })
}

// TestBatcherValidatesAdds: malformed updates are rejected at Add time so
// they cannot poison a whole flush later.
func TestBatcherValidatesAdds(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	ba, err := NewBatcher(BatcherConfig{Writer: Local{Broker: b}})
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	if err := ba.Add("", "T", map[string]Attribute{"a": num(1)}); err == nil {
		t.Error("empty id accepted")
	}
	if err := ba.Add("e", "", map[string]Attribute{"a": num(1)}); err == nil {
		t.Error("empty type accepted")
	}
	if err := ba.Add("e", "T", nil); err == nil {
		t.Error("empty attrs accepted")
	}
	if _, err := NewBatcher(BatcherConfig{}); err == nil {
		t.Error("batcher without broker accepted")
	}
}
