package agent

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/ngsi"
)

// gateJournal is an ngsi.Journal whose merge acks park until the test opens
// the gate and then report err: a slow (or failing) commit on demand. While
// the batcher's flush 1 is parked there, whatever the agent decodes must
// coalesce into flush 2.
type gateJournal struct {
	gate    chan struct{} // closed by open: every ack resolves from then on
	opened  sync.Once
	entered chan struct{} // signalled when an ack starts waiting
	err     error
}

type gateAck struct{ j *gateJournal }

func (a gateAck) Wait() error {
	select {
	case a.j.entered <- struct{}{}:
	default:
	}
	<-a.j.gate
	return a.j.err
}

func (j *gateJournal) open() { j.opened.Do(func() { close(j.gate) }) }

func (j *gateJournal) EntitiesMerged([]ngsi.MergeEntry) ngsi.JournalAck      { return gateAck{j} }
func (j *gateJournal) EntityUpserted(*ngsi.Entity) ngsi.JournalAck           { return nil }
func (j *gateJournal) EntityDeleted(string) ngsi.JournalAck                  { return nil }
func (j *gateJournal) SubscriptionPut(ngsi.SubscriptionView) ngsi.JournalAck { return nil }
func (j *gateJournal) SubscriptionDeleted(string) ngsi.JournalAck            { return nil }

// newGatedStack wires the northbound pipeline over a context broker whose
// journal gate is shut, provisions the probe and parks the agent's flusher:
// when it returns, flush 1 (one NDVI reading) is waiting for its ack.
func newGatedStack(t *testing.T, ackErr error) (*stack, *gateJournal, *mqtt.Client) {
	t.Helper()
	s := newStack(t, nil)
	j := &gateJournal{gate: make(chan struct{}), entered: make(chan struct{}, 1), err: ackErr}
	s.ctx.SetJournal(j) // before any northbound traffic
	t.Cleanup(j.open)   // runs before the stack's a.Stop, which waits for the parked flush
	if err := s.agent.Provision(probeProvision()); err != nil {
		t.Fatal(err)
	}
	dev := dial(t, s.broker, "probe-1")
	publish(t, dev, "n|0.9")
	select {
	case <-j.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("no flush reached the journal")
	}
	return s, j, dev
}

func publish(t *testing.T, dev *mqtt.Client, payload string) {
	t.Helper()
	if err := dev.Publish(AttrsTopic("k1", "probe-1"), []byte(payload), 1, false); err != nil {
		t.Fatal(err)
	}
}

func (s *stack) counter(name string) uint64 { return s.agent.Metrics().Counter(name).Value() }

// waitCounter blocks until the named counter has reached n, and fails the
// test if it stops anywhere else.
func (s *stack) waitCounter(t *testing.T, name string, n uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && s.counter(name) < n {
		time.Sleep(time.Millisecond)
	}
	if got := s.counter(name); got != n {
		t.Fatalf("%s = %d, want %d", name, got, n)
	}
}

// TestBatchedNorthboundFlow: measurements reach the context broker through
// the coalescing path with no flush call, and agent.north.ok advances only
// once they are visible.
func TestBatchedNorthboundFlow(t *testing.T) {
	s := newStack(t, nil)
	if err := s.agent.Provision(probeProvision()); err != nil {
		t.Fatal(err)
	}
	dev := dial(t, s.broker, "probe-1")
	publish(t, dev, EncodeUL(map[string]float64{"m1": 0.21, "m2": 0.27}))
	if !s.agent.WaitNorthbound(1, 2*time.Second) {
		t.Fatal("batched northbound not processed")
	}
	// WaitNorthbound returning means the flush already happened: the
	// entity must be visible without further waiting.
	e, err := s.ctx.GetEntity("urn:swamp:farm1:plot1")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Attrs["soilMoisture_d20"].Float(); !ok || v != 0.21 {
		t.Errorf("d20 = %v", e.Attrs["soilMoisture_d20"].Value)
	}
}

// TestBatchedNorthboundCoalesces: two messages for the same entity that
// arrive while a flush is in progress produce one further flush whose
// update count still reflects both messages.
func TestBatchedNorthboundCoalesces(t *testing.T) {
	s, j, dev := newGatedStack(t, nil)
	publish(t, dev, "m1|0.10")
	publish(t, dev, "m1|0.20|m2|0.30")
	s.waitCounter(t, "ngsi.batcher.added", 3) // decoded and buffered
	// Flush 1 is still waiting for its commit: nothing is acknowledged yet.
	if got := s.counter("agent.north.ok"); got != 0 {
		t.Fatalf("ok counter = %d behind the shut gate", got)
	}
	j.open()
	if !s.agent.WaitNorthbound(3, 2*time.Second) {
		t.Fatalf("ok counter = %d, want 3", s.counter("agent.north.ok"))
	}
	e, err := s.ctx.GetEntity("urn:swamp:farm1:plot1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Attrs["soilMoisture_d20"].Float(); v != 0.20 {
		t.Errorf("last write lost: d20 = %v", e.Attrs["soilMoisture_d20"].Value)
	}
	if v, _ := e.Attrs["soilMoisture_d50"].Float(); v != 0.30 {
		t.Errorf("d50 = %v", e.Attrs["soilMoisture_d50"].Value)
	}
	s.agent.FlushNorthbound() // nothing left: must not count as a flush
	if got := s.counter("ngsi.batcher.flushes"); got != 2 {
		t.Errorf("flushes = %d, want 2", got)
	}
}

// TestFlushErrorCountsCtxErr: a flush whose commit fails moves
// agent.north.ctxerr by the number of messages it carried and
// agent.north.ok not at all.
func TestFlushErrorCountsCtxErr(t *testing.T) {
	s, j, dev := newGatedStack(t, errors.New("disk full"))
	publish(t, dev, "m1|0.10")
	publish(t, dev, "m2|0.30")
	s.waitCounter(t, "ngsi.batcher.added", 3) // decoded and buffered
	j.open()
	s.waitCounter(t, "ngsi.batcher.flushes", 2)
	// Flush 1 carried one message, flush 2 the two that coalesced behind it.
	if got := s.counter("agent.north.ctxerr"); got != 3 {
		t.Errorf("ctxerr = %d, want 3", got)
	}
	if got := s.counter("agent.north.ok"); got != 0 {
		t.Errorf("ok = %d after failed flushes, want 0", got)
	}
}

// TestOnMeasureAllocs pins the per-message garbage of the northbound
// handler for a two-depth reading: the attribute map (its header and its
// one group of slots) and its two boxed values, which the batcher keeps
// rather than copies. The UL decode reads the payload in place into a stack
// array. The flusher is parked, so every
// reading lands on the same pending entity and nothing else in the process
// allocates.
func TestOnMeasureAllocs(t *testing.T) {
	s, _, _ := newGatedStack(t, nil)
	msg := mqtt.Message{Topic: AttrsTopic("k1", "probe-1"), Payload: []byte("m1|0.21|m2|0.27")}
	before := s.counter("ngsi.batcher.added")
	allocs := testing.AllocsPerRun(200, func() { s.agent.onMeasure(msg) })
	if got := s.counter("ngsi.batcher.added") - before; got != 201 {
		t.Fatalf("onMeasure buffered %d of 201 readings", got)
	}
	const bound = 4
	if allocs > bound {
		t.Errorf("onMeasure allocates %v times per two-depth reading, want ≤ %d", allocs, bound)
	}
}
