// Package fog implements the SWAMP farm-premises fog node. The paper's
// availability requirement (§III: "the availability of the platform must be
// provided even in case of Internet disconnections using local components
// (fog computing) to keep the platform running properly") maps to three
// responsibilities implemented here:
//
//  1. keep the freshest field state locally (LatestStore),
//  2. keep making irrigation decisions and driving local actuators while
//     the backhaul is down (RunDecision), and
//  3. buffer northbound telemetry in a bounded store-and-forward queue and
//     sync it to the cloud when connectivity returns (Flush).
//
// The node owns the uplink: Ingest only refreshes the local view and
// enqueues — it never waits for the backhaul — while one drain goroutine
// loops Flush, so each trip carries whatever accumulated during the previous
// one (up to MaxBatchesPerTrip). Flush is also the exported synchronous
// barrier; Close does the final flush and stops the goroutine.
package fog

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/model"
)

// UplinkFunc forwards one batch of readings to the cloud. It returns an
// error while the backhaul is down — the node treats any error as
// "partitioned, retry later". The node makes one call at a time and reuses
// the batch's array afterwards, so the function keeps nothing of it once
// it returns.
type UplinkFunc func([]model.Reading) error

// DecisionFunc computes irrigation commands from the node's latest local
// view. It is invoked on the fog node, so it works during disconnections.
type DecisionFunc func(latest map[string]model.Reading, at time.Time) []model.Command

// CommandSink applies a command to a local actuator.
type CommandSink func(model.Command) error

// DefaultMaxBatchesPerTrip is the uplink coalescing bound when
// Config.MaxBatchesPerTrip is zero.
const DefaultMaxBatchesPerTrip = 32

// Config wires a Node.
type Config struct {
	// Uplink forwards batches cloudward (required).
	Uplink UplinkFunc
	// Decide computes local decisions; nil disables the decision loop.
	Decide DecisionFunc
	// Commands applies decisions to local actuators; required when Decide
	// is set.
	Commands CommandSink
	// QueueCap bounds the store-and-forward queue in batches (default
	// 4096). When full, the OLDEST batch is dropped — fresh state matters
	// more for irrigation than stale history.
	QueueCap int
	// MaxBatchesPerTrip coalesces up to this many queued batches into one
	// uplink call (default DefaultMaxBatchesPerTrip). Every trip costs a full
	// backhaul round trip, so shipping in bulk whatever queued up behind
	// the previous trip — a few batches under load, thousands after a
	// partition — cuts the trips by the same factor.
	MaxBatchesPerTrip int
	// Metrics receives counters; nil allocates a private registry.
	Metrics *metrics.Registry
}

// Stats snapshot of the node's queue and traffic.
type Stats struct {
	Ingested  uint64
	Forwarded uint64
	Buffered  int
	Dropped   uint64
	Decisions uint64
	CmdErrors uint64
}

// Node is a fog node. Construct with NewNode, release with Close. Safe for
// concurrent use.
type Node struct {
	cfg Config
	reg *metrics.Registry

	// flushMu serializes flushers (the drain goroutine and Flush callers)
	// so the queue has exactly one consumer at a time; the uplink call runs
	// outside the state lock. It guards the trip's scratch: head, the
	// batches popped for it, and merged, their readings in one slice.
	flushMu sync.Mutex
	head    [][]model.Reading
	merged  []model.Reading

	mu       sync.Mutex
	latest   map[seriesKey]model.Reading
	queue    ring
	inflight int // batches popped for the trip in progress
	stats    Stats
	online   bool

	// Counters, resolved once so ingest and trips never touch the
	// registry map.
	cIngested, cInvalid, cDropped    *metrics.Counter
	cTripOK, cTripFail, cTripBatches *metrics.Counter

	wake      chan struct{} // Ingest → drainer: the queue is non-empty
	stop      chan struct{}
	done      chan struct{} // closed when the drainer has exited
	closeOnce sync.Once
}

// NewNode validates the config and builds a node. Nodes start optimistic
// (online) and discover partitions through uplink failures.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Uplink == nil {
		return nil, errors.New("fog: uplink is required")
	}
	if cfg.Decide != nil && cfg.Commands == nil {
		return nil, errors.New("fog: decision loop needs a command sink")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.MaxBatchesPerTrip <= 0 {
		cfg.MaxBatchesPerTrip = DefaultMaxBatchesPerTrip
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	n := &Node{
		cfg:    cfg,
		reg:    cfg.Metrics,
		latest: make(map[seriesKey]model.Reading),
		online: true,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),

		cIngested:    cfg.Metrics.Counter("fog.ingested"),
		cInvalid:     cfg.Metrics.Counter("fog.ingest.invalid"),
		cDropped:     cfg.Metrics.Counter("fog.queue.dropped"),
		cTripOK:      cfg.Metrics.Counter("fog.uplink.ok"),
		cTripFail:    cfg.Metrics.Counter("fog.uplink.fail"),
		cTripBatches: cfg.Metrics.Counter("fog.uplink.batches"),
	}
	go n.drain()
	return n, nil
}

// drain is the node's uplink loop: one Flush per wake-up, so a trip ships
// everything Ingest queued during the previous trip. A failed trip is not
// retried until the next wake-up (or an explicit Flush) — a partition costs
// at most one refused attempt per ingest, never a spin.
func (n *Node) drain() {
	defer close(n.done)
	for {
		select {
		case <-n.stop:
			return
		case <-n.wake:
			n.Flush()
		}
	}
}

// Close stops the drain goroutine and does a final synchronous Flush. When
// the backhaul is down the backlog stays queued (nothing is dropped) and a
// later Flush can still sync it. Idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.stop)
		<-n.done
		n.Flush()
	})
}

// Metrics returns the node's registry.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// seriesKey is the latest-store key of a reading's series.
type seriesKey struct {
	device   model.DeviceID
	quantity model.Quantity
	depthCM  int // -1 when the reading carries no depth
}

func keyOf(r model.Reading) seriesKey {
	k := seriesKey{device: r.Device, quantity: r.Quantity, depthCM: -1}
	if r.Depth > 0 {
		k.depthCM = int(r.Depth*100 + 0.5)
	}
	return k
}

// String renders the key as Latest exposes it: device/quantity(/dNN).
func (k seriesKey) String() string {
	if k.depthCM >= 0 {
		return fmt.Sprintf("%s/%s/d%d", k.device, k.quantity, k.depthCM)
	}
	return string(k.device) + "/" + string(k.quantity)
}

// Ingest accepts a batch from the local sensor plane: it refreshes the
// local view, enqueues the batch for the cloud and wakes the drain
// goroutine. It never waits for the backhaul, so a caller on a context
// dispatcher is held for the enqueue only; the local view is current when
// Ingest returns, the cloud's once a Flush has. Invalid readings are
// skipped-and-counted (`fog.ingest.invalid`) rather than failing the batch —
// one poisoned reading must not discard its valid batchmates, mirroring the
// cloud ingestor's behaviour.
//
// Ingest takes ownership of batch: the node queues it as it is, with the
// invalid readings compacted out in place, so the caller hands over a
// slice it built for the call and never touches it again.
func (n *Node) Ingest(batch []model.Reading) error {
	valid := batch[:0]
	for _, r := range batch {
		if r.Validate() == nil {
			valid = append(valid, r)
		}
	}
	if invalid := len(batch) - len(valid); invalid > 0 {
		clear(batch[len(valid):])
		n.cInvalid.Add(uint64(invalid))
	}
	if len(valid) == 0 {
		return nil
	}

	n.mu.Lock()
	for _, r := range valid {
		key := keyOf(r)
		if cur, ok := n.latest[key]; !ok || r.At.After(cur.At) {
			n.latest[key] = r
		}
	}
	n.stats.Ingested += uint64(len(valid))
	if n.queue.len() >= n.cfg.QueueCap {
		n.queue.popFront()
		n.droppedLocked(1)
	}
	n.queue.pushBack(valid)
	n.mu.Unlock()
	n.cIngested.Add(uint64(len(valid)))

	select {
	case n.wake <- struct{}{}:
	default: // a wake-up is already pending; its Flush will see this batch
	}
	return nil
}

// droppedLocked counts k batches shed from the queue over its capacity.
func (n *Node) droppedLocked(k int) {
	n.stats.Dropped += uint64(k)
	n.cDropped.Add(uint64(k))
}

// Flush drains the queue through the uplink until it empties or the uplink
// fails (partition), coalescing up to MaxBatchesPerTrip queued batches per
// uplink call. It is the synchronous barrier: it waits for the drain
// goroutine's trip in progress, and when it returns while online every
// batch ingested before the call has reached the uplink. It returns how
// many ingested batches this call forwarded.
func (n *Node) Flush() int {
	n.flushMu.Lock()
	defer n.flushMu.Unlock()
	sent := 0
	for {
		n.mu.Lock()
		k := min(n.queue.len(), n.cfg.MaxBatchesPerTrip)
		if k == 0 {
			n.mu.Unlock()
			return sent
		}
		// Pop the head now; flushMu makes us the only consumer. On uplink
		// failure the head is pushed back, subject to the queue cap.
		for range k {
			n.head = append(n.head, n.queue.popFront())
		}
		n.inflight = k
		n.mu.Unlock()

		payload := n.head[0]
		if k > 1 {
			for _, b := range n.head {
				n.merged = append(n.merged, b...)
			}
			payload = n.merged
		}
		err := n.cfg.Uplink(payload)
		clear(n.merged)
		n.merged = n.merged[:0]

		n.mu.Lock()
		n.inflight = 0
		n.online = err == nil
		if err != nil {
			// Newest first, so that at the cap the oldest are shed.
			for i := k - 1; i >= 0; i-- {
				if n.queue.len() >= n.cfg.QueueCap {
					n.droppedLocked(i + 1)
					break
				}
				n.queue.pushFront(n.head[i])
			}
		} else {
			n.stats.Forwarded += uint64(len(payload))
		}
		n.mu.Unlock()
		clear(n.head)
		n.head = n.head[:0]
		if err != nil {
			n.cTripFail.Inc()
			return sent
		}
		n.cTripOK.Inc()
		n.cTripBatches.Add(uint64(k))
		sent += k
	}
}

// ring is the store-and-forward queue: batches, oldest first, in a
// circular array that doubles when full. Popped slots are cleared, so the
// array pins no batch that has left the queue.
type ring struct {
	buf     [][]model.Reading
	head, n int
}

func (q *ring) len() int { return q.n }

// at returns the i-th oldest batch.
func (q *ring) at(i int) []model.Reading { return q.buf[(q.head+i)%len(q.buf)] }

func (q *ring) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([][]model.Reading, max(2*len(q.buf), 16))
	for i := range q.n {
		buf[i] = q.at(i)
	}
	q.buf, q.head = buf, 0
}

func (q *ring) pushBack(b []model.Reading) {
	q.grow()
	q.buf[(q.head+q.n)%len(q.buf)] = b
	q.n++
}

func (q *ring) pushFront(b []model.Reading) {
	q.grow()
	q.head = (q.head + len(q.buf) - 1) % len(q.buf)
	q.buf[q.head] = b
	q.n++
}

func (q *ring) popFront() []model.Reading {
	b := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return b
}

// Online reports the node's last-known backhaul state.
func (n *Node) Online() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.online
}

// Latest returns a copy of the node's freshest reading per series.
func (n *Node) Latest() map[string]model.Reading {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]model.Reading, len(n.latest))
	for k, v := range n.latest {
		out[k.String()] = v
	}
	return out
}

// RunDecision executes the local decision function against the current
// view and applies the resulting commands to local actuators. It works
// identically online and offline — that is the availability story.
func (n *Node) RunDecision(at time.Time) ([]model.Command, error) {
	if n.cfg.Decide == nil {
		return nil, errors.New("fog: no decision function configured")
	}
	cmds := n.cfg.Decide(n.Latest(), at)
	n.mu.Lock()
	n.stats.Decisions++
	n.mu.Unlock()
	n.reg.Counter("fog.decisions").Inc()
	for _, c := range cmds {
		if err := n.cfg.Commands(c); err != nil {
			n.mu.Lock()
			n.stats.CmdErrors++
			n.mu.Unlock()
			n.reg.Counter("fog.cmd.err").Inc()
			return cmds, fmt.Errorf("fog: applying %s to %s: %w", c.Name, c.Target, err)
		}
	}
	return cmds, nil
}

// Stats returns a snapshot of the node's counters. Buffered counts every
// batch not yet forwarded or dropped, including those on a trip in progress.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.stats
	st.Buffered = n.queue.len() + n.inflight
	return st
}
