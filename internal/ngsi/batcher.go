package ngsi

import (
	"errors"
	"maps"
	"sync"

	"github.com/swamp-project/swamp/internal/metrics"
)

// FlushStats describes one Batcher flush.
type FlushStats struct {
	// Entities is the number of distinct entities in the flushed batch.
	Entities int
	// Updates is the number of Add calls coalesced into the batch (≥
	// Entities when several updates hit the same entity between two
	// flushes).
	Updates int
	// Err is the BatchUpdate error, nil on success.
	Err error
}

// BatcherConfig configures a Batcher.
type BatcherConfig struct {
	// Writer receives the flushed batches (required).
	Writer Writer
	// MaxEntities is the back-pressure bound: the Add that brings this many
	// distinct entities pending (default 256) flushes on its own goroutine,
	// waiting out the flush in progress, which bounds both memory and
	// notification delay under burst load.
	MaxEntities int
	// OnFlush, if non-nil, observes every flush (including failed ones).
	// It runs on the flusher goroutine or inside Add/Close; keep it cheap.
	OnFlush func(FlushStats)
	// Metrics receives batcher counters; nil allocates a private registry.
	Metrics *metrics.Registry
}

// Batcher coalesces per-entity attribute updates and flushes them to its
// writer as BatchUpdate calls — the ingest path the IoT agent's MQTT
// northbound uses. There is no timer: Add wakes the flusher goroutine, which
// runs one flush per wake-up, so an update on an idle batcher reaches the
// writer at once and a busy one ships whatever arrived while the previous
// flush (BatchUpdate and its journal commit) was in progress. Within one
// batch, later updates to the same attribute overwrite earlier ones
// (last-write-wins, the same outcome sequential UpdateAttrs calls produce)
// and the entity still gets exactly one notification per changed-attribute
// set.
//
// Construct with NewBatcher; call Close to flush the tail and stop the
// flusher goroutine.
type Batcher struct {
	cfg BatcherConfig

	// flushMu serializes flushes end to end (swap + BatchUpdate). Without
	// it, two concurrent flushers could apply their swapped-out batches in
	// the wrong order and an older value would overwrite a newer one. It
	// also guards the flusher's scratch: spare, the emptied map the last
	// flush shipped, which the next swaps in for pending, and order, the
	// broker's apply order.
	flushMu sync.Mutex
	spare   map[string]BatchEntry
	order   []batchKey

	mu      sync.Mutex
	pending map[string]BatchEntry
	updates int
	closed  bool

	wake chan struct{} // Add → flusher: pending is non-empty
	stop chan struct{}
	done chan struct{} // closed when the flusher has exited

	cFlush, cUpdates, cEntities, cAdded *metrics.Counter
	gPending                            *metrics.Gauge
}

// NewBatcher validates the config and starts the flusher goroutine.
func NewBatcher(cfg BatcherConfig) (*Batcher, error) {
	if cfg.Writer == nil {
		return nil, errors.New("ngsi: batcher requires a writer")
	}
	if cfg.MaxEntities <= 0 {
		cfg.MaxEntities = 256
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	ba := &Batcher{
		cfg:       cfg,
		pending:   make(map[string]BatchEntry),
		spare:     make(map[string]BatchEntry),
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		cFlush:    cfg.Metrics.Counter("ngsi.batcher.flushes"),
		cUpdates:  cfg.Metrics.Counter("ngsi.batcher.updates"),
		cEntities: cfg.Metrics.Counter("ngsi.batcher.entities"),
		cAdded:    cfg.Metrics.Counter("ngsi.batcher.added"),
		gPending:  cfg.Metrics.Gauge("ngsi.batcher.pending"),
	}
	go ba.loop()
	return ba, nil
}

// loop is the flusher: one Flush per wake-up, so the wait for a flush's
// journal commit is the window the next batch accumulates in.
func (ba *Batcher) loop() {
	defer close(ba.done)
	for {
		select {
		case <-ba.stop:
			return
		case <-ba.wake:
			ba.Flush()
		}
	}
}

// Add buffers one entity update and wakes the flusher. The map and its
// values belong to the batcher after Add — over a Local writer they reach
// the stored version uncopied — so the caller builds a map per call and never touches it, or a
// Metadata map or tree Value in it, again (see Attribute; one immutable
// Metadata map may serve every call). Add normally returns without touching
// the writer, but the Add that brings MaxEntities distinct entities pending
// flushes synchronously (running BatchUpdate, and OnFlush, on its goroutine).
func (ba *Batcher) Add(id, typ string, attrs map[string]Attribute) error {
	if err := validateEntityKey(id, typ); err != nil {
		return err
	}
	if len(attrs) == 0 {
		return errors.New("ngsi: batcher: empty attribute update")
	}
	ba.mu.Lock()
	if ba.closed {
		ba.mu.Unlock()
		return ErrClosed
	}
	if pe, ok := ba.pending[id]; ok {
		maps.Copy(pe.Attrs, attrs) // an earlier Add's map, the batcher's own
	} else {
		ba.pending[id] = BatchEntry{Type: typ, Attrs: attrs}
	}
	ba.updates++
	full := len(ba.pending) >= ba.cfg.MaxEntities
	ba.gPending.Set(float64(len(ba.pending)))
	ba.cAdded.Inc()
	ba.mu.Unlock()
	if full {
		ba.Flush()
		return nil
	}
	select {
	case ba.wake <- struct{}{}:
	default: // a wake-up is already pending; its Flush will see this update
	}
	return nil
}

// Flush pushes everything pending to the writer now and returns the number
// of entities flushed. Safe to call concurrently with Add and other
// flushers; concurrent flushes apply in order.
func (ba *Batcher) Flush() int {
	ba.flushMu.Lock()
	defer ba.flushMu.Unlock()
	ba.mu.Lock()
	if len(ba.pending) == 0 {
		ba.mu.Unlock()
		return 0
	}
	batch, updates := ba.pending, ba.updates
	ba.pending, ba.spare = ba.spare, nil
	ba.updates = 0
	ba.gPending.Set(0)
	ba.mu.Unlock()

	var err error
	if l, ok := ba.cfg.Writer.(Local); ok {
		err = l.batchUpdate(batch, true, &ba.order) // the stored versions keep the batch's attribute maps
	} else {
		err = ba.cfg.Writer.BatchUpdate(batch)
	}
	entities := len(batch)
	clear(batch) // a writer keeps nothing of the map itself
	ba.spare = batch
	ba.cFlush.Inc()
	ba.cUpdates.Add(uint64(updates))
	ba.cEntities.Add(uint64(entities))
	if ba.cfg.OnFlush != nil {
		ba.cfg.OnFlush(FlushStats{Entities: entities, Updates: updates, Err: err})
	}
	return entities
}

// Close stops the flusher and flushes the tail: every Add that returned nil
// has been flushed to the writer when Close returns. Further Adds return
// ErrClosed. Idempotent.
func (ba *Batcher) Close() {
	ba.mu.Lock()
	already := ba.closed
	ba.closed = true
	ba.mu.Unlock()
	if already {
		return
	}
	close(ba.stop)
	<-ba.done
	ba.Flush()
}
