package anomaly

import (
	"math"
	"sync"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/model"
)

// EngineConfig assembles the detection stack.
type EngineConfig struct {
	EWMA        EWMAConfig
	Rate        RateConfig
	Stuck       StuckConfig
	Consistency ConsistencyConfig
	Sybil       SybilConfig
	// Sink receives every alert; required.
	Sink Sink
	// Metrics receives counters; nil allocates a private registry.
	Metrics *metrics.Registry
}

// Engine fans platform telemetry into all detectors and funnels their
// alerts into one sink with per-kind counters. It is the component a SWAMP
// deployment attaches to its broker Tap and its context notifications.
type Engine struct {
	ewma    *EWMADetector
	rate    *RateDetector
	stuck   *StuckDetector
	consist *ConsistencyDetector
	sybil   *SybilDetector
	seq     *SequenceProfiler

	sink Sink
	reg  *metrics.Registry

	mu     sync.Mutex
	recent []Alert // the last maxLog alerts; a ring once full
	head   int     // index of the oldest alert in recent
	maxLog int
}

// NewEngine builds the full stack.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Sink == nil {
		cfg.Sink = func(Alert) {}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	e := &Engine{
		ewma:    NewEWMADetector(cfg.EWMA),
		rate:    NewRateDetector(cfg.Rate),
		stuck:   NewStuckDetector(cfg.Stuck),
		consist: NewConsistencyDetector(cfg.Consistency),
		sybil:   NewSybilDetector(cfg.Sybil),
		seq:     NewSequenceProfiler(),
		sink:    cfg.Sink,
		reg:     cfg.Metrics,
		maxLog:  4096,
	}
	return e
}

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Sybil exposes the Sybil detector (for Flagged lookups).
func (e *Engine) Sybil() *SybilDetector { return e.sybil }

// Rate exposes the rate detector (for dashboard rates).
func (e *Engine) Rate() *RateDetector { return e.rate }

// EWMA exposes the deviation detector (for baseline inspection).
func (e *Engine) EWMA() *EWMADetector { return e.ewma }

// OnMessage is wired to the MQTT broker Tap: every publish counts toward
// the client's rate.
func (e *Engine) OnMessage(clientID, topic string, payload []byte, at time.Time) {
	if a := e.rate.Observe(clientID, at); a != nil {
		e.emit(*a)
	}
}

// OnReading is fed every decoded northbound reading. A non-finite value
// is dropped before any detector sees it: one NaN would turn a series' EWMA
// baseline into NaN for good, and no later sample could alarm against it.
func (e *Engine) OnReading(r model.Reading) {
	if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
		e.reg.Counter("anomaly.reading.invalid").Inc()
		return
	}
	series := Series{Device: string(r.Device), Quantity: string(r.Quantity)}
	if a := e.ewma.Observe(series, r.Value, r.At); a != nil {
		e.emit(*a)
	}
	if a := e.stuck.Observe(series, r.Value, r.At); a != nil {
		e.emit(*a)
	}
	if a := e.consist.Observe(string(r.Device), string(r.Quantity), r.Value, r.At); a != nil {
		e.emit(*a)
	}
	e.sybil.Observe(string(r.Device), r.Value, r.At)
}

// OnEvent feeds one decision-loop event to the sequence profiler.
func (e *Engine) OnEvent(context, event string, at time.Time) {
	if a := e.seq.Observe(context, event, at); a != nil {
		e.emit(*a)
	}
}

// ScanSybil runs a Sybil clustering pass; call periodically.
func (e *Engine) ScanSybil(now time.Time) {
	for _, a := range e.sybil.Scan(now) {
		e.emit(a)
	}
}

func (e *Engine) emit(a Alert) {
	e.reg.Counter("anomaly.alerts." + a.Kind).Inc()
	e.mu.Lock()
	if len(e.recent) < e.maxLog {
		e.recent = append(e.recent, a)
	} else {
		e.recent[e.head] = a
		e.head = (e.head + 1) % e.maxLog
	}
	e.mu.Unlock()
	e.sink(a)
}

// Recent returns a copy of recent alerts, oldest first.
func (e *Engine) Recent() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.recent))
	out = append(out, e.recent[e.head:]...)
	return append(out, e.recent[:e.head]...)
}

// CountByKind summarises alert counts per kind.
func (e *Engine) CountByKind() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int)
	for _, a := range e.recent {
		out[a.Kind]++
	}
	return out
}
