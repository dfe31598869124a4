package anomaly

import (
	"math"
	"sync"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/model"
)

// EngineConfig assembles the detection stack. The per-series deviation
// and stuck detectors take no configuration: their thresholds are the
// constants in detectors.go.
type EngineConfig struct {
	Rate        RateConfig
	Consistency ConsistencyConfig
	Sybil       SybilConfig
	// Sink receives every alert, after the engine has released its locks,
	// so it may call back into the engine; nil discards alerts.
	Sink Sink
	// Metrics receives counters; nil allocates a private registry.
	Metrics *metrics.Registry
}

// maxLog is how many alerts Recent keeps.
const maxLog = 4096

// Engine is the package's one entry point: it runs every detector over
// platform telemetry and funnels their alerts into one sink with per-kind
// counters. A SWAMP deployment attaches it to its broker Tap (OnMessage)
// and its context notifications (OnReading).
//
// A reading takes one lock, mu, which guards the per-series records, the
// consistency populations, the per-device records and the alert log. The
// broker tap takes only rateMu, so publishes are not serialised behind
// readings; an alert it raises takes mu afterwards, to be logged.
type Engine struct {
	rate        RateConfig
	interval    time.Duration // Window / rateBuckets, the span of one rate counter
	consistency ConsistencyConfig
	sybil       SybilConfig

	sink    Sink
	reg     *metrics.Registry
	alerts  map[string]*metrics.Counter // anomaly.alerts.<kind>, by kind
	invalid *metrics.Counter

	mu      sync.Mutex
	series  map[series]*seriesState
	pops    map[string]*population // by quantity
	devices map[string]*device
	recent  []Alert // the last maxLog alerts; a ring once full
	head    int     // index of the oldest alert in recent

	rateMu  sync.Mutex
	clients map[string]*rateRing
}

// NewEngine builds the full stack.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Sink == nil {
		cfg.Sink = func(Alert) {}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	cfg.Rate.defaults()
	cfg.Consistency.defaults()
	cfg.Sybil.defaults()
	e := &Engine{
		rate:        cfg.Rate,
		interval:    max(cfg.Rate.Window/rateBuckets, 1),
		consistency: cfg.Consistency,
		sybil:       cfg.Sybil,
		sink:        cfg.Sink,
		reg:         cfg.Metrics,
		alerts:      make(map[string]*metrics.Counter),
		invalid:     cfg.Metrics.Counter("anomaly.reading.invalid"),
		series:      make(map[series]*seriesState),
		pops:        make(map[string]*population),
		devices:     make(map[string]*device),
		clients:     make(map[string]*rateRing),
	}
	for _, kind := range []string{"dos", "deviation", "stuck", "consistency", "sybil"} {
		e.alerts[kind] = cfg.Metrics.Counter("anomaly.alerts." + kind)
	}
	return e
}

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// OnMessage is wired to the MQTT broker Tap: every publish counts toward
// the client's rate.
func (e *Engine) OnMessage(clientID, topic string, payload []byte, at time.Time) {
	e.rateMu.Lock()
	a, ok := e.observeRate(clientID, at)
	e.rateMu.Unlock()
	if ok {
		e.emit(a)
	}
}

// OnReading is fed every decoded northbound reading. A non-finite value
// is dropped before any detector sees it: one NaN would turn a series' EWMA
// baseline into NaN for good, and no later sample could alarm against it.
func (e *Engine) OnReading(r model.Reading) {
	if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
		e.invalid.Inc()
		return
	}
	var buf [3]Alert
	e.mu.Lock()
	alerts := e.observeSeries(buf[:0], series{string(r.Device), string(r.Quantity)}, r.Value, r.At)
	dev := e.devices[string(r.Device)]
	if dev == nil {
		dev = &device{firstSeen: r.At}
		e.devices[string(r.Device)] = dev
	}
	if a, ok := e.observeConsistency(dev, string(r.Device), string(r.Quantity), r.Value, r.At); ok {
		alerts = append(alerts, a)
	}
	dev.observe(r.Value)
	e.logLocked(alerts)
	e.mu.Unlock()
	for _, a := range alerts {
		e.sink(a)
	}
}

// ScanSybil runs a Sybil clustering pass over the devices' recent values;
// the platform calls it once per farm day.
func (e *Engine) ScanSybil(now time.Time) {
	e.mu.Lock()
	alerts := e.scanSybilLocked(now)
	e.mu.Unlock()
	e.emit(alerts...)
}

// emit logs alerts and hands them to the sink.
func (e *Engine) emit(alerts ...Alert) {
	e.mu.Lock()
	e.logLocked(alerts)
	e.mu.Unlock()
	for _, a := range alerts {
		e.sink(a)
	}
}

// logLocked counts alerts by kind and appends them to the alert log; e.mu
// must be held.
func (e *Engine) logLocked(alerts []Alert) {
	for _, a := range alerts {
		e.alerts[a.Kind].Inc()
		if len(e.recent) < maxLog {
			e.recent = append(e.recent, a)
		} else {
			e.recent[e.head] = a
			e.head = (e.head + 1) % maxLog
		}
	}
}

// Recent returns a copy of the last 4 096 alerts, oldest first.
func (e *Engine) Recent() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.recent))
	out = append(out, e.recent[e.head:]...)
	return append(out, e.recent[:e.head]...)
}

// CountByKind returns how many alerts of each kind the engine has raised,
// read from its anomaly.alerts.<kind> counters; kinds never raised are
// absent.
func (e *Engine) CountByKind() map[string]int {
	out := make(map[string]int)
	for kind, c := range e.alerts {
		if n := c.Value(); n > 0 {
			out[kind] = int(n)
		}
	}
	return out
}
