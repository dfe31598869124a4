// Package anomaly implements the SWAMP security-analytics layer the paper
// calls its most relevant challenge (§III): building a behavioral baseline
// of "what the application normally does" so that attacks — DoS floods,
// tampered sensor values, stuck or fake devices, Sybil swarms, rogue
// command sequences — can be separated from normal agricultural behaviour,
// even though the platform only ever has a partial view of the environment.
//
// The package is transport-agnostic: the platform feeds it broker traffic
// (Engine.OnMessage) and decoded readings (Engine.OnReading), and detectors
// emit Alerts through a Sink.
package anomaly

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Alert is one detection event.
type Alert struct {
	At     time.Time
	Kind   string // "dos", "deviation", "stuck", "consistency", "sybil", "sequence"
	Device string
	Score  float64 // detector-specific magnitude (z-score, rate ratio, …)
	Detail string
}

// Sink consumes alerts. Sinks must be fast; heavy work belongs elsewhere.
type Sink func(Alert)

// Series names one device's quantity: the key of per-series detector
// state. It is built from the strings a reading already holds, so keying
// a map by it allocates nothing.
type Series struct {
	Device, Quantity string
}

// String renders the series as an alert names it: device/quantity.
func (s Series) String() string { return s.Device + "/" + s.Quantity }

// EWMAConfig tunes the per-series deviation detector.
type EWMAConfig struct {
	// Alpha is the EWMA smoothing factor (default 0.05).
	Alpha float64
	// K is the z-score alarm threshold (default 4).
	K float64
	// Warmup is how many samples to learn before alarming (default 20).
	Warmup int
}

func (c *EWMAConfig) defaults() {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = 0.05
	}
	if c.K <= 0 {
		c.K = 4
	}
	if c.Warmup <= 0 {
		c.Warmup = 20
	}
}

// EWMADetector keeps an exponentially weighted mean/variance per series and
// flags samples whose z-score exceeds K — the workhorse for detecting
// tampered (biased or spiking) sensor values against each sensor's own
// baseline.
type EWMADetector struct {
	cfg EWMAConfig

	mu     sync.Mutex
	states map[Series]*ewmaState
}

type ewmaState struct {
	mean, variance float64
	n              int
}

// NewEWMADetector builds a detector.
func NewEWMADetector(cfg EWMAConfig) *EWMADetector {
	cfg.defaults()
	return &EWMADetector{cfg: cfg, states: make(map[Series]*ewmaState)}
}

// Observe feeds one sample; it returns a non-nil alert when the sample
// deviates. The sample still updates the baseline (slowly, by alpha), so a
// persistent attacker shifts the baseline only gradually.
func (d *EWMADetector) Observe(series Series, v float64, at time.Time) *Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.states[series]
	if st == nil {
		st = &ewmaState{mean: v, variance: 0}
		d.states[series] = st
		st.n = 1
		return nil
	}
	st.n++
	var alert *Alert
	if st.n > d.cfg.Warmup {
		sd := math.Sqrt(st.variance)
		if sd < 1e-9 {
			sd = 1e-9
		}
		z := math.Abs(v-st.mean) / sd
		if z > d.cfg.K {
			alert = &Alert{
				At: at, Kind: "deviation", Device: series.String(), Score: z,
				Detail: fmt.Sprintf("value %.4g vs baseline %.4g±%.4g", v, st.mean, sd),
			}
		}
	}
	diff := v - st.mean
	incr := d.cfg.Alpha * diff
	st.mean += incr
	st.variance = (1 - d.cfg.Alpha) * (st.variance + diff*incr)
	return alert
}

// Baseline returns the learned (mean, stddev, samples) for a series.
func (d *EWMADetector) Baseline(series Series) (mean, sd float64, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.states[series]
	if st == nil {
		return 0, 0, 0
	}
	return st.mean, math.Sqrt(st.variance), st.n
}

// RateConfig tunes the DoS detector.
type RateConfig struct {
	// Window is the sliding measurement window (default 10s).
	Window time.Duration
	// LimitPerSec is the per-client alarm rate (default 10 msgs/s).
	LimitPerSec float64
	// Cooldown suppresses repeat alerts per client (default = Window).
	Cooldown time.Duration
}

func (c *RateConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.LimitPerSec <= 0 {
		c.LimitPerSec = 10
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Window
	}
}

// RateDetector counts per-client messages in a sliding window and alarms
// when the rate exceeds the limit — the §III DoS-on-the-broker scenario.
type RateDetector struct {
	cfg RateConfig

	mu      sync.Mutex
	buckets map[string]*rateBucket
}

type rateBucket struct {
	// times holds the arrival times, in arrival order, from times[start]
	// on within the window. Expired ones are compacted away once they are
	// half the slice, so the array is reused rather than regrown.
	times     []time.Time
	start     int
	lastAlert time.Time
}

// NewRateDetector builds a detector.
func NewRateDetector(cfg RateConfig) *RateDetector {
	cfg.defaults()
	return &RateDetector{cfg: cfg, buckets: make(map[string]*rateBucket)}
}

// Observe records one message arrival for client and reports an alert when
// the client's windowed rate is excessive.
func (d *RateDetector) Observe(client string, at time.Time) *Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.buckets[client]
	if b == nil {
		b = &rateBucket{}
		d.buckets[client] = b
	}
	cutoff := at.Add(-d.cfg.Window)
	for b.start < len(b.times) && b.times[b.start].Before(cutoff) {
		b.start++
	}
	if b.start > len(b.times)/2 {
		b.times = b.times[:copy(b.times, b.times[b.start:])]
		b.start = 0
	}
	b.times = append(b.times, at)
	rate := float64(len(b.times)-b.start) / d.cfg.Window.Seconds()
	if rate > d.cfg.LimitPerSec && at.Sub(b.lastAlert) >= d.cfg.Cooldown {
		b.lastAlert = at
		return &Alert{
			At: at, Kind: "dos", Device: client, Score: rate / d.cfg.LimitPerSec,
			Detail: fmt.Sprintf("%.1f msg/s over %v (limit %.1f)", rate, d.cfg.Window, d.cfg.LimitPerSec),
		}
	}
	return nil
}

// Rate returns the client's current windowed rate, for dashboards.
func (d *RateDetector) Rate(client string, now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.buckets[client]
	if b == nil {
		return 0
	}
	cutoff := now.Add(-d.cfg.Window)
	n := 0
	for _, t := range b.times[b.start:] {
		if !t.Before(cutoff) {
			n++
		}
	}
	return float64(n) / d.cfg.Window.Seconds()
}

// StuckConfig tunes the stuck-sensor detector.
type StuckConfig struct {
	// Window is how many consecutive identical samples trip the alarm
	// (default 12).
	Window int
	// Epsilon is the equality tolerance (default 1e-9).
	Epsilon float64
}

func (c *StuckConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 12
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-9
	}
}

// StuckDetector flags series that repeat the same value — a failed or
// tampered-to-constant sensor that would silently freeze irrigation
// decisions.
type StuckDetector struct {
	cfg StuckConfig

	mu     sync.Mutex
	states map[Series]*stuckState
}

type stuckState struct {
	last    float64
	repeats int
	alerted bool
}

// NewStuckDetector builds a detector.
func NewStuckDetector(cfg StuckConfig) *StuckDetector {
	cfg.defaults()
	return &StuckDetector{cfg: cfg, states: make(map[Series]*stuckState)}
}

// Observe feeds one sample; it alarms once per stuck episode.
func (d *StuckDetector) Observe(series Series, v float64, at time.Time) *Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.states[series]
	if st == nil {
		d.states[series] = &stuckState{last: v, repeats: 1}
		return nil
	}
	if math.Abs(v-st.last) <= d.cfg.Epsilon {
		st.repeats++
	} else {
		st.last = v
		st.repeats = 1
		st.alerted = false
	}
	if st.repeats >= d.cfg.Window && !st.alerted {
		st.alerted = true
		return &Alert{
			At: at, Kind: "stuck", Device: series.String(), Score: float64(st.repeats),
			Detail: fmt.Sprintf("value %.4g repeated %d times", v, st.repeats),
		}
	}
	return nil
}
