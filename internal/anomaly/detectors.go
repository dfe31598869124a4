// Package anomaly implements the SWAMP security-analytics layer the paper
// calls its most relevant challenge (§III): building a behavioral baseline
// of "what the application normally does" so that attacks — DoS floods,
// tampered sensor values, stuck or fake devices, Sybil swarms — can be
// separated from normal agricultural behaviour, even though the platform
// only ever has a partial view of the environment.
//
// The package is transport-agnostic: the platform feeds its one Engine
// broker traffic (OnMessage) and decoded readings (OnReading), and the
// engine emits Alerts through a Sink.
package anomaly

import (
	"fmt"
	"math"
	"time"
)

// Alert is one detection event.
type Alert struct {
	At     time.Time
	Kind   string // "dos", "deviation", "stuck", "consistency", "sybil"
	Device string
	Score  float64 // detector-specific magnitude (z-score, rate ratio, …)
	Detail string
}

// Sink consumes alerts. Sinks must be fast; heavy work belongs elsewhere.
type Sink func(Alert)

// series names one device's quantity: the key of per-series detector
// state. It is built from the strings a reading already holds, so keying
// a map by it allocates nothing.
type series struct {
	device, quantity string
}

// String renders the series as an alert names it: device/quantity.
func (s series) String() string { return s.device + "/" + s.quantity }

// The per-series detectors' thresholds.
const (
	ewmaAlpha  = 0.05 // EWMA smoothing factor
	ewmaK      = 4    // z-score alarm threshold
	ewmaWarmup = 20   // samples learned before alarming

	stuckRepeats = 12   // consecutive identical samples that trip the alarm
	stuckEpsilon = 1e-9 // equality tolerance
)

// seriesState is what the engine learns of one series: an exponentially
// weighted mean and variance, which flag samples whose z-score exceeds
// ewmaK (a tampered, biased or spiking value against the sensor's own
// baseline), and the current run of repeated values, which flags a series
// stuck at one value (a failed or tampered-to-constant sensor that would
// silently freeze irrigation decisions).
type seriesState struct {
	mean, variance float64
	n              int

	last    float64
	repeats int
	alerted bool // the current stuck run has alerted
}

// observeSeries feeds one sample to its series and appends any deviation
// or stuck alert to dst. The sample still updates the baseline (slowly, by
// alpha), so a persistent attacker shifts it only gradually. e.mu must be
// held.
func (e *Engine) observeSeries(dst []Alert, key series, v float64, at time.Time) []Alert {
	st := e.series[key]
	if st == nil {
		e.series[key] = &seriesState{mean: v, n: 1, last: v, repeats: 1}
		return dst
	}
	st.n++
	if st.n > ewmaWarmup {
		sd := math.Sqrt(st.variance)
		if sd < 1e-9 {
			sd = 1e-9
		}
		if z := math.Abs(v-st.mean) / sd; z > ewmaK {
			dst = append(dst, Alert{
				At: at, Kind: "deviation", Device: key.String(), Score: z,
				Detail: fmt.Sprintf("value %.4g vs baseline %.4g±%.4g", v, st.mean, sd),
			})
		}
	}
	diff := v - st.mean
	incr := ewmaAlpha * diff
	st.mean += incr
	st.variance = (1 - ewmaAlpha) * (st.variance + diff*incr)

	if math.Abs(v-st.last) <= stuckEpsilon {
		st.repeats++
	} else {
		st.last = v
		st.repeats = 1
		st.alerted = false
	}
	if st.repeats >= stuckRepeats && !st.alerted {
		st.alerted = true
		dst = append(dst, Alert{
			At: at, Kind: "stuck", Device: key.String(), Score: float64(st.repeats),
			Detail: fmt.Sprintf("value %.4g repeated %d times", v, st.repeats),
		})
	}
	return dst
}

// RateConfig tunes the DoS detector.
type RateConfig struct {
	// Window is the sliding measurement window (default 10s). It is also
	// the per-client quiet time between two alerts.
	Window time.Duration
	// LimitPerSec is the per-client alarm rate (default 10 msgs/s).
	LimitPerSec float64
}

func (c *RateConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.LimitPerSec <= 0 {
		c.LimitPerSec = 10
	}
}

// rateBuckets is how many interval counters a client's window holds; a
// power of two, so a negative interval index maps to a slot too.
const rateBuckets = 16

// rateRing counts one client's arrivals over the rate window in
// rateBuckets counters, each spanning one interval of Window/rateBuckets:
// the arrivals of interval i sit in counts[i mod rateBuckets] while i is
// one of the rateBuckets newest intervals. An arrival therefore counts for
// at least Window − Window/rateBuckets and never past Window, and a
// client's memory does not grow with its rate.
type rateRing struct {
	counts    [rateBuckets]int
	head      int64 // the newest interval seen
	total     int   // the sum of counts
	lastAlert time.Time
}

// observeRate records one message arrival for client and reports an alert
// when the client's windowed rate is excessive — the §III DoS-on-the-broker
// scenario. e.rateMu must be held.
func (e *Engine) observeRate(client string, at time.Time) (Alert, bool) {
	i := at.UnixNano() / int64(e.interval)
	r := e.clients[client]
	if r == nil {
		r = &rateRing{head: i}
		e.clients[client] = r
	}
	if i > r.head {
		// Intervals head+1 … i start empty; rateBuckets of them clear all.
		for j := r.head + 1; j <= i && j <= r.head+rateBuckets; j++ {
			r.total -= r.counts[j&(rateBuckets-1)]
			r.counts[j&(rateBuckets-1)] = 0
		}
		r.head = i
	}
	if r.head-i < rateBuckets { // an arrival older than the window counts for nothing
		r.counts[i&(rateBuckets-1)]++
		r.total++
	}
	rate := float64(r.total) / e.rate.Window.Seconds()
	if rate <= e.rate.LimitPerSec || at.Sub(r.lastAlert) < e.rate.Window {
		return Alert{}, false
	}
	r.lastAlert = at
	return Alert{
		At: at, Kind: "dos", Device: client, Score: rate / e.rate.LimitPerSec,
		Detail: fmt.Sprintf("%.1f msg/s over %v (limit %.1f)", rate, e.rate.Window, e.rate.LimitPerSec),
	}, true
}
