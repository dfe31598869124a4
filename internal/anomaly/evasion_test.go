package anomaly

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/model"
)

// TestSlowPoisonEvadesEWMAButNotConsistency documents the layered-defense
// rationale: an attacker who drifts a sensor's value slower than the EWMA
// adaptation rate never trips the per-series baseline (the baseline drifts
// with the attack), but the cross-sensor consistency check still catches
// the sensor once it diverges from its honest peers. This is why the
// engine runs both.
func TestSlowPoisonEvadesEWMAButNotConsistency(t *testing.T) {
	ewma := NewEWMADetector(EWMAConfig{})
	consist := NewConsistencyDetector(ConsistencyConfig{MinPeers: 5, K: 5, MinSpread: 0.008})
	rng := rand.New(rand.NewSource(9))
	at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

	// Warm up both detectors with honest traffic.
	for k := 0; k < 100; k++ {
		v := 0.25 + rng.NormFloat64()*0.01
		if a := ewma.Observe("victim", v, at); a != nil {
			t.Fatalf("false positive during warmup: %+v", a)
		}
		for i := 0; i < 8; i++ {
			consist.Observe(fmt.Sprintf("p%d", i), "m", 0.25+rng.NormFloat64()*0.01, at)
		}
		consist.Observe("victim", "m", v, at)
		at = at.Add(time.Minute)
	}

	// Slow poison: +0.0005 per sample — far below the 4σ EWMA threshold at
	// every individual step.
	var ewmaAlert, consistAlert *Alert
	drift := 0.0
	for k := 0; k < 400; k++ {
		drift += 0.0005
		v := 0.25 + drift + rng.NormFloat64()*0.01
		if a := ewma.Observe("victim", v, at); a != nil && ewmaAlert == nil {
			ewmaAlert = a
		}
		for i := 0; i < 8; i++ {
			consist.Observe(fmt.Sprintf("p%d", i), "m", 0.25+rng.NormFloat64()*0.01, at)
		}
		if a := consist.Observe("victim", "m", v, at); a != nil && consistAlert == nil {
			consistAlert = a
		}
		at = at.Add(time.Minute)
	}
	if consistAlert == nil {
		t.Error("consistency layer missed the slow poison entirely")
	}
	// The point of the test is the contrast: consistency fires while the
	// drifted value is still early; EWMA may fire eventually but only
	// after the divergence is already large.
	if ewmaAlert != nil && consistAlert != nil && ewmaAlert.At.Before(consistAlert.At) {
		t.Errorf("EWMA (%v) beat consistency (%v) on a slow drift — unexpected ordering",
			ewmaAlert.At, consistAlert.At)
	}
}

// TestNaNDoesNotBlindEWMA: a NaN folded into a series' EWMA baseline turns
// its mean into NaN for good, after which no z-score compares above K and
// the tamper detector is silent on that series — one forged "m|NaN" payload
// would buy an attacker that. The engine drops non-finite values before any
// detector sees them.
func TestNaNDoesNotBlindEWMA(t *testing.T) {
	deviations := 0
	eng := NewEngine(EngineConfig{Sink: func(a Alert) {
		if a.Kind == "deviation" {
			deviations++
		}
	}})
	rng := rand.New(rand.NewSource(5))
	at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	feed := func(v float64) {
		at = at.Add(time.Minute)
		eng.OnReading(model.Reading{Device: "victim", Quantity: model.QSoilMoisture, Value: v, At: at})
	}
	for i := 0; i < 40; i++ {
		feed(0.25 + rng.NormFloat64()*0.01)
	}
	feed(5.0)
	if deviations != 1 {
		t.Fatalf("spike before the NaN raised %d deviation alerts, want 1", deviations)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		feed(v)
	}
	if got := eng.Metrics().Counter("anomaly.reading.invalid").Value(); got != 3 {
		t.Errorf("anomaly.reading.invalid = %d, want 3", got)
	}
	if mean, _, _ := eng.EWMA().Baseline("victim/" + string(model.QSoilMoisture)); math.IsNaN(mean) || math.IsInf(mean, 0) {
		t.Errorf("baseline mean is %v after non-finite readings", mean)
	}
	for v := 50.0; v < 100; v++ {
		feed(v)
	}
	if deviations < 2 {
		t.Error("no deviation alert on 50–99 after a NaN: the series' tamper detector is blind")
	}
}

// TestSequenceProfilerPerContext: contexts learn independent baselines.
func TestSequenceProfilerPerContext(t *testing.T) {
	p := NewSequenceProfiler()
	for i := 0; i < 5; i++ {
		p.Observe("zoneA", "plan", time.Now())
		p.Observe("zoneA", "command", time.Now())
		p.Observe("zoneB", "survey", time.Now())
		p.Observe("zoneB", "report", time.Now())
	}
	p.Seal()
	// zoneB's vocabulary is fine for zoneB...
	if a := p.Observe("zoneB", "survey", time.Now()); a != nil {
		t.Errorf("zoneB normal transition flagged: %+v", a)
	}
	// Transitions are global per (from,to) pair: "command" -> "survey" was
	// never learned anywhere, so a cross-vocabulary jump alerts.
	p.Observe("zoneA", "command", time.Now())
	if a := p.Observe("zoneA", "report", time.Now()); a == nil {
		t.Error("unlearned transition not flagged")
	}
}
