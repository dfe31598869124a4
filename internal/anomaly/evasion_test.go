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
	var ewmaAlert, consistAlert *Alert
	warm := true
	eng := NewEngine(EngineConfig{
		Consistency: ConsistencyConfig{MinPeers: 5, K: 5, MinSpread: 0.008},
		Sink: func(a Alert) {
			switch {
			case a.Kind == "deviation" && a.Device == "victim/m" && ewmaAlert == nil:
				if warm {
					t.Fatalf("false positive during warmup: %+v", a)
				}
				ewmaAlert = &a
			case a.Kind == "consistency" && a.Device == "victim" && consistAlert == nil && !warm:
				consistAlert = &a
			}
		},
	})
	rng := rand.New(rand.NewSource(9))
	at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	round := func(v float64) {
		for i := 0; i < 8; i++ {
			feed(eng, fmt.Sprintf("p%d", i), "m", 0.25+rng.NormFloat64()*0.01, at)
		}
		feed(eng, "victim", "m", v, at)
		at = at.Add(time.Minute)
	}

	// Warm up both detectors with honest traffic.
	for k := 0; k < 100; k++ {
		round(0.25 + rng.NormFloat64()*0.01)
	}

	// Slow poison: +0.0005 per sample — far below the 4σ EWMA threshold at
	// every individual step.
	warm = false
	drift := 0.0
	for k := 0; k < 400; k++ {
		drift += 0.0005
		round(0.25 + drift + rng.NormFloat64()*0.01)
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
	if mean := eng.series[series{"victim", string(model.QSoilMoisture)}].mean; math.IsNaN(mean) || math.IsInf(mean, 0) {
		t.Errorf("baseline mean is %v after non-finite readings", mean)
	}
	for v := 50.0; v < 100; v++ {
		feed(v)
	}
	if deviations < 2 {
		t.Error("no deviation alert on 50–99 after a NaN: the series' tamper detector is blind")
	}
}
