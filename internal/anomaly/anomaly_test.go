package anomaly

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/model"
)

var t0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

func TestEWMALearnsThenDetectsSpike(t *testing.T) {
	d := NewEWMADetector(EWMAConfig{})
	rng := rand.New(rand.NewSource(1))
	// Learn a noisy baseline around 0.25.
	for i := 0; i < 100; i++ {
		v := 0.25 + rng.NormFloat64()*0.01
		if a := d.Observe(Series{"s1", "m"}, v, t0.Add(time.Duration(i)*time.Minute)); a != nil {
			t.Fatalf("false positive during normal operation at %d: %+v", i, a)
		}
	}
	// A tampered value far off baseline must alert.
	a := d.Observe(Series{"s1", "m"}, 0.55, t0.Add(101*time.Minute))
	if a == nil {
		t.Fatal("spike not detected")
	}
	if a.Kind != "deviation" || a.Score < 4 {
		t.Errorf("alert = %+v", a)
	}
	mean, sd, n := d.Baseline(Series{"s1", "m"})
	if n != 101 || mean < 0.2 || mean > 0.3 || sd <= 0 {
		t.Errorf("baseline = %g ± %g over %d", mean, sd, n)
	}
}

func TestEWMAWarmupSuppression(t *testing.T) {
	d := NewEWMADetector(EWMAConfig{Warmup: 10})
	// Wild values during warmup must not alert.
	for i := 0; i < 10; i++ {
		if a := d.Observe(Series{"s", "m"}, float64(i*100), t0); a != nil {
			t.Fatalf("alert during warmup: %+v", a)
		}
	}
}

func TestEWMAIndependentSeries(t *testing.T) {
	d := NewEWMADetector(EWMAConfig{})
	for i := 0; i < 50; i++ {
		d.Observe(Series{"a", "m"}, 1.0, t0)
		d.Observe(Series{"b", "m"}, 100.0, t0)
	}
	// b's level is normal for b, even though far from a's baseline.
	if a := d.Observe(Series{"b", "m"}, 100.0, t0); a != nil {
		t.Errorf("cross-series contamination: %+v", a)
	}
}

func TestRateDetectorFlagsFlood(t *testing.T) {
	d := NewRateDetector(RateConfig{Window: 10 * time.Second, LimitPerSec: 5})
	// Normal device: 1 msg/s — no alert.
	for i := 0; i < 30; i++ {
		if a := d.Observe("dev", t0.Add(time.Duration(i)*time.Second)); a != nil {
			t.Fatalf("false positive at normal rate: %+v", a)
		}
	}
	// Flood: 100 msgs in one second.
	var alert *Alert
	floodStart := t0.Add(time.Minute)
	for i := 0; i < 100; i++ {
		if a := d.Observe("flooder", floodStart.Add(time.Duration(i)*10*time.Millisecond)); a != nil {
			alert = a
			break
		}
	}
	if alert == nil {
		t.Fatal("flood not detected")
	}
	if alert.Kind != "dos" || alert.Device != "flooder" {
		t.Errorf("alert = %+v", alert)
	}
}

func TestRateDetectorCooldown(t *testing.T) {
	d := NewRateDetector(RateConfig{Window: time.Second, LimitPerSec: 1, Cooldown: time.Minute})
	alerts := 0
	for i := 0; i < 1000; i++ {
		if a := d.Observe("f", t0.Add(time.Duration(i)*time.Millisecond)); a != nil {
			alerts++
		}
	}
	if alerts != 1 {
		t.Errorf("cooldown allowed %d alerts in one burst", alerts)
	}
}

func TestRateDetectorWindowSlides(t *testing.T) {
	d := NewRateDetector(RateConfig{Window: 10 * time.Second, LimitPerSec: 5})
	for i := 0; i < 80; i++ {
		d.Observe("dev", t0.Add(time.Duration(i)*125*time.Millisecond)) // 8/s for 10s
	}
	// After a long quiet gap the windowed rate must fall to ~0.
	if r := d.Rate("dev", t0.Add(time.Hour)); r != 0 {
		t.Errorf("rate after quiet hour = %g", r)
	}
}

func TestStuckDetector(t *testing.T) {
	d := NewStuckDetector(StuckConfig{Window: 5})
	var got *Alert
	for i := 0; i < 10; i++ {
		if a := d.Observe(Series{"s", "m"}, 0.42, t0.Add(time.Duration(i)*time.Minute)); a != nil {
			if got != nil {
				t.Fatal("stuck alerted twice for one episode")
			}
			got = a
		}
	}
	if got == nil || got.Kind != "stuck" {
		t.Fatalf("stuck not detected: %+v", got)
	}
	// Changing value resets the episode; a new freeze alerts again.
	d.Observe(Series{"s", "m"}, 0.43, t0)
	count := 0
	for i := 0; i < 10; i++ {
		if a := d.Observe(Series{"s", "m"}, 0.43, t0); a != nil {
			count++
		}
	}
	if count != 1 {
		t.Errorf("second episode alerts = %d, want 1", count)
	}
	// A healthy noisy series never alerts.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if a := d.Observe(Series{"healthy", "m"}, rng.Float64(), t0); a != nil {
			t.Fatalf("noisy series flagged stuck: %+v", a)
		}
	}
}

func TestConsistencyDetectorCrossChecks(t *testing.T) {
	d := NewConsistencyDetector(ConsistencyConfig{MinPeers: 4, K: 5})
	rng := rand.New(rand.NewSource(3))
	// Ten honest probes around 0.25.
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			dev := fmt.Sprintf("p%d", i)
			v := 0.25 + rng.NormFloat64()*0.01
			if a := d.Observe(dev, "soilMoisture", v, t0); a != nil {
				t.Fatalf("honest probe flagged: %+v", a)
			}
		}
	}
	// One probe starts lying smoothly (reads dry when field is wet).
	a := d.Observe("p3", "soilMoisture", 0.08, t0.Add(time.Hour))
	if a == nil {
		t.Fatal("lying probe not flagged against consensus")
	}
	if a.Kind != "consistency" || a.Device != "p3" {
		t.Errorf("alert = %+v", a)
	}
	if d.PeerCount("soilMoisture") != 10 {
		t.Errorf("peer count = %d", d.PeerCount("soilMoisture"))
	}
}

func TestConsistencyNeedsPeers(t *testing.T) {
	d := NewConsistencyDetector(ConsistencyConfig{MinPeers: 4})
	// With only two devices, the partial view forbids judgement.
	d.Observe("a", "q", 0.2, t0)
	d.Observe("b", "q", 0.2, t0)
	if a := d.Observe("a", "q", 99, t0); a != nil {
		t.Errorf("alerted with insufficient peers: %+v", a)
	}
}

func TestSybilDetectorFlagsClones(t *testing.T) {
	d := NewSybilDetector(SybilConfig{MinSamples: 5, MinClusterSize: 3})
	rng := rand.New(rand.NewSource(4))
	// Honest devices: same signal, independent noise.
	for i := 0; i < 6; i++ {
		dev := fmt.Sprintf("honest-%d", i)
		for k := 0; k < 10; k++ {
			d.Observe(dev, 0.3+rng.NormFloat64()*0.02, t0.Add(time.Duration(k)*time.Minute))
		}
	}
	// Sybil swarm: 4 identities, identical streams.
	for k := 0; k < 10; k++ {
		v := 0.3 + rng.NormFloat64()*0.02
		for i := 0; i < 4; i++ {
			d.Observe(fmt.Sprintf("sybil-%d", i), v, t0.Add(time.Duration(k)*time.Minute))
		}
	}
	alerts := d.Scan(t0.Add(time.Hour))
	if len(alerts) != 4 {
		t.Fatalf("alerts = %d, want the 4 sybil identities (%+v)", len(alerts), alerts)
	}
	for _, a := range alerts {
		if a.Kind != "sybil" || a.Device[:5] != "sybil" {
			t.Errorf("honest device flagged: %+v", a)
		}
	}
	if !d.Flagged("sybil-0") || d.Flagged("honest-0") {
		t.Error("flag state wrong")
	}
	// Second scan does not re-report.
	if again := d.Scan(t0.Add(2 * time.Hour)); len(again) != 0 {
		t.Errorf("rescan re-reported %d alerts", len(again))
	}
}

func TestSybilYoungWindowSeparates(t *testing.T) {
	d := NewSybilDetector(SybilConfig{MinSamples: 3, MinClusterSize: 2, YoungWindow: time.Minute})
	// Two identical streams, but first-seen an hour apart → not clustered.
	for k := 0; k < 5; k++ {
		d.Observe("old", 0.5, t0.Add(time.Duration(k)*time.Second))
	}
	for k := 0; k < 5; k++ {
		d.Observe("new", 0.5, t0.Add(time.Hour).Add(time.Duration(k)*time.Second))
	}
	if alerts := d.Scan(t0.Add(2 * time.Hour)); len(alerts) != 0 {
		t.Errorf("devices an hour apart clustered: %+v", alerts)
	}
}

func TestSequenceProfiler(t *testing.T) {
	p := NewSequenceProfiler()
	// Learn the normal irrigation loop.
	for i := 0; i < 10; i++ {
		p.Observe("zone1", "plan", t0)
		p.Observe("zone1", "command", t0)
		p.Observe("zone1", "flow-rise", t0)
		p.Observe("zone1", "moisture-rise", t0)
	}
	if p.TransitionCount("plan", "command") != 10 {
		t.Errorf("transition support = %d", p.TransitionCount("plan", "command"))
	}
	p.Seal()
	if !p.Sealed() {
		t.Error("not sealed")
	}
	// Normal sequence: silent.
	for _, ev := range []string{"plan", "command", "flow-rise", "moisture-rise"} {
		if a := p.Observe("zone1", ev, t0); a != nil {
			t.Fatalf("normal event %q alerted: %+v", ev, a)
		}
	}
	// Hijack: flow rises without a command.
	p.Observe("zone1", "plan", t0)
	a := p.Observe("zone1", "flow-rise", t0)
	if a == nil || a.Kind != "sequence" {
		t.Fatalf("rogue transition not flagged: %+v", a)
	}
}

func TestEngineEndToEnd(t *testing.T) {
	var alerts []Alert
	e := NewEngine(EngineConfig{
		Rate:        RateConfig{Window: time.Second, LimitPerSec: 10},
		Consistency: ConsistencyConfig{MinPeers: 3},
		Sink:        func(a Alert) { alerts = append(alerts, a) },
	})
	// Flood through the message path.
	for i := 0; i < 100; i++ {
		e.OnMessage("attacker", "swamp/x", nil, t0.Add(time.Duration(i)*time.Millisecond))
	}
	// Stuck series through the reading path.
	for i := 0; i < 20; i++ {
		e.OnReading(model.Reading{Device: "frozen", Quantity: model.QSoilMoisture, Value: 0.2, At: t0})
	}
	if len(alerts) < 2 {
		t.Fatalf("alerts = %+v", alerts)
	}
	counts := e.CountByKind()
	if counts["dos"] == 0 || counts["stuck"] == 0 {
		t.Errorf("counts = %v", counts)
	}
	if e.Metrics().Counter("anomaly.alerts.dos").Value() == 0 {
		t.Error("dos metric not incremented")
	}
	if len(e.Recent()) != len(alerts) {
		t.Errorf("recent log %d != emitted %d", len(e.Recent()), len(alerts))
	}
}

func TestEngineSybilScan(t *testing.T) {
	var alerts []Alert
	e := NewEngine(EngineConfig{
		Sybil: SybilConfig{MinSamples: 3, MinClusterSize: 3},
		Sink:  func(a Alert) { alerts = append(alerts, a) },
	})
	for k := 0; k < 5; k++ {
		for i := 0; i < 3; i++ {
			e.OnReading(model.Reading{
				Device: model.DeviceID(fmt.Sprintf("clone-%d", i)), Quantity: model.QNDVI,
				Value: 0.8, At: t0.Add(time.Duration(k) * time.Minute),
			})
		}
	}
	e.ScanSybil(t0.Add(time.Hour))
	if len(alerts) != 3 {
		t.Fatalf("sybil alerts = %d", len(alerts))
	}
	if !e.Sybil().Flagged("clone-0") {
		t.Error("clone not flagged")
	}
}
