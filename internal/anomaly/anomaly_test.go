package anomaly

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/model"
)

var t0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

// alertsOf is a sink that keeps the alerts of one kind in *dst.
func alertsOf(kind string, dst *[]Alert) Sink {
	return func(a Alert) {
		if a.Kind == kind {
			*dst = append(*dst, a)
		}
	}
}

// feed hands the engine one reading.
func feed(e *Engine, dev, quantity string, v float64, at time.Time) {
	e.OnReading(model.Reading{Device: model.DeviceID(dev), Quantity: model.Quantity(quantity), Value: v, At: at})
}

func TestEWMALearnsThenDetectsSpike(t *testing.T) {
	var got []Alert
	e := NewEngine(EngineConfig{Sink: alertsOf("deviation", &got)})
	rng := rand.New(rand.NewSource(1))
	// Learn a noisy baseline around 0.25.
	for i := 0; i < 100; i++ {
		v := 0.25 + rng.NormFloat64()*0.01
		if feed(e, "s1", "m", v, t0.Add(time.Duration(i)*time.Minute)); len(got) != 0 {
			t.Fatalf("false positive during normal operation at %d: %+v", i, got[0])
		}
	}
	// A tampered value far off baseline must alert.
	feed(e, "s1", "m", 0.55, t0.Add(101*time.Minute))
	if len(got) == 0 {
		t.Fatal("spike not detected")
	}
	if a := got[0]; a.Kind != "deviation" || a.Score < 4 {
		t.Errorf("alert = %+v", a)
	}
	st := e.series[series{"s1", "m"}]
	mean, sd, n := st.mean, math.Sqrt(st.variance), st.n
	if n != 101 || mean < 0.2 || mean > 0.3 || sd <= 0 {
		t.Errorf("baseline = %g ± %g over %d", mean, sd, n)
	}
}

func TestEWMAWarmupSuppression(t *testing.T) {
	var got []Alert
	e := NewEngine(EngineConfig{Sink: alertsOf("deviation", &got)})
	// Wild values during warmup must not alert.
	for i := 0; i < ewmaWarmup; i++ {
		if feed(e, "s", "m", float64(i*100), t0); len(got) != 0 {
			t.Fatalf("alert during warmup: %+v", got[0])
		}
	}
}

func TestEWMAIndependentSeries(t *testing.T) {
	var got []Alert
	e := NewEngine(EngineConfig{Sink: alertsOf("deviation", &got)})
	for i := 0; i < 50; i++ {
		feed(e, "a", "m", 1.0, t0)
		feed(e, "b", "m", 100.0, t0)
	}
	// b's level is normal for b, even though far from a's baseline.
	if feed(e, "b", "m", 100.0, t0); len(got) != 0 {
		t.Errorf("cross-series contamination: %+v", got[0])
	}
}

func TestRateDetectorFlagsFlood(t *testing.T) {
	var got []Alert
	e := NewEngine(EngineConfig{Rate: RateConfig{Window: 10 * time.Second, LimitPerSec: 5}, Sink: alertsOf("dos", &got)})
	// Normal device: 1 msg/s — no alert.
	for i := 0; i < 30; i++ {
		if e.OnMessage("dev", "t", nil, t0.Add(time.Duration(i)*time.Second)); len(got) != 0 {
			t.Fatalf("false positive at normal rate: %+v", got[0])
		}
	}
	// Flood: 100 msgs in one second.
	floodStart := t0.Add(time.Minute)
	for i := 0; i < 100 && len(got) == 0; i++ {
		e.OnMessage("flooder", "t", nil, floodStart.Add(time.Duration(i)*10*time.Millisecond))
	}
	if len(got) == 0 {
		t.Fatal("flood not detected")
	}
	if a := got[0]; a.Kind != "dos" || a.Device != "flooder" {
		t.Errorf("alert = %+v", a)
	}
}

// TestRateDetectorCooldown: a client alerts once per window, however long
// its burst, and again once a window has passed.
func TestRateDetectorCooldown(t *testing.T) {
	var got []Alert
	e := NewEngine(EngineConfig{Rate: RateConfig{Window: time.Second, LimitPerSec: 1}, Sink: alertsOf("dos", &got)})
	for i := 0; i < 1000; i++ {
		e.OnMessage("f", "t", nil, t0.Add(time.Duration(i)*time.Millisecond))
	}
	if len(got) != 1 {
		t.Errorf("cooldown allowed %d alerts in one burst", len(got))
	}
	for i := 0; i < 1000; i++ {
		e.OnMessage("f", "t", nil, t0.Add(time.Second+time.Duration(i)*time.Millisecond))
	}
	if len(got) != 2 {
		t.Errorf("a second burst one window later raised %d alerts in all, want 2", len(got))
	}
}

func TestRateDetectorWindowSlides(t *testing.T) {
	var got []Alert
	e := NewEngine(EngineConfig{Rate: RateConfig{Window: 10 * time.Second, LimitPerSec: 5}, Sink: alertsOf("dos", &got)})
	for i := 0; i < 80; i++ {
		e.OnMessage("dev", "t", nil, t0.Add(time.Duration(i)*125*time.Millisecond)) // 8/s for 10s
	}
	if len(got) != 1 {
		t.Fatalf("8 msg/s over a 5 msg/s limit raised %d alerts, want 1", len(got))
	}
	// After a long quiet hour the window holds only what came after it:
	// 50 messages, exactly the limit, raise nothing.
	for i := 0; i < 50; i++ {
		e.OnMessage("dev", "t", nil, t0.Add(time.Hour+time.Duration(i)*125*time.Millisecond))
	}
	if n := e.clients["dev"].total; n != 50 {
		t.Errorf("window after a quiet hour counts %d arrivals, want 50", n)
	}
	if len(got) != 1 {
		t.Errorf("arrivals from before the quiet hour still counted: %+v", got[1:])
	}
}

// TestRateWindowContract: whatever its phase within an interval, an arrival
// counts for at least Window − Window/rateBuckets and never past Window.
func TestRateWindowContract(t *testing.T) {
	const window = 1600 * time.Millisecond
	e := NewEngine(EngineConfig{Rate: RateConfig{Window: window, LimitPerSec: 1e9}})
	rng := rand.New(rand.NewSource(6))
	at := t0
	for trial := 0; trial < 2000; trial++ {
		client := strconv.Itoa(trial)
		at = at.Add(time.Duration(rng.Int63n(int64(window))))
		later := time.Duration(rng.Int63n(int64(2 * window)))
		e.OnMessage(client, "t", nil, at)
		e.OnMessage(client, "t", nil, at.Add(later))
		counted := e.clients[client].total == 2
		if later < window-window/rateBuckets && !counted {
			t.Fatalf("an arrival stopped counting %v after it came (window %v)", later, window)
		}
		if later >= window && counted {
			t.Fatalf("an arrival still counted %v after it came (window %v)", later, window)
		}
	}
}

// TestRateWindowMemoryIsBounded: a client's window costs the same whatever
// its rate. A million arrivals at 100 k/s under a 5 s window (the
// platform's) leave almost nothing live.
func TestRateWindowMemoryIsBounded(t *testing.T) {
	e := NewEngine(EngineConfig{Rate: RateConfig{Window: 5 * time.Second, LimitPerSec: 50}})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 1_000_000; i++ {
		e.OnMessage("gateway", "t", nil, t0.Add(time.Duration(i)*10*time.Microsecond))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live >= 64<<10 {
		t.Errorf("a million arrivals left %d bytes live, want < 64 KiB", live)
	}
	if e.CountByKind()["dos"] == 0 {
		t.Error("the flood raised no dos alert")
	}
}

func TestStuckDetector(t *testing.T) {
	var got []Alert
	e := NewEngine(EngineConfig{Sink: alertsOf("stuck", &got)})
	for i := 0; i < stuckRepeats+5; i++ {
		feed(e, "s", "m", 0.42, t0.Add(time.Duration(i)*time.Minute))
	}
	if len(got) != 1 {
		t.Fatalf("one stuck episode raised %d alerts, want 1", len(got))
	}
	if got[0].Kind != "stuck" || got[0].Device != "s/m" {
		t.Fatalf("stuck alert = %+v", got[0])
	}
	// Changing value resets the episode; a new freeze alerts again.
	feed(e, "s", "m", 0.43, t0)
	for i := 0; i < stuckRepeats; i++ {
		feed(e, "s", "m", 0.43, t0)
	}
	if count := len(got) - 1; count != 1 {
		t.Errorf("second episode alerts = %d, want 1", count)
	}
	// A healthy noisy series never alerts.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if feed(e, "healthy", "m", rng.Float64(), t0); len(got) != 2 {
			t.Fatalf("noisy series flagged stuck: %+v", got[2])
		}
	}
}

func TestConsistencyDetectorCrossChecks(t *testing.T) {
	var got []Alert
	e := NewEngine(EngineConfig{Consistency: ConsistencyConfig{MinPeers: 4, K: 5}, Sink: alertsOf("consistency", &got)})
	rng := rand.New(rand.NewSource(3))
	// Ten honest probes around 0.25.
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			v := 0.25 + rng.NormFloat64()*0.01
			if feed(e, fmt.Sprintf("p%d", i), "soilMoisture", v, t0); len(got) != 0 {
				t.Fatalf("honest probe flagged: %+v", got[0])
			}
		}
	}
	// One probe starts lying smoothly (reads dry when field is wet).
	feed(e, "p3", "soilMoisture", 0.08, t0.Add(time.Hour))
	if len(got) == 0 {
		t.Fatal("lying probe not flagged against consensus")
	}
	if a := got[0]; a.Kind != "consistency" || a.Device != "p3" {
		t.Errorf("alert = %+v", a)
	}
	if n := len(e.pops["soilMoisture"].byDev); n != 10 {
		t.Errorf("peer count = %d", n)
	}
}

func TestConsistencyNeedsPeers(t *testing.T) {
	var got []Alert
	e := NewEngine(EngineConfig{Consistency: ConsistencyConfig{MinPeers: 4}, Sink: alertsOf("consistency", &got)})
	// With only two devices, the partial view forbids judgement.
	feed(e, "a", "q", 0.2, t0)
	feed(e, "b", "q", 0.2, t0)
	if feed(e, "a", "q", 99, t0); len(got) != 0 {
		t.Errorf("alerted with insufficient peers: %+v", got[0])
	}
}

func TestSybilDetectorFlagsClones(t *testing.T) {
	var alerts []Alert
	e := NewEngine(EngineConfig{Sybil: SybilConfig{MinSamples: 5}, Sink: alertsOf("sybil", &alerts)})
	rng := rand.New(rand.NewSource(4))
	// Honest devices: same signal, independent noise.
	for i := 0; i < 6; i++ {
		dev := fmt.Sprintf("honest-%d", i)
		for k := 0; k < 10; k++ {
			feed(e, dev, "ndvi", 0.3+rng.NormFloat64()*0.02, t0.Add(time.Duration(k)*time.Minute))
		}
	}
	// Sybil swarm: 4 identities, identical streams.
	for k := 0; k < 10; k++ {
		v := 0.3 + rng.NormFloat64()*0.02
		for i := 0; i < 4; i++ {
			feed(e, fmt.Sprintf("sybil-%d", i), "ndvi", v, t0.Add(time.Duration(k)*time.Minute))
		}
	}
	e.ScanSybil(t0.Add(time.Hour))
	if len(alerts) != 4 {
		t.Fatalf("alerts = %d, want the 4 sybil identities (%+v)", len(alerts), alerts)
	}
	for _, a := range alerts {
		if a.Kind != "sybil" || a.Device[:5] != "sybil" {
			t.Errorf("honest device flagged: %+v", a)
		}
	}
	if !e.devices["sybil-0"].flagged || e.devices["honest-0"].flagged {
		t.Error("flag state wrong")
	}
	// Second scan does not re-report.
	if e.ScanSybil(t0.Add(2 * time.Hour)); len(alerts) != 4 {
		t.Errorf("rescan re-reported %d alerts", len(alerts)-4)
	}
}

func TestSybilYoungWindowSeparates(t *testing.T) {
	var alerts []Alert
	e := NewEngine(EngineConfig{Sybil: SybilConfig{MinSamples: 3}, Sink: alertsOf("sybil", &alerts)})
	// Three identical streams, but the third first seen an hour after the
	// other two → no cluster reaches the minimum size.
	for k := 0; k < 5; k++ {
		feed(e, "old-0", "m", 0.5, t0.Add(time.Duration(k)*time.Second))
		feed(e, "old-1", "m", 0.5, t0.Add(time.Duration(k)*time.Second))
	}
	for k := 0; k < 5; k++ {
		feed(e, "new", "m", 0.5, t0.Add(time.Hour).Add(time.Duration(k)*time.Second))
	}
	if e.ScanSybil(t0.Add(2 * time.Hour)); len(alerts) != 0 {
		t.Errorf("devices an hour apart clustered: %+v", alerts)
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
		Sybil: SybilConfig{MinSamples: 3},
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
	if !e.devices["clone-0"].flagged {
		t.Error("clone not flagged")
	}
}

// TestCountByKindCountsPastTheLog: CountByKind reads the engine's counters,
// so it still counts every alert once the log has wrapped.
func TestCountByKindCountsPastTheLog(t *testing.T) {
	e := NewEngine(EngineConfig{Rate: RateConfig{Window: time.Second, LimitPerSec: 0.5}})
	const alerts = 9999
	for i := 0; i < alerts; i++ { // one message a window, each over the limit
		e.OnMessage("flooder", "t", nil, t0.Add(time.Duration(i)*time.Second))
	}
	if got := e.CountByKind(); got["dos"] != alerts || len(got) != 1 {
		t.Errorf("CountByKind = %v, want dos=%d", got, alerts)
	}
	if got := e.Metrics().Counter("anomaly.alerts.dos").Value(); got != alerts {
		t.Errorf("anomaly.alerts.dos = %d, want %d", got, alerts)
	}
	if n := len(e.Recent()); n != maxLog {
		t.Errorf("Recent holds %d alerts, want %d", n, maxLog)
	}
}

// TestSinkMayCallBack: the sink runs after the engine has released its
// locks, so it may read the log, the counts, and feed the engine again, from
// every path that alerts.
func TestSinkMayCallBack(t *testing.T) {
	var e *Engine
	seen := make(map[string]int)
	e = NewEngine(EngineConfig{
		Rate:  RateConfig{Window: time.Second, LimitPerSec: 1},
		Sybil: SybilConfig{MinSamples: 3},
		Sink: func(a Alert) {
			seen[a.Kind] = len(e.Recent()) + e.CountByKind()[a.Kind]
			feed(e, "bystander", "m", float64(len(seen)), a.At)
		},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			e.OnMessage("flooder", "t", nil, t0)
		}
		for i := 0; i < stuckRepeats; i++ {
			for c := 0; c < 3; c++ {
				feed(e, "clone-"+strconv.Itoa(c), "m", 0.5, t0.Add(time.Duration(i)*time.Second))
			}
		}
		e.ScanSybil(t0.Add(time.Minute))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a sink calling back into the engine deadlocked it")
	}
	for _, kind := range []string{"dos", "stuck", "sybil"} {
		if seen[kind] == 0 {
			t.Errorf("the sink saw no %s alert (saw %v)", kind, seen)
		}
	}
}

// TestEngineConcurrentPaths: eight goroutines feed readings while others
// publish, scan for Sybils and read the log — every path the platform runs
// at once. Run under -race.
func TestEngineConcurrentPaths(t *testing.T) {
	e := NewEngine(EngineConfig{Rate: RateConfig{Window: time.Second, LimitPerSec: 100}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				feed(e, "p"+strconv.Itoa(rng.Intn(50)), "m", 0.25+rng.NormFloat64()*0.01, t0.Add(time.Duration(i)*time.Second))
			}
		}(g)
	}
	var side sync.WaitGroup
	for _, run := range []func(i int){
		func(i int) { e.OnMessage("gw-"+strconv.Itoa(i%3), "t", nil, t0.Add(time.Duration(i)*time.Millisecond)) },
		func(i int) { e.ScanSybil(t0.Add(time.Duration(i) * time.Second)) },
		func(int) { _ = e.Recent(); _ = e.CountByKind() },
	} {
		side.Add(1)
		go func() {
			defer side.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					run(i)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	side.Wait()
	if n := len(e.pops["m"].byDev); n != 50 {
		t.Errorf("population holds %d devices, want 50", n)
	}
	if e.CountByKind()["dos"] == 0 {
		t.Error("the publishing goroutine raised no dos alert")
	}
}
