package anomaly

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/model"
)

// oracleDetector is the reference the ordered population is held to: it
// copies every peer value out of the map and sorts the fleet for each value,
// once for the median and once more for the MAD. Equal values are ordered
// -0 before +0 so that its answer does not depend on map iteration order.
type oracleDetector struct {
	cfg       ConsistencyConfig
	latest    map[string]map[string]float64 // quantity -> device -> last value
	lastAlert map[string]time.Time
}

func newOracleDetector(cfg ConsistencyConfig) *oracleDetector {
	cfg.defaults()
	return &oracleDetector{
		cfg:       cfg,
		latest:    make(map[string]map[string]float64),
		lastAlert: make(map[string]time.Time),
	}
}

func (d *oracleDetector) Observe(device, quantity string, v float64, at time.Time) *Alert {
	byDev := d.latest[quantity]
	if byDev == nil {
		byDev = make(map[string]float64)
		d.latest[quantity] = byDev
	}
	peers := make([]float64, 0, len(byDev))
	for dev, pv := range byDev {
		if dev != device {
			peers = append(peers, pv)
		}
	}
	byDev[device] = v
	if len(peers) < d.cfg.MinPeers {
		return nil
	}
	med := median(peers)
	spread := 1.4826 * medianAbsDev(peers, med)
	if spread < d.cfg.MinSpread {
		spread = d.cfg.MinSpread
	}
	if spread < 1e-9 {
		spread = 1e-9
	}
	z := math.Abs(v-med) / spread
	if z <= d.cfg.K {
		return nil
	}
	if at.Sub(d.lastAlert[device]) < consistencyCooldown {
		return nil
	}
	d.lastAlert[device] = at
	return &Alert{
		At: at, Kind: "consistency", Device: device, Score: z,
		Detail: fmt.Sprintf("%s=%.4g vs consensus %.4g (spread %.4g, %d peers)",
			quantity, v, med, spread, len(peers)),
	}
}

// totalOrderKey maps a float64 to an integer that ascends with the IEEE 754
// total order, in which -0 precedes +0.
func totalOrderKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return totalOrderKey(s[i]) < totalOrderKey(s[j]) })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianAbsDev(xs []float64, med float64) float64 {
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return median(devs)
}

// sameAlert reports whether the detector and the oracle answered alike: both
// silent, or alerts equal in every field.
func sameAlert(got, want *Alert) bool {
	if got == nil || want == nil {
		return got == want
	}
	return *got == *want
}

// awkward are values chosen to collide: both zeros, the smallest subnormals
// (whose mean rounds to a zero), exact ties, and magnitudes that differ by
// hundreds of orders.
var awkward = []float64{
	math.Copysign(0, -1), 0, 5e-324, -5e-324, 0.25, 0.25, 0.26, -0.25,
	1, -1, 1e-9, 2e-9, 1e300, -1e300, 1e-300, 100,
}

// consistencyProbe returns an engine built from cfg and a function that
// feeds it one reading and returns the consistency alert it raised, if any.
func consistencyProbe(cfg ConsistencyConfig) (*Engine, func(dev, quantity string, v float64, at time.Time) *Alert) {
	var got *Alert
	eng := NewEngine(EngineConfig{Consistency: cfg, Sink: func(a Alert) {
		if a.Kind == "consistency" {
			got = &a
		}
	}})
	return eng, func(dev, quantity string, v float64, at time.Time) *Alert {
		got = nil
		feed(eng, dev, quantity, v, at)
		return got
	}
}

// cooldownSteps are the clock steps a history takes: with the one-minute
// cooldown they let every alert through, one in three steps, or one a
// minute.
var cooldownSteps = []time.Duration{61 * time.Second, 20 * time.Second, time.Second}

// history drives the engine and the oracle through the same random history
// and fails on the first differing answer. It returns how many alerts fired.
func history(t *testing.T, rng *rand.Rand, devices, quantities, steps int) int {
	t.Helper()
	cfg := ConsistencyConfig{
		MinPeers:  rng.Intn(7), // 0 means the default of 4
		K:         []float64{0.5, 2, 5}[rng.Intn(3)],
		MinSpread: []float64{0, 0.008}[rng.Intn(2)],
	}
	step := cooldownSteps[rng.Intn(3)]
	eng, observe := consistencyProbe(cfg)
	oracle := newOracleDetector(cfg)
	names := make([]string, devices)
	for i := range names {
		names[i] = "d" + strconv.Itoa(i)
	}
	at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	alerts := 0
	for i := 0; i < steps; i++ {
		dev := names[rng.Intn(devices)]
		if i < devices && rng.Intn(4) > 0 {
			dev = names[i] // fill the fleet early, so large ones get judged at size
		}
		q := "q" + strconv.Itoa(rng.Intn(quantities))
		var v float64
		switch rng.Intn(4) {
		case 0:
			v = awkward[rng.Intn(len(awkward))]
		case 1:
			v = float64(rng.Intn(9)-4) / 8 // a coarse grid: many exact ties
		default:
			v = 0.25 + rng.NormFloat64()*0.01
		}
		at = at.Add(step)
		got, want := observe(dev, q, v, at), oracle.Observe(dev, q, v, at)
		if !sameAlert(got, want) {
			t.Fatalf("step %d (%d devices, cfg %+v, clock step %v): Observe(%s, %s, %v)\n got %+v\nwant %+v",
				i, devices, cfg, step, dev, q, v, got, want)
		}
		if got != nil {
			alerts++
		}
	}
	for q, byDev := range oracle.latest {
		if got := len(eng.pops[q].byDev); got != len(byDev) {
			t.Fatalf("PeerCount(%s) = %d, oracle holds %d", q, got, len(byDev))
		}
	}
	return alerts
}

// TestConsistencyMatchesSortOracle: over seeded random histories — fleets of
// 1 to 2 000 devices, 1 to 3 quantities, ties, repeated and replaced values,
// both zeros, odd and even peer counts either side of MinPeers — every
// Observe answers exactly as the sort-based oracle does.
func TestConsistencyMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cases, alerts := 0, 0
	for trial := 0; trial < 300; trial++ {
		devices := 1 + rng.Intn(12)
		if trial%10 == 0 {
			devices = 1 + rng.Intn(200)
		}
		steps := 40 + 3*devices
		alerts += history(t, rng, devices, 1+rng.Intn(3), steps)
		cases += steps
	}
	for _, devices := range []int{999, 1000, 2000} {
		steps := devices + 600
		alerts += history(t, rng, devices, 1+rng.Intn(3), steps)
		cases += steps
	}
	if cases < 20000 || alerts < 1000 {
		t.Errorf("compared %d cases of which %d alerted; want at least 20000 and 1000", cases, alerts)
	}
}

// FuzzConsistencyMatchesOracle replays a byte string as a history: one byte
// of configuration, then (device, quantity and value class, value) triples.
// The seed corpus is committed under testdata/fuzz.
func FuzzConsistencyMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := data[0]
		cfg := ConsistencyConfig{
			MinPeers:  int(c & 7),
			K:         []float64{0.5, 2, 5, 5}[c>>3&3],
			MinSpread: []float64{0, 0.008}[c>>5&1],
		}
		step := []time.Duration{61 * time.Second, time.Second}[c>>6&1]
		_, observe := consistencyProbe(cfg)
		oracle := newOracleDetector(cfg)
		at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			dev := "d" + strconv.Itoa(int(ops[0]))
			q := "q" + strconv.Itoa(int(ops[1]&3))
			v := float64(int8(ops[2])) / 16
			if ops[1]&0x80 != 0 {
				v = awkward[int(ops[2])%len(awkward)]
			}
			at = at.Add(step)
			got, want := observe(dev, q, v, at), oracle.Observe(dev, q, v, at)
			if !sameAlert(got, want) {
				t.Fatalf("Observe(%s, %s, %v) with %+v\n got %+v\nwant %+v", dev, q, v, cfg, got, want)
			}
		}
	})
}

// warmFleet returns a probe whose engine holds n devices' values, and
// their names.
func warmFleet(n int) (func(dev, quantity string, v float64, at time.Time) *Alert, []string) {
	_, observe := consistencyProbe(ConsistencyConfig{MinSpread: 0.008})
	rng := rand.New(rand.NewSource(3))
	names := make([]string, n)
	at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := range names {
		names[i] = "p" + strconv.Itoa(i)
		observe(names[i], "m", 0.25+rng.NormFloat64()*0.01, at)
	}
	return observe, names
}

// TestConsistencyObserveDoesNotAllocate: with the fleet known, a reading
// that raises no alert costs no allocation — the whole of OnReading, not
// only its consistency check.
func TestConsistencyObserveDoesNotAllocate(t *testing.T) {
	observe, names := warmFleet(1000)
	at := time.Date(2026, 6, 1, 0, 1, 0, 0, time.UTC)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if a := observe(names[i%len(names)], "m", 0.25+float64(i%21-10)*0.001, at); a != nil {
			t.Fatalf("unexpected alert: %+v", a)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("OnReading allocated %v times per call on the no-alert path", allocs)
	}
}

// TestEngineConcurrentReadingsKeepOrder: eight goroutines — one per ngsi
// shard dispatcher — feed one engine overlapping devices; afterwards each
// population's ordered slice is sorted and holds exactly the map's values.
func TestEngineConcurrentReadingsKeepOrder(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	quantities := []model.Quantity{model.QSoilMoisture, model.QSoilTemp}
	const devices = 300
	at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4000; i++ {
				eng.OnReading(model.Reading{
					Device:   model.DeviceID("p" + strconv.Itoa(rng.Intn(devices))),
					Quantity: quantities[rng.Intn(len(quantities))],
					Value:    float64(rng.Intn(41)-20) / 100, // ties and both signs
					At:       at.Add(time.Duration(i) * time.Second),
				})
			}
		}(g)
	}
	wg.Wait()
	for _, q := range quantities {
		pop := eng.pops[string(q)]
		if pop == nil {
			t.Fatalf("no population for %s", q)
		}
		if n := len(pop.byDev); n != len(pop.sorted) || n == 0 {
			t.Errorf("%s: PeerCount %d, ordered slice holds %d", q, n, len(pop.sorted))
		}
		if !sort.SliceIsSorted(pop.sorted, func(i, j int) bool { return less(pop.sorted[i], pop.sorted[j]) }) {
			t.Errorf("%s: ordered slice is not sorted", q)
		}
		want := make([]float64, 0, len(pop.byDev))
		for _, v := range pop.byDev {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return totalOrderKey(want[i]) < totalOrderKey(want[j]) })
		for i := range want {
			if i < len(pop.sorted) && math.Float64bits(want[i]) != math.Float64bits(pop.sorted[i]) {
				t.Errorf("%s: ordered slice differs from the map's values at %d: %v vs %v", q, i, pop.sorted[i], want[i])
				break
			}
		}
	}
}

// TestRecentKeepsOrderAcrossWrap: once the alert log is full it is a ring;
// Recent still returns the newest maxLog alerts oldest first.
func TestRecentKeepsOrderAcrossWrap(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	extra := maxLog/2 + 3
	for i := 0; i < maxLog+extra; i++ {
		kind := "deviation"
		if i%2 == 1 {
			kind = "dos"
		}
		eng.emit(Alert{Kind: kind, Score: float64(i)})
	}
	recent := eng.Recent()
	if len(recent) != maxLog {
		t.Fatalf("Recent holds %d alerts, want %d", len(recent), maxLog)
	}
	for i, a := range recent {
		if want := float64(extra + i); a.Score != want {
			t.Fatalf("Recent[%d].Score = %v, want %v (oldest first across the wrap)", i, a.Score, want)
		}
	}
	// CountByKind counts every alert raised, not only those still logged.
	byKind := eng.CountByKind()
	if total := maxLog + extra; byKind["deviation"]+byKind["dos"] != total || byKind["dos"] != total/2 {
		t.Errorf("CountByKind = %v after %d alerts", byKind, total)
	}
}
