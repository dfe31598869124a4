package main

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/agent"
)

// The arrival schedule, the probe order, the payload bytes and the query
// plan are pure functions of the seed.
func TestGeneratorIsAPureFunctionOfTheSeed(t *testing.T) {
	build := func(seed int64) (sched []time.Duration, payloads []byte, queries []query) {
		sched = arrivals(seed, streamWrites, 2000, 4*time.Second)
		order, m := newFleetOrder(seed, 100), valueModel{seed: uint64(seed)}
		for k := 0; k < 500; k++ {
			probe, seq := order.at(k)
			payloads = append(payloads, m.payload(nil, probe, seq)...)
			payloads = append(payloads, '\n')
			queries = append(queries, queryPlan(seed, 100, k))
		}
		return sched, payloads, queries
	}
	s1, p1, q1 := build(7)
	s2, p2, q2 := build(7)
	if !reflect.DeepEqual(s1, s2) || !bytes.Equal(p1, p2) || !reflect.DeepEqual(q1, q2) {
		t.Fatal("same seed gave different inputs")
	}
	s3, p3, q3 := build(8)
	if reflect.DeepEqual(s1, s3) || bytes.Equal(p1, p3) || reflect.DeepEqual(q1, q3) {
		t.Fatal("different seeds gave the same inputs")
	}
	if !sort.SliceIsSorted(s1, func(i, j int) bool { return s1[i] < s1[j] }) {
		t.Fatal("schedule is not in time order")
	}
	// No open-loop schedule uses a fixed gap.
	gaps := map[time.Duration]int{}
	for i := 1; i < len(s1); i++ {
		gaps[s1[i]-s1[i-1]]++
	}
	if len(gaps) < len(s1)/2 {
		t.Fatalf("only %d distinct gaps in %d arrivals", len(gaps), len(s1))
	}
}

// A reading survives the platform's own UltraLight decoder and the float
// round trip, and the sink can recover (probe, seq) from it.
func TestValueModelRoundTrip(t *testing.T) {
	m := valueModel{seed: 42}
	order := newFleetOrder(42, 1000)
	for _, k := range []int{0, 1, 999, 1000, 123_456, 999*maxSeq + 17} {
		probe, seq := order.at(k)
		if got := order.index(probe, seq); got != k {
			t.Fatalf("index(at(%d)) = %d", k, got)
		}
		if got := order.seqBelow(probe, k+1); got != seq {
			t.Fatalf("seqBelow(%d, %d) = %d, want %d", probe, k+1, got, seq)
		}
		if got := order.seqBelow(probe, k); got != seq-1 {
			t.Fatalf("seqBelow(%d, %d) = %d, want %d", probe, k, got, seq-1)
		}
		vals, err := agent.DecodeUL(string(m.payload(nil, probe, seq)))
		if err != nil {
			t.Fatal(err)
		}
		for depth, code := range []string{"m1", "m2"} {
			v := vals[code]
			if v != m.value(probe, depth, seq) || decodeUnits(v) != m.units(probe, depth, seq) || seqOf(v) != seq {
				t.Fatalf("reading %d/%d depth %d: payload carries %v, model %v", probe, seq, depth, v, m.value(probe, depth, seq))
			}
			if v < 0.2 || v > 0.37 {
				t.Fatalf("implausible moisture %v", v)
			}
		}
		if probeBack, ok := probeOfEntity(entityID(probe)); !ok || probeBack != probe {
			t.Fatalf("probeOfEntity(%q) = %d, %v", entityID(probe), probeBack, ok)
		}
	}
	// Consecutive readings of a series always differ (the stuck detector's
	// no-alert path) and alternate around the series mean.
	for seq := 1; seq < 50; seq++ {
		if m.units(3, 0, seq) == m.units(3, 0, seq+1) {
			t.Fatalf("seq %d repeats its predecessor", seq+1)
		}
	}
}

// The percentile picker refuses a percentile with fewer than ten samples
// beyond it, and failed operations stay in the denominator.
func TestPercentile(t *testing.T) {
	var s sample
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	if v, err := s.percentile(50); err != nil || v != 50 {
		t.Fatalf("p50 = %v, %v", v, err)
	}
	if v, err := s.percentile(90); err != nil || v != 90 {
		t.Fatalf("p90 = %v, %v", v, err)
	}
	if _, err := s.percentile(91); !errors.Is(err, errThinTail) {
		t.Fatalf("p91 of 100 samples has 9 beyond it, got err %v", err)
	}
	if _, err := (&sample{}).percentile(50); err == nil {
		t.Fatal("percentile of nothing")
	}
	// 20 failures among 100 operations push p90 to +Inf: losing the slow
	// ones cannot improve the tail.
	var f sample
	for i := 1; i <= 80; i++ {
		f.add(float64(i))
	}
	for i := 0; i < 20; i++ {
		f.fail()
	}
	if v, _ := f.percentile(50); v != 50 {
		t.Fatalf("p50 with failures = %v", v)
	}
	if v, _ := f.percentile(85); !math.IsInf(v, 1) {
		t.Fatalf("p85 with 20%% failures = %v, want +Inf", v)
	}
}

// Throughput is the median of slice rates, so one stalled slice does not
// move it; the read regime's numbers are scaled by each slice's machine
// speed, so a slow or stolen machine does not move them either.
func TestSlicesAndMachineSpeed(t *testing.T) {
	ph := &phase{cfg: phaseCfg{span: 10 * time.Second}}
	stored, queries, steal, total := 0.0, 0.0, 0.0, 0.0
	for i := 0; i <= 100; i++ { // 10 s at 10 Hz
		at := float64(i) / 10
		// From 6 s on the machine runs at half speed — a fifth of its CPU
		// time stolen, the calibration kernel taking 1.6 times as long —
		// and serves half the queries at twice the latency.
		slow := at >= 6
		calib := float64(refCalibUS)
		if slow {
			calib *= 1.6
		}
		ph.samples = append(ph.samples, phaseSample{at: at, stored: stored, queries: queries, steal: steal, cpuTotal: total, calib: calib})
		if at < 4 || at >= 6 { // nothing stored during [4 s, 6 s)
			stored += 100
		}
		total += 20
		lat := 500.0
		if slow {
			queries, steal, lat = queries+100, steal+4, 1000
		} else {
			queries += 200
		}
		for j := 0; j < 20; j++ {
			ph.queryAll.add(at+0.05, lat+float64(j))
		}
	}
	queryRate := func(s slice) float64 { return s.queries }
	sl := ph.slices()
	if len(sl) != 5 {
		t.Fatalf("%d slices, want 5", len(sl))
	}
	if sl[2].stored != 0 {
		t.Fatalf("stalled slice rate %v", sl[2].stored)
	}
	if got := medianOver(sl, func(s slice) float64 { return s.stored }); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("median slice rate %v, want 1000", got)
	}
	if math.Abs(sl[0].speed-1) > 1e-9 || math.Abs(sl[4].speed-0.5) > 1e-9 {
		t.Fatalf("machine speeds %v and %v, want 1 and 0.5", sl[0].speed, sl[4].speed)
	}
	if atRef, raw := rateAtRef(ph.slices(), queryRate); math.Abs(atRef-2000) > 1e-9 || math.Abs(raw-2000) > 1e-9 {
		t.Fatalf("queries/s %v at reference speed (%v as measured), want 2000", atRef, raw)
	}
	// Make the slow stretch the majority: the raw median halves, the scaled one holds.
	ph.cfg.span = 6 * time.Second
	ph.samples = ph.samples[40:]
	for i := range ph.samples {
		ph.samples[i].at -= 4
	}
	for i := range ph.queryAll.at {
		ph.queryAll.at[i] -= 4
	}
	if atRef, raw := rateAtRef(ph.slices(), queryRate); math.Abs(atRef-2000) > 1e-9 || math.Abs(raw-1000) > 1e-9 {
		t.Fatalf("queries/s %v at reference speed, %v as measured, want 2000 and 1000", atRef, raw)
	}
	if atRef, raw := ph.percentileAtRef(&ph.queryAll, 50); math.Abs(atRef-504.5) > 1 || math.Abs(raw-1009) > 1 {
		t.Fatalf("query p50 %v at reference speed, %v as measured, want about 505 and 1009", atRef, raw)
	}
	// A phase shorter than one slice is one slice.
	short := &phase{cfg: phaseCfg{span: time.Second}, samples: ph.samples[:11]}
	if sl := short.slices(); len(sl) != 1 {
		t.Fatalf("short phase has %d slices", len(sl))
	}
}

// Quartiles follow Python's statistics.quantiles(values, n=4), which the
// benchmark's acceptance is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Fatalf("quartiles %v %v", q1, q3)
	}
}

// A span's self time is its duration minus what its children cover, with
// overlapping and protruding children counted once and clipped.
func TestSpanSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := []span{
		{Start: 100, End: 120},
		{Start: 110, End: 140}, // overlaps the first
		{Start: 150, End: 160},
		{Start: 190, End: 250}, // sticks out
		{Start: 10, End: 50},   // outside
	}
	if got := selfTime(parent, kids); got != 100-(40+10+10) {
		t.Fatalf("self time %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("childless self time %d", got)
	}

	// A reading's spans: the chain tiles due → POST, so the root keeps only
	// what the store span leaves uncovered after the POST.
	var r readingRec
	r.due.Store(1000)
	r.written.Store(1100)
	r.puback.Store(1500)
	r.callback.Store(3000)
	r.posted.Store(3400)
	r.stored.Store(3900)
	spans := spansOf("0001/1", &r)
	if len(spans) != 6 || spans[0].Name != "reading" || spans[0].End != 3900 || spans[0].SelfNS != 0 {
		t.Fatalf("spans %+v", spans)
	}
	sum := int64(0)
	for _, s := range spans[1:5] {
		sum += s.End - s.Start
	}
	if sum != r.posted.Load()-r.due.Load() {
		t.Fatalf("chain spans sum to %d, notify latency is %d", sum, r.posted.Load()-r.due.Load())
	}
	// Unobserved ends leave their spans out.
	var partial readingRec
	partial.due.Store(10)
	partial.written.Store(20)
	if got := spansOf("x", &partial); len(got) != 2 || got[1].Name != "gen" {
		t.Fatalf("partial spans %+v", got)
	}
}

// Two sets agree when every spread and every median shift is within bound.
func TestPairVerdict(t *testing.T) {
	lower := metricSpec{Name: "notify_p50_us", Better: "lower", Bound: 0.10}
	a := summarise([]float64{100, 101, 102, 103, 104})
	if p := pairVerdict([]setStats{a, summarise([]float64{108, 109, 110, 111, 112})}, lower); len(p) != 0 {
		t.Fatalf("7%% worse within a 10%% bound flagged: %v", p)
	}
	if p := pairVerdict([]setStats{a, summarise([]float64{118, 119, 120, 121, 122})}, lower); len(p) != 1 {
		t.Fatalf("18%% worse not flagged once: %v", p)
	}
	if p := pairVerdict([]setStats{a, summarise([]float64{80, 81, 82, 83, 84})}, lower); len(p) != 0 {
		t.Fatalf("an improvement flagged: %v", p)
	}
	higher := metricSpec{Name: "readings_per_s", Better: "higher", Bound: 0.10}
	if p := pairVerdict([]setStats{a, summarise([]float64{80, 81, 82, 83, 84})}, higher); len(p) != 1 {
		t.Fatalf("20%% fewer readings/s not flagged: %v", p)
	}
	noisy := summarise([]float64{60, 80, 100, 120, 140})
	if p := pairVerdict([]setStats{noisy}, lower); len(p) != 1 {
		t.Fatalf("a range of 0.8 not flagged: %v", p)
	}
	if p := pairVerdict([]setStats{noisy}, metricSpec{Name: "setup_s", Better: "lower", Bound: 0.15}); len(p) != 1 {
		t.Fatalf("setup_s is gated on its range like the rest: %v", p)
	}
	// One outlier in five: the quartiles forgive it, the range does not.
	if p := pairVerdict([]setStats{summarise([]float64{100, 101, 102, 103, 130})}, lower); len(p) != 1 {
		t.Fatalf("an outlier of 30%% not flagged: %v", p)
	}
}

// BENCHMARK.json and the harness name the same workloads and metrics, with
// the same units, and every name is made of letters, digits, '_', '.', '-'.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var got, want []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: file %v, harness %v", got, want)
	}
	compare := func(kind string, specs []metricSpec, defs []metricDef) {
		seen := map[string]bool{}
		if len(specs) != len(defs) {
			t.Errorf("%s: file lists %d metrics, harness emits %d", kind, len(specs), len(defs))
		}
		for i, d := range defs {
			if !nameOK.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if i < len(specs) && (specs[i].Name != d.name || specs[i].Unit != d.unit) {
				t.Errorf("%s[%d]: file %s (%s), harness %s (%s)", kind, i, specs[i].Name, specs[i].Unit, d.name, d.unit)
			}
		}
		for _, s := range specs {
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s: %s better=%q", kind, s.Name, s.Better)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
	for _, s := range bf.EndToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	for _, w := range workloads {
		found := false
		for _, d := range endToEnd {
			found = found || d.name == w.headline
		}
		if !found {
			t.Errorf("%s: headline %q is not an end-to-end metric", w.name, w.headline)
		}
	}
}
