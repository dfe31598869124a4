package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runOpts is one invocation of a workload.
type runOpts struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	smoke   bool      // correctness only: one set-up, tiny warm-up
	log     io.Writer // human-readable progress
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports; its JSON form is the run's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
	detail   map[string]any // results.json extras: sample counts, lateness, tallies
}

// warm drives the fixed-count closed-loop warm-up through the whole
// pipeline — which also creates every probe's entity — then the reader's.
func (fx *fixture) warm(readings, queries int) *verdict {
	v := fx.runPhase(phaseCfg{window: fx.w.window, maxReadings: readings, noReader: true}).check()
	rv := fx.runPhase(phaseCfg{maxQueries: queries, noWriter: true}).check()
	v.queries = rv.queries
	v.problems = append(v.problems, rv.problems...)
	return v
}

// setUp builds a fixture and warms it, returning how long that took.
func setUp(o runOpts, dir string) (*fixture, time.Duration, error) {
	start := time.Now()
	fx, err := newFixture(o.w, o.seed, dir)
	if err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(o.log, "  fixture built, preloaded, provisioned and connected in %.3f s\n", time.Since(start).Seconds())
	readings, queries := o.w.warmReadings, warmQueries
	if o.smoke {
		readings, queries = 2*o.w.probes, 40
	}
	if v := fx.warm(readings, queries); !v.ok() {
		fx.close()
		return nil, 0, fmt.Errorf("warm-up failed its checks: %s", strings.Join(v.problems, "; "))
	}
	return fx, time.Since(start), nil
}

// writeRegime is the workload's own writer pattern with no reader;
// readRegime is the closed-loop readers beside Poisson background writes.
func writeRegime(w workload, span time.Duration, traced bool) phaseCfg {
	return phaseCfg{span: span, writeRate: w.writeRate, window: w.window, noReader: true, traced: traced}
}

func readRegime(w workload, span time.Duration) phaseCfg {
	return phaseCfg{span: span, writeRate: backgroundWriteRate, window: w.window}
}

// measured is the outcome of a run's measured phases: the write regime
// carries the write-side metrics, the read regime the query metrics.
type measured struct{ write, read *phase }

// endToEnd assembles the user-visible metrics (all but setup_s). The query
// metrics come from the read regime, at reference machine speed. The
// notification and ingest metrics come from the write regime: as measured,
// unless the workload's closed loop is bound by the processor, in which case
// they too are at reference machine speed. raw holds every scaled metric as
// measured, for results.json.
func (m measured) endToEnd(w workload) (vals, raw map[string]float64) {
	vals, raw = map[string]float64{}, map[string]float64{}
	rd, wr := m.read.slices(), m.write.slices()
	vals["queries_per_s"], raw["queries_per_s"] = rateAtRef(rd, func(s slice) float64 { return s.queries })
	vals["query_p50_us"], raw["query_p50_us"] = m.read.percentileAtRef(&m.read.queryAll, 50)
	vals["query_p90_us"], raw["query_p90_us"] = m.read.percentileAtRef(&m.read.queryAll, 90)

	notify, _ := m.write.notifyLatency()
	if w.cpuBound {
		vals["readings_per_s"], raw["readings_per_s"] = rateAtRef(wr, func(s slice) float64 { return s.stored })
		vals["notify_p50_us"], raw["notify_p50_us"] = m.write.percentileAtRef(&notify, 50)
		return vals, raw
	}
	vals["readings_per_s"] = m.write.readingsPerS()
	if n50, err := notify.all().percentile(50); err == nil && !math.IsInf(n50, 0) {
		vals["notify_p50_us"] = n50 // else 0: too few samples, or failures reach the median; the run's checks say which
	}
	return vals, raw
}

// measure runs the workload's two regimes for span in total, the read
// regime first: what a query costs depends on how many points each series
// holds (the head chunk is scanned, sealed chunks are summarised), and only
// before the write regime is that a fixed number — after a closed loop it
// would be whatever the machine managed to store. With trace set, the write
// regime records spans.
func (fx *fixture) measure(o runOpts, span time.Duration, trace bool, res *result) measured {
	writeSpan := time.Duration(float64(span) * o.w.writeShare)
	wcfg, rcfg := writeRegime(o.w, writeSpan, trace), readRegime(o.w, span-writeSpan)
	runtime.GC()
	rd := fx.runPhase(rcfg)
	res.absorb(rd.check())
	runtime.GC()
	wr := fx.runPhase(wcfg)
	res.absorb(wr.check())
	return measured{write: wr, read: rd}
}

// runWorkload performs one complete run: set-up, the measured phases and
// their checks, and — on a trace run — an untraced reference first, then
// the traced phases and the layer probes.
func runWorkload(o runOpts) (*result, error) {
	outDir := filepath.Join("bench", "out", fmt.Sprintf("%s-%s-seed%d-pid%d",
		time.Now().UTC().Format("20060102T150405Z"), o.w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	env := captureEnv(outDir)
	fmt.Fprintf(o.log, "workload %s seed %d seconds %d trace %v\n  %s\n", o.w.name, o.seed, o.seconds, o.trace, env.summary())

	fx, setup, err := setUp(o, outDir)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	fmt.Fprintf(o.log, "  set-up %.3f s\n", setup.Seconds())

	span := time.Duration(o.seconds) * time.Second
	res := &result{Metrics: map[string]metricValue{}, detail: map[string]any{}}
	if !o.trace {
		m := fx.measure(o, span, false, res)
		e2e, raw := m.endToEnd(o.w)
		e2e["setup_s"] = setup.Seconds()
		res.put(endToEnd, e2e)
		m.describe(res.detail)
		res.detail["as_measured"] = raw
	} else {
		// An untraced reference, then the same again traced; the difference
		// on the workload's headline metric is the tracing overhead.
		ref := fx.measure(o, span*2/5, false, res)
		stopTrace, err := fx.startTrace()
		if err != nil {
			return nil, err
		}
		m := fx.measure(o, span*3/5, true, res)
		stopTrace()
		layers := m.layerMetrics(env)
		traced, _ := m.endToEnd(o.w)
		untraced, _ := ref.endToEnd(o.w)
		if refV := untraced[o.w.headline]; refV != 0 {
			layers["env.trace_overhead_pct"] = 100 * (traced[o.w.headline] - refV) / refV
		}
		fx.probeLayers(m.write, layers)
		res.put(perLayer, layers)
		m.describe(res.detail)
		if err := m.write.writeTrace(filepath.Join(outDir, "trace.jsonl")); err != nil {
			return nil, err
		}
		res.detail["end_to_end_traced"] = traced
		res.detail["end_to_end_untraced"] = untraced
	}
	res.Correct = len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintf(o.log, "  CHECK FAILED: %s\n", p)
	}
	res.log(o.log)
	if err := writeJSON(filepath.Join(outDir, "results.json"), map[string]any{
		"workload": o.w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"problems": res.problems, "metrics": res.Metrics, "detail": res.detail,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *result) absorb(v *verdict) {
	r.Attempted += v.readings.attempted + v.queries.attempted
	r.Failed += v.readings.failed + v.queries.failed
	r.problems = append(r.problems, v.problems...)
	add := func(key string, n int) {
		prev, _ := r.detail[key].(int)
		r.detail[key] = prev + n
	}
	add("readings_attempted", v.readings.attempted)
	add("readings_failed", v.readings.failed)
	add("queries_attempted", v.queries.attempted)
	add("queries_failed", v.queries.failed)
}

// put copies the defined metrics out of vals, so a run reports exactly the
// declared set.
func (r *result) put(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
}

func (r *result) log(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// describe adds the numbers behind the metrics: sample counts, how late the
// generator ran, and per 2-s slice the rates and how fast the machine was.
func (m measured) describe(d map[string]any) {
	notify, _ := m.write.notifyLatency()
	d["notify_samples"] = notify.n()
	d["query_samples"] = m.read.queryAll.n()
	d["readings_published"] = m.write.published.Load()
	if late, err := m.write.genLate.percentile(90); err == nil {
		d["gen_late_p90_us"] = late
	}
	type sliceDoc struct {
		PerS    float64 `json:"per_s"`
		Speed   float64 `json:"machine_speed"`
		Steal   float64 `json:"steal_share"`
		CalibUS float64 `json:"calib_kernel_us"`
	}
	doc := func(ph *phase, rate func(slice) float64) []sliceDoc {
		var out []sliceDoc
		for _, sl := range ph.slices() {
			out = append(out, sliceDoc{rate(sl), sl.speed, sl.steal, sl.calib})
		}
		return out
	}
	d["slices_readings"] = doc(m.write, func(sl slice) float64 { return sl.stored })
	d["slices_queries"] = doc(m.read, func(sl slice) float64 { return sl.queries })
	d["write_phase_cpu_s"], d["read_phase_cpu_s"] = m.write.cpuS, m.read.cpuS
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
