package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(raw, &bf)
}

// setStats summarises one set's values of one (workload, metric) pair.
type setStats struct {
	median, q1, q3, lo, hi float64
}

func summarise(vals []float64) setStats {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return setStats{median: median(s), q1: q1, q3: q3, lo: s[0], hi: s[len(s)-1]}
}

// spread is the interquartile distance as a share of the median, the
// quantity the benchmark contract's acceptance is defined by; rng is the
// full range as a share of the median, which the self-check gates on: with
// five runs a set the quartiles would forgive the two outermost.
func (s setStats) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

func (s setStats) rng() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.hi - s.lo) / s.median
}

// worsening is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// pairVerdict judges one (workload, metric) pair across sets: every set's
// range must stay within the metric's bound, and no later set's median may
// be worse than the first's by more than the bound.
func pairVerdict(sets []setStats, spec metricSpec) (problems []string) {
	for i, s := range sets {
		if s.rng() > spec.Bound {
			problems = append(problems, fmt.Sprintf("set %d range %.3f > bound %.2f", i+1, s.rng(), spec.Bound))
		}
		if i > 0 {
			if w := worsening(sets[0].median, s.median, spec.Better); w > spec.Bound {
				problems = append(problems, fmt.Sprintf("set %d median worse than set 1 by %.3f > bound %.2f", i+1, w, spec.Bound))
			}
		}
	}
	return problems
}

// selfCheck runs every workload repeat times per set, each run with its own
// seed, alternating the workload order from one round to the next, and
// prints per (workload, metric): each set's median, quartiles and range, and
// the ratio between set medians. It is the check the benchmark's own
// acceptance criterion is read from: two sets of the same code must agree.
func selfCheck(repeat, sets int, seed int64, seconds int) int {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	// vals[workload][metric][set] = values
	vals := map[string]map[string][][]float64{}
	failedRuns := 0
	round := 0
	for set := 0; set < sets; set++ {
		for r := 0; r < repeat; r++ {
			order := append([]workload(nil), workloads...)
			if round%2 == 1 {
				for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
					order[i], order[j] = order[j], order[i]
				}
			}
			round++
			for _, w := range order {
				runSeed := seed + int64(set*repeat+r)
				res, err := runInOwnProcess(w, runSeed, seconds)
				if err != nil {
					fmt.Printf("set %d run %d %-16s seed %d FAILED: %v\n", set+1, r+1, w.name, runSeed, err)
					failedRuns++
					continue
				}
				fmt.Printf("set %d run %d %-16s seed %d ok\n", set+1, r+1, w.name, runSeed)
				if vals[w.name] == nil {
					vals[w.name] = map[string][][]float64{}
				}
				for name, m := range res.Metrics {
					if vals[w.name][name] == nil {
						vals[w.name][name] = make([][]float64, sets)
					}
					vals[w.name][name][set] = append(vals[w.name][name][set], m.Value)
				}
			}
		}
	}

	bad := failedRuns
	fmt.Printf("\n%-16s %-16s %-4s %12s %12s %12s %12s %12s %8s %8s\n",
		"workload", "metric", "set", "median", "q1", "q3", "min", "max", "iqr/med", "rng/med")
	for _, w := range workloads {
		for _, spec := range bf.EndToEnd {
			var stats []setStats
			for set, v := range vals[w.name][spec.Name] {
				if len(v) == 0 {
					continue
				}
				s := summarise(v)
				stats = append(stats, s)
				fmt.Printf("%-16s %-16s %-4d %12.3f %12.3f %12.3f %12.3f %12.3f %8.3f %8.3f\n",
					w.name, spec.Name, set+1, s.median, s.q1, s.q3, s.lo, s.hi, s.spread(), s.rng())
			}
			if len(stats) > 1 {
				fmt.Printf("%-16s %-16s      set2/set1 median ratio %.4f (bound %.2f, %s is better)\n",
					w.name, spec.Name, stats[1].median/stats[0].median, spec.Bound, spec.Better)
			}
			for _, p := range pairVerdict(stats, spec) {
				fmt.Printf("%-16s %-16s      DISAGREES: %s\n", w.name, spec.Name, p)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("\nself-check FAILED: %d problems\n", bad)
		return 1
	}
	fmt.Println("\nself-check passed: every set's range and every pair of set medians is within its bound")
	return 0
}

// runInOwnProcess runs one workload the way the benchmark's users do: this
// binary again, in a process of its own, with the contract's arguments. Runs
// that share a process share a heap, and disagreed more than separate ones.
func runInOwnProcess(w workload, seed int64, seconds int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("no result line (%v): %v", runErr, err)
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("checks failed (%v):\n%s", runErr, out)
	}
	return &res, nil
}
