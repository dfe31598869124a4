// Command bench is the end-to-end SWAMP pipeline benchmark: it wires the
// platform the way cmd/swampd does, drives it from outside over one MQTT
// connection and a handful of keep-alive HTTP connections with a webhook sink
// on the far side, checks every output, and reports the end-to-end metrics
// (or, on a trace run, the per-layer metrics). See README.md beside this file.
//
// The benchmark contract's form (what bench/run.sh is invoked with):
//
//	bench --workload steady_fleet --seed 1 --seconds 24 --trace 0
//
// prints progress, then as its last line one JSON object
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
//
// Two more modes serve people:
//
//	bench -repeat 5 -sets 2   # the self-check: do two sets of runs agree?
//	bench -smoke              # 3 s per workload, all checks, no numbers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 24, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = the trace run: per-layer metrics instead of end-to-end ones")
		repeat  = flag.Int("repeat", 0, "self-check: runs per workload per set")
		sets    = flag.Int("sets", 2, "self-check: number of sets")
		smoke   = flag.Bool("smoke", false, "run every workload for 3 s with all correctness checks and no numbers")
	)
	flag.Parse()
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fatalf("run from the repository root (BENCHMARK.json not found): %v", err)
	}
	switch {
	case *smoke:
		os.Exit(runSmoke(*seed))
	case *repeat > 0:
		os.Exit(selfCheck(*repeat, *sets, *seed, *seconds))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	res, err := runWorkload(runOpts{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, log: os.Stdout})
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runSmoke runs each workload briefly with every check on: for the verify
// skill and CI, where only "does the whole pipeline still work" matters.
func runSmoke(seed int64) int {
	code := 0
	for _, w := range workloads {
		res, err := runWorkload(runOpts{w: w, seed: seed, seconds: 3, smoke: true, log: io.Discard})
		switch {
		case err != nil:
			fmt.Printf("%-16s FAIL %v\n", w.name, err)
			code = 1
		case !res.Correct:
			fmt.Printf("%-16s FAIL %s\n", w.name, strings.Join(res.problems, "; "))
			code = 1
		default:
			fmt.Printf("%-16s ok   %d operations checked, 0 failed\n", w.name, res.Attempted)
		}
	}
	return code
}
