// Command swamp-sim runs a full pilot season through the real platform
// pipeline, or the derived experiment suite (every table, printed).
// Performance numbers come from bench/ (end to end and per layer) and from
// `go test -bench` at the repository root, not from here; the durability,
// cluster and admission invariants are go tests in the packages that own
// them.
//
// Usage:
//
//	swamp-sim -pilot matopiba -mode farm-fog        # one season
//	swamp-sim -experiments                          # all experiment tables
//
// Platform knobs (-pilot, -mode, -sealed, -seed, -wal-dir, ...) come from
// the shared config schema (internal/config), so swampd and swamp-sim
// accept identical spellings and SWAMP_* environment variables work here
// too.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/swamp-project/swamp/internal/config"
	"github.com/swamp-project/swamp/internal/core"
)

func main() {
	experiments := flag.Bool("experiments", false, "run the full experiment suite instead of a season")
	overlay := config.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// Platform knobs resolve through the shared layered loader, so
	// -wal-dir / SWAMP_SERVER_PILOT / etc. mean the same thing here as in
	// swampd.
	cfg, _, err := (&config.Loader{Flags: overlay}).Load()
	if err == nil {
		if *experiments {
			err = runExperiments()
		} else {
			err = runSeason(cfg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swamp-sim:", err)
		os.Exit(1)
	}
}

func runSeason(cfg *config.Config) error {
	opts, err := core.OptionsFromConfig(cfg)
	if err != nil {
		return err
	}
	p, err := core.New(opts)
	if err != nil {
		return err
	}
	defer p.Close()

	fmt.Printf("running %s season (%d days) in %s mode, sealed=%v ...\n",
		opts.Pilot.Name, opts.Pilot.Crop.SeasonDays(), opts.Mode, opts.Sealed)
	start := time.Now()
	rep, err := p.RunSeason(core.SeasonHooks{})
	if err != nil {
		return err
	}
	fmt.Printf("simulated in %v\n\n%s", time.Since(start).Round(time.Millisecond), rep)
	return nil
}

func runExperiments() error {
	fmt.Println("== EXP-A1: deployment configurations (Intercrop, 5 cycles, 2ms backhaul) ==")
	a1, err := core.ExpDeploymentConfigs(core.PilotIntercrop, 5, 2*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %14s %14s\n", "MODE", "INGEST", "DECIDE")
	for _, r := range a1 {
		fmt.Printf("%-12s %14v %14v\n", r.Mode, r.SensorToStore.Round(time.Microsecond), r.DecideLatency.Round(time.Microsecond))
	}

	fmt.Println("\n== EXP-A2: availability through Internet disconnection (middle third cut) ==")
	a2, err := core.ExpFogOfflineAvailability(core.PilotIntercrop, 9)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %8s %10s %9s %7s\n", "MODE", "CYCLES", "PARTITION", "FAILURES", "SYNCED")
	for _, r := range a2 {
		fmt.Printf("%-12s %8d %10d %9d %7v\n", r.Mode, r.Cycles, r.PartitionCycles, r.DecisionFailures, r.BacklogSynced)
	}

	fmt.Println("\n== EXP-A3: mobile-fog (drone NDVI) value with sparse probes (MATOPIBA) ==")
	a3, err := core.ExpMobileFogValue(6, 7)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %8s %12s %14s %8s %9s\n", "MODE", "PROBES", "STRESS-DAYS", "IRRIGATION mm", "YIELD", "SURVEYS")
	for _, r := range a3 {
		fmt.Printf("%-12s %8d %12.2f %14.1f %8.3f %9d\n",
			r.Mode, r.Probes, r.StressDays, r.Irrigation, r.YieldIndex, r.SurveysDone)
	}

	fmt.Println("\n== EXP-P1: VRI vs uniform pivot (MATOPIBA, variability 0.3) ==")
	p1, err := core.ExpVRIvsUniform(0.3, 42)
	if err != nil {
		return err
	}
	printStrategies(p1)

	fmt.Println("\n== EXP-P2: canal allocation under scarcity (CBEC) ==")
	p2, err := core.ExpCanalAllocation()
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s %8s\n", "ALLOCATOR", "TOTAL m3", "WORST m3", "MIN-SAT")
	for _, r := range p2 {
		fmt.Printf("%-14s %12.1f %12.1f %8.2f\n", r.Allocator, r.TotalDelivered, r.WorstDelivery, r.MinSatisfaction)
	}

	fmt.Println("\n== EXP-P3: desalination-aware sourcing, 90 days (Intercrop) ==")
	p3, err := core.ExpDesalinationCost(90, 5)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s %12s\n", "POLICY", "WATER m3", "COST EUR", "SHORTFALL")
	for _, r := range p3 {
		fmt.Printf("%-14s %12.0f %12.0f %12.0f\n", r.Policy, r.WaterM3, r.CostEUR, r.Shortfall)
	}

	fmt.Println("\n== EXP-P4: regulated deficit vs full supply (Guaspari, dry window) ==")
	p4, err := core.ExpDeficitQuality(9)
	if err != nil {
		return err
	}
	printStrategies(p4)

	fmt.Println("\n== EXP-S1: DoS detection latency (limit 10 msg/s, 10s window) ==")
	s1 := core.ExpDoSDetection([]float64{5, 20, 100, 1000})
	fmt.Printf("%-12s %9s %13s\n", "ATTACK msg/s", "DETECTED", "AFTER (msgs)")
	for _, r := range s1 {
		fmt.Printf("%-12.0f %9v %13d\n", r.AttackRate, r.Detected, r.DetectAfter)
	}

	fmt.Println("\n== EXP-S2: sensor tamper detection (10 honest peers) ==")
	s2 := core.ExpTamperDetection([]float64{0.0, 0.03, 0.05, 0.1, 0.2}, 3)
	fmt.Printf("%-10s %-14s %14s\n", "BIAS", "DETECTED BY", "SAMPLES")
	for _, r := range s2 {
		by := r.DetectedBy
		if by == "" {
			by = "(none)"
		}
		fmt.Printf("%-10.2f %-14s %14d\n", r.BiasMagnitude, by, r.SamplesToFlag)
	}

	fmt.Println("\n== EXP-S3: Sybil swarm detection ==")
	s3, err := core.ExpSybilDetection([]int{3, 6, 12}, []float64{0, 0.02})
	if err != nil {
		return err
	}
	fmt.Printf("%-7s %-8s %10s %8s\n", "SWARM", "JITTER", "DETECTED", "FALSE+")
	for _, r := range s3 {
		fmt.Printf("%-7d %-8.3f %10d %8d\n", r.SwarmSize, r.JitterStd, r.DetectedCount, r.FalsePositives)
	}

	fmt.Println("\n== EXP-S6: behavioral baseline vs sensor density (partial view) ==")
	s6 := core.ExpPartialViewBaseline([]int{1, 2, 4, 8, 16}, 5)
	fmt.Printf("%-8s %10s %8s %8s\n", "PROBES", "COVERAGE", "CAUGHT", "FALSE+")
	for _, r := range s6 {
		fmt.Printf("%-8d %9.0f%% %8v %8v\n", r.Probes, r.CoveragePct, r.TamperCaught, r.FalsePositive)
	}
	fmt.Println("\n(EXP-S4 crypto overhead and EXP-S5 auth pipeline are timing benches:")
	fmt.Println(" go test -bench 'CryptoOverhead|AuthPipeline' -benchmem .)")
	return nil
}

func printStrategies(rows []core.StrategyRow) {
	fmt.Printf("%-18s %10s %10s %10s %8s %8s %8s\n",
		"STRATEGY", "WATER mm", "WATER m3", "ENERGY", "YIELD", "QUALITY", "STRESS")
	for _, r := range rows {
		fmt.Printf("%-18s %10.1f %10.0f %10.1f %8.3f %8.3f %8.1f\n",
			r.Strategy, r.IrrigationMM, r.WaterM3, r.EnergyKWh, r.YieldIndex, r.QualityIndex, r.StressDays)
	}
}
