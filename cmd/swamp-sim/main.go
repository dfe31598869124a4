// Command swamp-sim runs what nothing else in the repository provides: a
// full pilot season through the real platform pipeline, the derived
// experiment suite (every table, printed), and three pass/fail drills that
// exit non-zero when their invariant breaks — the cluster leader-kill
// drill, the tenant-isolation drill and the kill -9 crash harness.
// Performance numbers come from bench/ (end to end and per layer) and from
// `go test -bench` at the repository root, not from here.
//
// Usage:
//
//	swamp-sim -pilot matopiba -mode farm-fog        # one season
//	swamp-sim -experiments                          # all experiment tables
//	swamp-sim -clusterbench                         # leader kill, zero acked-write loss
//	swamp-sim -tenantbench                          # 1 abusive vs N polite tenants
//	swamp-sim -walbench -walingest -waldir D -walmanifest M       # crash-harness producer
//	swamp-sim -walbench -walverify -waldir D -walmanifest M       # crash-harness checker
//
// Platform knobs (-pilot, -mode, -sealed, -seed, -cluster-partitions, ...)
// come from the shared config schema (internal/config), so swampd and
// swamp-sim accept identical spellings and SWAMP_* environment variables
// work here too. Drill-shape flags (-devices, -tbpolite, ...) stay local to
// this command.
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
	var (
		experiments = flag.Bool("experiments", false, "run the full experiment suite instead of a season")

		walbench    = flag.Bool("walbench", false, "run the kill -9 crash harness (needs -walingest or -walverify)")
		waldir      = flag.String("waldir", "", "walbench: WAL directory")
		walmanifest = flag.String("walmanifest", "", "walbench: acked-writes manifest path")
		walingest   = flag.Bool("walingest", false, "walbench: producer — sustained acked ingest until killed")
		walverify   = flag.Bool("walverify", false, "walbench: checker — recover and compare to the manifest")
		devices     = flag.Int("devices", 100_000, "walbench: simulated device count")
		walbatch    = flag.Int("walbatch", 8, "walbench: telemetry points per acked ingest batch")
		walworkers  = flag.Int("walworkers", 256, "walbench: concurrent producers sharing each group commit")
		walsnap     = flag.Duration("walsnap", 0, "walbench: snapshot cadence during ingest (0 = 2s)")

		tenantbench = flag.Bool("tenantbench", false, "run the tenant-isolation drill (1 abusive tenant vs a polite fleet)")
		tbpolite    = flag.Int("tbpolite", 8, "tenantbench: polite tenants, each publishing at half quota")
		tbquota     = flag.Int("tbquota", 100, "tenantbench: per-tenant msgs/s quota")
		tbduration  = flag.Duration("tbduration", 4*time.Second, "tenantbench: length of each measured phase")

		clusterbench = flag.Bool("clusterbench", false, "run the cluster drill: replicated ingest, leader kill, zero acked-write loss")
		clnodes      = flag.Int("clnodes", 3, "clusterbench: cluster size for the replicated phases (min 3)")
		cldevices    = flag.Int("cldevices", 32, "clusterbench: devices per node (the cluster carries clnodes× the baseline population)")
		clpoints     = flag.Int("clpoints", 51_200, "clusterbench: telemetry points through the single-node baseline")
		clbatch      = flag.Int("clbatch", 32, "clusterbench: points per device emission")
		clinterval   = flag.Duration("clinterval", 60*time.Millisecond, "clusterbench: per-device sampling interval")
	)
	overlay := config.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// Platform knobs resolve through the shared layered loader, so
	// -cluster-partitions / SWAMP_SERVER_PILOT / etc. mean the same thing
	// here as in swampd.
	cfg, _, err := (&config.Loader{Flags: overlay}).Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "swamp-sim:", err)
		os.Exit(1)
	}

	switch {
	case *experiments:
		err = runExperiments()
	case *walbench:
		err = runWALBench(walBenchConfig{
			Dir: *waldir, Batch: *walbatch, Workers: *walworkers,
			Devices: *devices, Ingest: *walingest, Verify: *walverify,
			Manifest: *walmanifest, SnapIntv: *walsnap,
		})
	case *tenantbench:
		err = runTenantBench(tenantBenchConfig{
			Polite: *tbpolite, QuotaMsg: *tbquota, Duration: *tbduration,
		})
	case *clusterbench:
		err = runClusterBench(clusterBenchConfig{
			Nodes: *clnodes, Partitions: cfg.Cluster.Partitions,
			Devices: *cldevices, Points: *clpoints, Batch: *clbatch,
			Interval: *clinterval, AckTimeout: cfg.Cluster.AckTimeout,
		})
	default:
		err = runSeason(cfg)
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
