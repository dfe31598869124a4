package core

import (
	"fmt"
	"io"
	"time"
)

// WriteExperiments runs the experiment suite and writes every table to w,
// as `swamp-sim -experiments` prints it. EXP-A1's two columns are wall
// clock latencies; with timings false they print as "-", which leaves the
// output a function of the seeds alone (the golden test compares it).
func WriteExperiments(w io.Writer, timings bool) error {
	printf := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	printf("== EXP-A1: deployment configurations (Intercrop, 5 cycles, 2ms backhaul) ==\n")
	a1, err := ExpDeploymentConfigs(PilotIntercrop, 5, 2*time.Millisecond)
	if err != nil {
		return err
	}
	printf("%-12s %14s %14s\n", "MODE", "INGEST", "DECIDE")
	for _, r := range a1 {
		ingest, decide := "-", "-"
		if timings {
			ingest = r.SensorToStore.Round(time.Microsecond).String()
			decide = r.DecideLatency.Round(time.Microsecond).String()
		}
		printf("%-12s %14s %14s\n", r.Mode, ingest, decide)
	}

	printf("\n== EXP-A2: availability through Internet disconnection (middle third cut) ==\n")
	a2, err := ExpFogOfflineAvailability(PilotIntercrop, 9)
	if err != nil {
		return err
	}
	printf("%-12s %8s %10s %9s %7s\n", "MODE", "CYCLES", "PARTITION", "FAILURES", "SYNCED")
	for _, r := range a2 {
		printf("%-12s %8d %10d %9d %7v\n", r.Mode, r.Cycles, r.PartitionCycles, r.DecisionFailures, r.BacklogSynced)
	}

	printf("\n== EXP-A3: mobile-fog (drone NDVI) value with sparse probes (MATOPIBA) ==\n")
	a3, err := ExpMobileFogValue(6, 7)
	if err != nil {
		return err
	}
	printf("%-12s %8s %12s %14s %8s %9s\n", "MODE", "PROBES", "STRESS-DAYS", "IRRIGATION mm", "YIELD", "SURVEYS")
	for _, r := range a3 {
		printf("%-12s %8d %12.2f %14.1f %8.3f %9d\n",
			r.Mode, r.Probes, r.StressDays, r.Irrigation, r.YieldIndex, r.SurveysDone)
	}

	printf("\n== EXP-P1: VRI vs uniform pivot (MATOPIBA, variability 0.3) ==\n")
	p1, err := ExpVRIvsUniform(0.3, 42)
	if err != nil {
		return err
	}
	writeStrategies(w, p1)

	printf("\n== EXP-P2: canal allocation under scarcity (CBEC) ==\n")
	p2, err := ExpCanalAllocation()
	if err != nil {
		return err
	}
	printf("%-14s %12s %12s %8s\n", "ALLOCATOR", "TOTAL m3", "WORST m3", "MIN-SAT")
	for _, r := range p2 {
		printf("%-14s %12.1f %12.1f %8.2f\n", r.Allocator, r.TotalDelivered, r.WorstDelivery, r.MinSatisfaction)
	}

	printf("\n== EXP-P3: desalination-aware sourcing, 90 days (Intercrop) ==\n")
	p3, err := ExpDesalinationCost(90, 5)
	if err != nil {
		return err
	}
	printf("%-14s %12s %12s %12s\n", "POLICY", "WATER m3", "COST EUR", "SHORTFALL")
	for _, r := range p3 {
		printf("%-14s %12.0f %12.0f %12.0f\n", r.Policy, r.WaterM3, r.CostEUR, r.Shortfall)
	}

	printf("\n== EXP-P4: regulated deficit vs full supply (Guaspari, dry window) ==\n")
	p4, err := ExpDeficitQuality(9)
	if err != nil {
		return err
	}
	writeStrategies(w, p4)

	printf("\n== EXP-S1: DoS detection latency (limit 10 msg/s, 10s window) ==\n")
	s1 := ExpDoSDetection([]float64{5, 20, 100, 1000})
	printf("%-12s %9s %13s\n", "ATTACK msg/s", "DETECTED", "AFTER (msgs)")
	for _, r := range s1 {
		printf("%-12.0f %9v %13d\n", r.AttackRate, r.Detected, r.DetectAfter)
	}

	printf("\n== EXP-S2: sensor tamper detection (10 honest peers) ==\n")
	s2 := ExpTamperDetection([]float64{0.0, 0.03, 0.05, 0.1, 0.2}, 3)
	printf("%-10s %-14s %14s\n", "BIAS", "DETECTED BY", "SAMPLES")
	for _, r := range s2 {
		by := r.DetectedBy
		if by == "" {
			by = "(none)"
		}
		printf("%-10.2f %-14s %14d\n", r.BiasMagnitude, by, r.SamplesToFlag)
	}

	printf("\n== EXP-S3: Sybil swarm detection ==\n")
	s3, err := ExpSybilDetection([]int{3, 6, 12}, []float64{0, 0.02})
	if err != nil {
		return err
	}
	printf("%-7s %-8s %10s %8s\n", "SWARM", "JITTER", "DETECTED", "FALSE+")
	for _, r := range s3 {
		printf("%-7d %-8.3f %10d %8d\n", r.SwarmSize, r.JitterStd, r.DetectedCount, r.FalsePositives)
	}

	printf("\n== EXP-S6: behavioral baseline vs sensor density (partial view) ==\n")
	s6 := ExpPartialViewBaseline([]int{1, 2, 4, 8, 16}, 5)
	printf("%-8s %10s %8s %8s\n", "PROBES", "COVERAGE", "CAUGHT", "FALSE+")
	for _, r := range s6 {
		printf("%-8d %9.0f%% %8v %8v\n", r.Probes, r.CoveragePct, r.TamperCaught, r.FalsePositive)
	}
	printf("\n(EXP-S4 crypto overhead and EXP-S5 auth pipeline are timing benches:\n")
	printf(" go test -bench 'CryptoOverhead|AuthPipeline' -benchmem .)\n")
	return nil
}

func writeStrategies(w io.Writer, rows []StrategyRow) {
	fmt.Fprintf(w, "%-18s %10s %10s %10s %8s %8s %8s\n",
		"STRATEGY", "WATER mm", "WATER m3", "ENERGY", "YIELD", "QUALITY", "STRESS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10.1f %10.0f %10.1f %8.3f %8.3f %8.1f\n",
			r.Strategy, r.IrrigationMM, r.WaterM3, r.EnergyKWh, r.YieldIndex, r.QualityIndex, r.StressDays)
	}
}
