package core

import (
	"testing"
	"time"
)

func TestExpDeploymentConfigs(t *testing.T) {
	rows, err := ExpDeploymentConfigs(PilotIntercrop, 3, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[Mode]ModeRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		if r.SensorToStore <= 0 || r.DecideLatency <= 0 {
			t.Errorf("%v: non-positive latencies %+v", r.Mode, r)
		}
	}
	// A cloud-only reading reaches the store after a 2 × 2 ms backhaul
	// round trip; a fog reading only has to reach the farm.
	if cloud := byMode[ModeCloudOnly].SensorToStore; cloud < 4*time.Millisecond ||
		cloud <= byMode[ModeFarmFog].SensorToStore {
		t.Errorf("cloud-only sensor→store %v: want ≥ 4ms and above farm-fog's %v",
			cloud, byMode[ModeFarmFog].SensorToStore)
	}
	// The architectural claim: fog decisions are faster than cloud ones
	// (no backhaul round trips).
	if byMode[ModeFarmFog].DecideLatency >= byMode[ModeCloudOnly].DecideLatency {
		t.Errorf("fog decide %v should beat cloud %v",
			byMode[ModeFarmFog].DecideLatency, byMode[ModeCloudOnly].DecideLatency)
	}
}

func TestExpFogOfflineAvailability(t *testing.T) {
	rows, err := ExpFogOfflineAvailability(PilotIntercrop, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var cloud, fogRow AvailabilityRow
	for _, r := range rows {
		if r.Mode == ModeCloudOnly {
			cloud = r
		} else {
			fogRow = r
		}
	}
	if cloud.DecisionFailures != cloud.PartitionCycles {
		t.Errorf("cloud failures %d != partition cycles %d", cloud.DecisionFailures, cloud.PartitionCycles)
	}
	if fogRow.DecisionFailures != 0 {
		t.Errorf("fog failed %d decisions during partition", fogRow.DecisionFailures)
	}
	if !fogRow.BacklogSynced {
		t.Error("fog backlog not synced after heal")
	}
}

func TestExpVRIvsUniform(t *testing.T) {
	rows, err := ExpVRIvsUniform(0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Strategy != "vri" || rows[1].Strategy != "uniform" {
		t.Fatalf("rows = %+v", rows)
	}
	vri, uni := rows[0], rows[1]
	if vri.WaterM3 >= uni.WaterM3 {
		t.Errorf("VRI water %.0f >= uniform %.0f", vri.WaterM3, uni.WaterM3)
	}
	if vri.EnergyKWh >= uni.EnergyKWh {
		t.Errorf("VRI energy %.1f >= uniform %.1f", vri.EnergyKWh, uni.EnergyKWh)
	}
	if vri.YieldIndex < uni.YieldIndex-0.03 {
		t.Errorf("VRI yield %.3f fell below uniform %.3f", vri.YieldIndex, uni.YieldIndex)
	}
}

func TestExpCanalAllocation(t *testing.T) {
	rows, err := ExpCanalAllocation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	prop, fair := rows[0], rows[1]
	if fair.WorstDelivery <= prop.WorstDelivery {
		t.Errorf("maxmin worst %.1f should beat proportional %.1f", fair.WorstDelivery, prop.WorstDelivery)
	}
}

func TestExpDesalinationCost(t *testing.T) {
	rows, err := ExpDesalinationCost(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	smart, naive := rows[0], rows[1]
	if smart.CostEUR >= naive.CostEUR {
		t.Errorf("cost-aware %.0f EUR >= naive %.0f EUR", smart.CostEUR, naive.CostEUR)
	}
	if smart.WaterM3 < naive.WaterM3-1e-6 {
		t.Errorf("cost-aware delivered less water (%.0f vs %.0f)", smart.WaterM3, naive.WaterM3)
	}
}

func TestExpDeficitQuality(t *testing.T) {
	rows, err := ExpDeficitQuality(9)
	if err != nil {
		t.Fatal(err)
	}
	full, rdi := rows[0], rows[1]
	if rdi.IrrigationMM >= full.IrrigationMM {
		t.Errorf("RDI water %.0f >= full %.0f", rdi.IrrigationMM, full.IrrigationMM)
	}
	if rdi.QualityIndex <= full.QualityIndex {
		t.Errorf("RDI quality %.3f <= full %.3f", rdi.QualityIndex, full.QualityIndex)
	}
}

func TestExpDoSDetection(t *testing.T) {
	rows := ExpDoSDetection([]float64{5, 20, 100, 1000})
	if rows[0].Detected {
		t.Error("legitimate rate (5/s under 10/s limit) flagged")
	}
	for _, r := range rows[1:] {
		if !r.Detected {
			t.Errorf("rate %.0f/s not detected", r.AttackRate)
		}
	}
	// Detection latency (in messages) should not grow as attacks intensify.
	if rows[3].DetectAfter > rows[1].DetectAfter {
		t.Errorf("detection latency grew with intensity: %d @1000/s vs %d @20/s",
			rows[3].DetectAfter, rows[1].DetectAfter)
	}
}

func TestExpTamperDetection(t *testing.T) {
	rows := ExpTamperDetection([]float64{0.0, 0.05, 0.15}, 3)
	if rows[0].DetectedBy != "" {
		t.Errorf("honest probe flagged: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.DetectedBy == "" {
			t.Errorf("bias %.2f not detected", r.BiasMagnitude)
		}
	}
	// Bigger lies are caught at least as fast.
	if rows[2].SamplesToFlag > rows[1].SamplesToFlag {
		t.Errorf("large bias slower to flag (%d) than small (%d)",
			rows[2].SamplesToFlag, rows[1].SamplesToFlag)
	}
}

func TestExpSybilDetection(t *testing.T) {
	rows, err := ExpSybilDetection([]int{3, 6}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DetectedCount != r.SwarmSize {
			t.Errorf("swarm %d: detected %d", r.SwarmSize, r.DetectedCount)
		}
		if r.FalsePositives != 0 {
			t.Errorf("swarm %d: %d false positives", r.SwarmSize, r.FalsePositives)
		}
	}
}

func TestExpPartialViewBaseline(t *testing.T) {
	rows := ExpPartialViewBaseline([]int{1, 3, 6, 12}, 5)
	// With one peer, the detector must abstain (partial view): no catch,
	// but also no false positive.
	if rows[0].TamperCaught {
		t.Error("detector judged with insufficient peers")
	}
	// With plenty of peers, the tamper is caught.
	last := rows[len(rows)-1]
	if !last.TamperCaught {
		t.Error("dense deployment missed the tamper")
	}
	for _, r := range rows {
		if r.FalsePositive {
			t.Errorf("density %d: false positive on honest probe", r.Probes)
		}
	}
}

func TestExpMobileFogValue(t *testing.T) {
	rows, err := ExpMobileFogValue(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	farm, mobile := rows[0], rows[1]
	if mobile.SurveysDone == 0 {
		t.Fatal("mobile-fog ran no surveys")
	}
	if mobile.StressDays >= farm.StressDays {
		t.Errorf("drone surveys did not reduce stress: %.2f vs %.2f",
			mobile.StressDays, farm.StressDays)
	}
	if mobile.YieldIndex < farm.YieldIndex {
		t.Errorf("mobile-fog yield %.3f below farm-fog %.3f",
			mobile.YieldIndex, farm.YieldIndex)
	}
	if _, err := ExpMobileFogValue(0, 7); err == nil {
		t.Error("zero probes accepted")
	}
}

func TestSurveyOnceMobileFog(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeMobileFog, false)
	m, err := p.SurveyOnce(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Values) != p.Field.Grid.NumCells() {
		t.Errorf("ndvi cells = %d", len(m.Values))
	}
	e, err := p.Context.GetEntity("urn:swamp:matopiba:ndvi")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Attrs["ndviMean"].Float(); !ok {
		t.Error("ndviMean missing")
	}
	// Drone is rejected on non-mobile-fog platforms.
	p2 := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	if _, err := p2.SurveyOnce(t0); err == nil {
		t.Error("survey allowed outside mobile-fog mode")
	}
}
