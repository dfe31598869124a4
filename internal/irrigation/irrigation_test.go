package irrigation

import (
	"math"
	"testing"

	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/soil"
)

func grid(t *testing.T, n int) model.FieldGrid {
	t.Helper()
	g, err := model.NewFieldGrid(model.GeoPoint{Lat: -12.15, Lon: -45}, n, n, 25)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func field(t *testing.T, g model.FieldGrid, variability float64) *soil.Field {
	t.Helper()
	f, err := soil.NewHeterogeneousField(g, soil.CropSoybean, soil.ProfileSandyLoam, variability, 42)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPivotLayoutGeometry(t *testing.T) {
	g := grid(t, 16)
	l, err := NewPivotLayout(g, 24)
	if err != nil {
		t.Fatal(err)
	}
	// Corners are outside the circle, centre inside.
	if s := l.SectorOfCell(g.CellIndex(0, 0)); s != -1 {
		t.Errorf("corner in sector %d", s)
	}
	if s := l.SectorOfCell(g.CellIndex(8, 8)); s < 0 {
		t.Error("centre cell outside circle")
	}
	if l.SectorOfCell(-1) != -1 || l.SectorOfCell(9999) != -1 {
		t.Error("out-of-range cell got a sector")
	}
	// Circle fill ratio ≈ π/4 of the square.
	frac := float64(l.IrrigatedCells()) / float64(g.NumCells())
	if math.Abs(frac-math.Pi/4) > 0.08 {
		t.Errorf("irrigated fraction %.3f, want ~%.3f", frac, math.Pi/4)
	}
	// Every sector non-empty and disjoint cover.
	seen := make(map[int]bool)
	total := 0
	for s := 0; s < 24; s++ {
		cells := l.CellsOfSector(s)
		if len(cells) == 0 {
			t.Errorf("sector %d empty", s)
		}
		total += len(cells)
		for _, c := range cells {
			if seen[c] {
				t.Fatalf("cell %d in two sectors", c)
			}
			seen[c] = true
		}
	}
	if total != l.IrrigatedCells() {
		t.Errorf("sector cover %d != irrigated %d", total, l.IrrigatedCells())
	}
	if _, err := NewPivotLayout(g, 0); err == nil {
		t.Error("0 sectors accepted")
	}
}

func TestApplyPrescription(t *testing.T) {
	g := grid(t, 8)
	l, _ := NewPivotLayout(g, 4)
	p := Prescription{1, 2, 3, 4}
	vec, err := l.ApplyPrescription(p)
	if err != nil {
		t.Fatal(err)
	}
	for idx, v := range vec {
		s := l.SectorOfCell(idx)
		if s == -1 && v != 0 {
			t.Errorf("cell %d outside circle watered %g", idx, v)
		}
		if s >= 0 && v != p[s] {
			t.Errorf("cell %d sector %d got %g, want %g", idx, s, v, p[s])
		}
	}
	if _, err := l.ApplyPrescription(Prescription{1}); err == nil {
		t.Error("wrong-length prescription accepted")
	}
}

func TestVRIPlannerTriggersOnlyDrySectors(t *testing.T) {
	g := grid(t, 16)
	f := field(t, g, 0)
	l, _ := NewPivotLayout(g, 8)
	planner := NewVRIPlanner(l, PlannerConfig{})

	// Fresh field at FC: nothing to do.
	if p := planner.Plan(f); sum(p) != 0 {
		t.Errorf("plan on saturated field: %v", p)
	}

	// Dry only sector 3's cells by stepping them individually.
	for _, idx := range l.CellsOfSector(3) {
		for i := 0; i < 60; i++ {
			f.Cells[idx].Step(6, 0, 0)
		}
	}
	p := planner.Plan(f)
	if p[3] <= 0 {
		t.Error("dry sector not triggered")
	}
	for s, depth := range p {
		if s != 3 && depth != 0 {
			t.Errorf("wet sector %d prescribed %g mm", s, depth)
		}
	}
	if p[3] > planner.Config.MaxDepthMM {
		t.Errorf("prescription %g exceeds machine limit", p[3])
	}
}

func TestUniformPlannerWatersWholeCircle(t *testing.T) {
	g := grid(t, 16)
	f := field(t, g, 0.2)
	l, _ := NewPivotLayout(g, 8)
	u := NewUniformPlanner(l, PlannerConfig{})

	// Dry the whole field.
	for i := 0; i < 60; i++ {
		f.StepAll(6, 0, nil)
	}
	p := u.Plan(f)
	first := p[0]
	if first <= 0 {
		t.Fatal("uniform planner did not trigger on dry field")
	}
	for s, d := range p {
		if d != first {
			t.Errorf("sector %d depth %g != %g (not uniform)", s, d, first)
		}
	}
}

// The headline property: on a heterogeneous field over a dry season, VRI
// uses less water than uniform for at least equal yield.
func TestVRIBeatsUniformOnHeterogeneousField(t *testing.T) {
	g := grid(t, 16)
	fVRI := field(t, g, 0.3)
	fUni := field(t, g, 0.3) // same seed → identical soils
	l, _ := NewPivotLayout(g, 24)
	vri := NewVRIPlanner(l, PlannerConfig{})
	uni := NewUniformPlanner(l, PlannerConfig{})

	for day := 0; day < soil.CropSoybean.SeasonDays(); day++ {
		et0 := 5.5
		pV := vri.Plan(fVRI)
		vecV, _ := l.ApplyPrescription(pV)
		if _, err := fVRI.StepAll(et0, 0, vecV); err != nil {
			t.Fatal(err)
		}
		pU := uni.Plan(fUni)
		vecU, _ := l.ApplyPrescription(pU)
		if _, err := fUni.StepAll(et0, 0, vecU); err != nil {
			t.Fatal(err)
		}
	}
	waterV := fVRI.FieldTotals().Irrigation
	waterU := fUni.FieldTotals().Irrigation
	yieldV := fVRI.MeanYieldIndex()
	yieldU := fUni.MeanYieldIndex()
	if waterV >= waterU {
		t.Errorf("VRI used %.1f mm, uniform %.1f mm — expected savings", waterV, waterU)
	}
	if yieldV < yieldU-0.03 {
		t.Errorf("VRI yield %.3f fell below uniform %.3f", yieldV, yieldU)
	}
}

func TestPrescriptionMeanDepth(t *testing.T) {
	g := grid(t, 8)
	l, _ := NewPivotLayout(g, 4)
	if got := l.PrescriptionMeanDepth(Prescription{0, 0, 0, 0}); got != 0 {
		t.Errorf("zero prescription mean %g", got)
	}
	// Uniform 10mm everywhere → mean exactly 10.
	if got := l.PrescriptionMeanDepth(Prescription{10, 10, 10, 10}); math.Abs(got-10) > 1e-9 {
		t.Errorf("uniform mean %g", got)
	}
	// One quadrant watered → mean roughly a quarter (sector sizes are
	// approximately equal).
	got := l.PrescriptionMeanDepth(Prescription{20, 0, 0, 0})
	if got < 3 || got > 7 {
		t.Errorf("single-sector mean %g, want ~5", got)
	}
}

func TestPumpModel(t *testing.T) {
	pm := PumpModel{HeadM: 60, Efficiency: 0.7}
	if err := pm.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1000 m³ against 60 m head at 70%: ~233 kWh.
	e := pm.EnergyKWh(1000)
	if e < 200 || e < 0 || e > 280 {
		t.Errorf("energy = %.1f kWh", e)
	}
	// Less water, less energy — linear.
	if pm.EnergyKWh(500) >= e {
		t.Error("energy not monotone in volume")
	}
	if err := (PumpModel{HeadM: -1, Efficiency: 0.5}).Validate(); err == nil {
		t.Error("negative head accepted")
	}
	if err := (PumpModel{HeadM: 50, Efficiency: 1.5}).Validate(); err == nil {
		t.Error("efficiency >1 accepted")
	}
}

func TestVolumeM3(t *testing.T) {
	if v := VolumeM3(10, 50); v != 5000 {
		t.Errorf("10mm on 50ha = %g m³, want 5000", v)
	}
}

func TestDripScheduler(t *testing.T) {
	d := NewDripScheduler(PlannerConfig{})
	b, _ := soil.NewBalance(soil.CropLettuce, soil.ProfileSandyLoam, 0)
	if got := d.Plan(b); got != 0 {
		t.Errorf("saturated zone scheduled %g mm", got)
	}
	for i := 0; i < 25; i++ {
		b.Step(6, 0, 0)
	}
	got := d.Plan(b)
	if got <= 0 {
		t.Fatal("depleted zone not scheduled")
	}
	if got > d.Config.MaxDepthMM {
		t.Errorf("depth %g exceeds limit", got)
	}
}

func TestStageOf(t *testing.T) {
	crop := soil.CropWineGrape // stages of 30, 50, 60 and 40 days
	for day, want := range map[int]int{0: 0, 29: 0, 30: 1, 79: 1, 80: 2, 139: 2, 140: 3, 179: 3, 500: 3} {
		if got := StageOf(crop, day); got != want {
			t.Errorf("StageOf(day %d) = %d, want %d", day, got, want)
		}
	}
}

func TestWineQualityPeaksAtMildStress(t *testing.T) {
	mk := func(trigger float64, irrigate bool) *soil.Balance {
		b, _ := soil.NewBalance(soil.CropWineGrape, soil.ProfileClayLoam, 0)
		d := NewDripScheduler(PlannerConfig{TriggerFrac: trigger, MaxDepthMM: 100})
		for i := 0; i < soil.CropWineGrape.SeasonDays(); i++ {
			depth := 0.0
			if irrigate {
				depth = d.Plan(b)
			}
			b.Step(5, 0, depth)
		}
		return b
	}
	lush := WineQualityIndex(mk(0.9, true))  // irrigated before any stress
	mild := WineQualityIndex(mk(1.5, true))  // regulated deficit: trigger past RAW
	severe := WineQualityIndex(mk(0, false)) // drought
	if !(mild > lush) {
		t.Errorf("mild deficit quality %.3f should beat full supply %.3f", mild, lush)
	}
	if !(mild > severe) {
		t.Errorf("mild deficit quality %.3f should beat drought %.3f", mild, severe)
	}
}

func TestActuatorBank(t *testing.T) {
	a := NewActuatorBank()
	if err := a.Apply(model.Command{Target: "valve-1", Name: "open", Value: 0.8, Issuer: "farmer"}); err != nil {
		t.Fatal(err)
	}
	if got := a.State("valve-1"); got != 0.8 {
		t.Errorf("state = %g", got)
	}
	if err := a.Apply(model.Command{Target: "valve-1", Name: "close", Issuer: "farmer"}); err != nil {
		t.Fatal(err)
	}
	if got := a.State("valve-1"); got != 0 {
		t.Errorf("state after close = %g", got)
	}
	if err := a.Apply(model.Command{Target: "valve-1", Name: "explode", Value: 1}); err == nil {
		t.Error("unknown verb accepted")
	}
	if err := a.Apply(model.Command{Target: "valve-1", Name: "set", Value: -2}); err == nil {
		t.Error("negative value accepted")
	}
	a.Apply(model.Command{Target: "pump-1", Name: "setRate", Value: 5, Issuer: "attacker"})
	if len(a.Journal()) != 3 {
		t.Errorf("journal = %d entries", len(a.Journal()))
	}
	sum := a.IssuerSummary()
	if len(sum) != 2 || sum[0].Issuer != "attacker" || sum[0].Commands != 1 {
		t.Errorf("issuer summary %+v", sum)
	}
	if len(a.States()) != 2 {
		t.Errorf("states = %v", a.States())
	}
}

func sum(p Prescription) float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}
