package core

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/swamp-project/swamp/internal/anomaly"
	"github.com/swamp-project/swamp/internal/attack"
	"github.com/swamp-project/swamp/internal/irrigation"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/soil"
	"github.com/swamp-project/swamp/internal/waterdist"
	"github.com/swamp-project/swamp/internal/weather"
)

// weatherGen aliases the generator so experiment helpers read cleanly.
type weatherGen = *weather.Generator

func newWeatherGen(p Pilot, seed int64) (weatherGen, error) {
	return weather.NewGenerator(p.Climate, seed)
}

// This file is the experiment harness: one function per derived experiment
// (the paper has no tables/figures of its own — see DESIGN.md). The root
// bench file and `swamp-sim -experiments` both call these and print the
// same rows.

// ModeRow is one EXP-A1 result line.
type ModeRow struct {
	Mode          Mode
	Cycles        int
	SensorToStore time.Duration // median northbound latency
	DecideLatency time.Duration // median decision-loop latency
}

// ExpDeploymentConfigs (EXP-A1) measures the sensor→store and decision
// latencies of the three deployment configurations with a realistic
// backhaul latency.
func ExpDeploymentConfigs(pilot Pilot, cycles int, backhaul time.Duration) ([]ModeRow, error) {
	var rows []ModeRow
	for _, mode := range []Mode{ModeCloudOnly, ModeFarmFog, ModeMobileFog} {
		p, err := New(Options{Pilot: pilot, Mode: mode, Seed: 11, BackhaulLatency: backhaul})
		if err != nil {
			return nil, err
		}
		at := time.Date(2026, 6, 1, 6, 0, 0, 0, time.UTC)
		dryField(p) // ensure decisions have work to do
		var pumpTotal, decideTotal time.Duration
		for c := 0; c < cycles; c++ {
			start := time.Now()
			if err := p.PumpOnce(at, 10*time.Second); err != nil {
				p.Close()
				return nil, fmt.Errorf("core: exp-a1 %v: %w", mode, err)
			}
			pumpTotal += time.Since(start)

			start = time.Now()
			if _, err := p.DecideOnce(at); err != nil {
				p.Close()
				return nil, fmt.Errorf("core: exp-a1 %v decide: %w", mode, err)
			}
			decideTotal += time.Since(start)
			at = at.Add(time.Hour)
		}
		rows = append(rows, ModeRow{
			Mode: mode, Cycles: cycles,
			SensorToStore: pumpTotal / time.Duration(cycles),
			DecideLatency: decideTotal / time.Duration(cycles),
		})
		p.Close()
	}
	return rows, nil
}

func dryField(p *Platform) {
	for i := 0; i < 60; i++ {
		p.Field.StepAll(6, 0, nil)
	}
}

// AvailabilityRow is the EXP-A2 result.
type AvailabilityRow struct {
	Mode             Mode
	Cycles           int
	PartitionCycles  int
	DecisionFailures int
	BacklogSynced    bool
}

// ExpFogOfflineAvailability (EXP-A2) cuts the Internet for the middle
// third of a run and counts decision-loop failures per mode.
func ExpFogOfflineAvailability(pilot Pilot, cycles int) ([]AvailabilityRow, error) {
	var rows []AvailabilityRow
	for _, mode := range []Mode{ModeCloudOnly, ModeFarmFog} {
		p, err := New(Options{Pilot: pilot, Mode: mode, Seed: 13})
		if err != nil {
			return nil, err
		}
		dryField(p)
		at := time.Date(2026, 6, 1, 6, 0, 0, 0, time.UTC)
		row := AvailabilityRow{Mode: mode, Cycles: cycles}
		cutFrom, cutTo := cycles/3, 2*cycles/3
		for c := 0; c < cycles; c++ {
			if c == cutFrom {
				p.Backhaul.SetPartitioned(true)
			}
			if c == cutTo {
				p.Backhaul.SetPartitioned(false)
			}
			if c >= cutFrom && c < cutTo {
				row.PartitionCycles++
			}
			if err := p.PumpOnce(at, 10*time.Second); err != nil {
				p.Close()
				return nil, fmt.Errorf("core: exp-a2: %w", err)
			}
			if _, err := p.DecideOnce(at); err != nil {
				row.DecisionFailures++
			}
			at = at.Add(time.Hour)
		}
		if mode != ModeCloudOnly {
			// Every pumped reading has reached the fog node before its
			// backlog is judged.
			p.WaitPipeline(uint64(cycles*len(p.Probes)), 10*time.Second)
			p.Fog.Flush()
			row.BacklogSynced = p.Fog.Stats().Buffered == 0
		} else {
			row.BacklogSynced = true
		}
		rows = append(rows, row)
		p.Close()
	}
	return rows, nil
}

// StrategyRow is one EXP-P1/P4 line.
type StrategyRow struct {
	Strategy     string
	IrrigationMM float64
	WaterM3      float64
	EnergyKWh    float64
	YieldIndex   float64
	QualityIndex float64
	StressDays   float64
}

// ExpVRIvsUniform (EXP-P1) runs the MATOPIBA season twice on identical
// heterogeneous soil — VRI vs uniform pivot — and reports water, energy
// and yield. This is a pure-simulation fast path (no MQTT), isolating the
// agronomic effect.
func ExpVRIvsUniform(variability float64, seed int64) ([]StrategyRow, error) {
	pilot := PilotMATOPIBA
	grid, err := model.NewFieldGrid(model.GeoPoint{Lat: pilot.Climate.LatitudeDeg, Lon: -45},
		pilot.GridRows, pilot.GridCols, pilot.CellSizeM)
	if err != nil {
		return nil, err
	}
	mk := func() (*soil.Field, error) {
		return soil.NewHeterogeneousField(grid, pilot.Crop, pilot.Soil, variability, seed)
	}
	layout, err := irrigation.NewPivotLayout(grid, pilot.Sectors)
	if err != nil {
		return nil, err
	}
	areaCellHa := pilot.CellSizeM * pilot.CellSizeM / 10_000

	run := func(name string, plan func(*soil.Field) irrigation.Prescription) (StrategyRow, error) {
		field, err := mk()
		if err != nil {
			return StrategyRow{}, err
		}
		gen, err := newPilotWeather(pilot, seed+1)
		if err != nil {
			return StrategyRow{}, err
		}
		var volume float64
		for day := 0; day < pilot.Crop.SeasonDays(); day++ {
			doy := (pilot.SeasonStartDOY+day-1)%365 + 1
			wd := gen.Next(doy)
			et0, err := soil.ET0PenmanMonteith(soil.ET0Input{
				TminC: wd.TminC, TmaxC: wd.TmaxC, RHMeanPct: wd.RHMeanPct,
				WindMS: wd.WindMS, SolarMJ: wd.SolarMJ,
				LatitudeDeg: pilot.Climate.LatitudeDeg, AltitudeM: pilot.Climate.AltitudeM, DOY: doy,
			})
			if err != nil {
				return StrategyRow{}, err
			}
			pres := plan(field)
			vec, err := layout.ApplyPrescription(pres)
			if err != nil {
				return StrategyRow{}, err
			}
			for _, mm := range vec {
				volume += mm * areaCellHa * 10
			}
			if _, err := field.StepAll(et0, wd.RainMM, vec); err != nil {
				return StrategyRow{}, err
			}
		}
		tot := field.FieldTotals()
		return StrategyRow{
			Strategy: name, IrrigationMM: tot.Irrigation, WaterM3: volume,
			EnergyKWh:  pilot.Pump.EnergyKWh(volume),
			YieldIndex: field.MeanYieldIndex(), StressDays: tot.StressDays,
		}, nil
	}

	cfg := irrigation.PlannerConfig{}
	vri := irrigation.NewVRIPlanner(layout, cfg)
	uni := irrigation.NewUniformPlanner(layout, cfg)
	rowV, err := run("vri", vri.Plan)
	if err != nil {
		return nil, err
	}
	rowU, err := run("uniform", uni.Plan)
	if err != nil {
		return nil, err
	}
	return []StrategyRow{rowV, rowU}, nil
}

// newPilotWeather builds the pilot's weather generator (shared helper).
func newPilotWeather(p Pilot, seed int64) (weatherGen, error) {
	return newWeatherGen(p, seed)
}

// CanalRow is one EXP-P2 line.
type CanalRow struct {
	Allocator       string
	TotalDelivered  float64
	WorstDelivery   float64
	MinSatisfaction float64
}

// ExpCanalAllocation (EXP-P2) compares proportional vs max-min fair
// allocation on the CBEC-style canal tree under scarcity.
func ExpCanalAllocation() ([]CanalRow, error) {
	n, err := waterdist.NewNetwork("src")
	if err != nil {
		return nil, err
	}
	add := func(parent, id string, kind waterdist.NodeKind, cap float64) {
		if err == nil {
			err = n.AddCanal(parent, id, kind, cap)
		}
	}
	add("src", "main", waterdist.KindJunction, 1200)
	add("main", "east", waterdist.KindJunction, 700)
	add("main", "west", waterdist.KindJunction, 450)
	for i := 0; i < 8; i++ {
		add("east", fmt.Sprintf("farm-e%d", i), waterdist.KindOfftake, 160)
	}
	for i := 0; i < 8; i++ {
		add("west", fmt.Sprintf("farm-w%d", i), waterdist.KindOfftake, 120)
	}
	if err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(21))
	demand := make(map[string]float64)
	for _, off := range n.Offtakes() {
		demand[off] = 60 + rng.Float64()*120
	}

	var rows []CanalRow
	for name, alloc := range map[string]func(map[string]float64) (waterdist.Allocation, error){
		"proportional": n.AllocateProportional,
		"maxmin-fair":  n.AllocateMaxMin,
	} {
		a, err := alloc(demand)
		if err != nil {
			return nil, err
		}
		worst := -1.0
		for _, off := range n.Offtakes() {
			if worst < 0 || a[off] < worst {
				worst = a[off]
			}
		}
		rows = append(rows, CanalRow{
			Allocator: name, TotalDelivered: a.Total(), WorstDelivery: worst,
			MinSatisfaction: waterdist.MinSatisfaction(a, demand),
		})
	}
	// Deterministic order: proportional first.
	if rows[0].Allocator != "proportional" {
		rows[0], rows[1] = rows[1], rows[0]
	}
	return rows, nil
}

// CostRow is one EXP-P3 line.
type CostRow struct {
	Policy    string
	WaterM3   float64
	CostEUR   float64
	Shortfall float64
}

// ExpDesalinationCost (EXP-P3) schedules a season of Intercrop demand
// across well/canal/desalination sources, cost-aware vs naive.
func ExpDesalinationCost(days int, seed int64) ([]CostRow, error) {
	sources := []waterdist.WaterSource{
		{Name: "well", CapacityM3: 350, CostPerM3: 0.08},
		{Name: "canal", CapacityM3: 250, CostPerM3: 0.15},
		{Name: "desal", CapacityM3: 5000, CostPerM3: 0.85},
	}
	rng := rand.New(rand.NewSource(seed))
	smart := CostRow{Policy: "cost-aware"}
	naive := CostRow{Policy: "naive-split"}
	for d := 0; d < days; d++ {
		demand := 400 + rng.Float64()*500
		ps, err := waterdist.AllocateByCost(demand, sources)
		if err != nil {
			return nil, err
		}
		pn, err := waterdist.AllocateNaive(demand, sources)
		if err != nil {
			return nil, err
		}
		smart.WaterM3 += demand - ps.Shortfall
		smart.CostEUR += ps.CostEUR
		smart.Shortfall += ps.Shortfall
		naive.WaterM3 += demand - pn.Shortfall
		naive.CostEUR += pn.CostEUR
		naive.Shortfall += pn.Shortfall
	}
	return []CostRow{smart, naive}, nil
}

// ExpDeficitQuality (EXP-P4) compares full-supply vs regulated-deficit
// drip on the Guaspari vine season. The pilot exists precisely because the
// winter harvest window is dry enough that irrigation controls the vines'
// water status (§I), so the experiment forces the dry-window climate
// (negligible rain) — with regular rain neither schedule would ever
// irrigate and the comparison would be vacuous.
func ExpDeficitQuality(seed int64) ([]StrategyRow, error) {
	pilot := PilotGuaspari
	dryWindow := pilot.Climate
	dryWindow.RainProb = 0.02
	pilot.Climate = dryWindow
	run := func(name string, trigger float64) (StrategyRow, error) {
		b, err := soil.NewBalance(pilot.Crop, pilot.Soil, 0)
		if err != nil {
			return StrategyRow{}, err
		}
		gen, err := newWeatherGen(pilot, seed)
		if err != nil {
			return StrategyRow{}, err
		}
		sched := irrigation.NewDripScheduler(irrigation.PlannerConfig{TriggerFrac: trigger, MaxDepthMM: 60})
		for day := 0; day < pilot.Crop.SeasonDays(); day++ {
			doy := (pilot.SeasonStartDOY+day-1)%365 + 1
			wd := gen.Next(doy)
			et0, err := soil.ET0PenmanMonteith(soil.ET0Input{
				TminC: wd.TminC, TmaxC: wd.TmaxC, RHMeanPct: wd.RHMeanPct,
				WindMS: wd.WindMS, SolarMJ: wd.SolarMJ,
				LatitudeDeg: pilot.Climate.LatitudeDeg, AltitudeM: pilot.Climate.AltitudeM, DOY: doy,
			})
			if err != nil {
				return StrategyRow{}, err
			}
			if _, err := b.Step(et0, wd.RainMM, sched.Plan(b)); err != nil {
				return StrategyRow{}, err
			}
		}
		tot := b.Totals()
		return StrategyRow{
			Strategy: name, IrrigationMM: tot.Irrigation,
			YieldIndex: b.YieldIndex(), QualityIndex: irrigation.WineQualityIndex(b),
			StressDays: tot.StressDays,
		}, nil
	}
	full, err := run("full-supply", 0.85)
	if err != nil {
		return nil, err
	}
	rdi, err := run("regulated-deficit", 1.5)
	if err != nil {
		return nil, err
	}
	return []StrategyRow{full, rdi}, nil
}

// DoSRow is one EXP-S1 line.
type DoSRow struct {
	AttackRate  float64 // msgs/s
	Detected    bool
	DetectAfter int // messages until first alert
}

// ExpDoSDetection (EXP-S1) floods the rate detector at multiples of the
// legitimate rate and records detection latency in messages.
func ExpDoSDetection(rates []float64) []DoSRow {
	var rows []DoSRow
	for _, rate := range rates {
		det := anomaly.NewRateDetector(anomaly.RateConfig{Window: 10 * time.Second, LimitPerSec: 10})
		at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
		row := DoSRow{AttackRate: rate}
		interval := time.Duration(float64(time.Second) / rate)
		for i := 0; i < 5000; i++ {
			if a := det.Observe("attacker", at); a != nil {
				row.Detected = true
				row.DetectAfter = i + 1
				break
			}
			at = at.Add(interval)
		}
		rows = append(rows, row)
	}
	return rows
}

// TamperRow is one EXP-S2 line.
type TamperRow struct {
	BiasMagnitude float64 // m³/m³ added to the true value
	DetectedBy    string  // "deviation", "consistency" or "" (missed)
	SamplesToFlag int
}

// ExpTamperDetection (EXP-S2) runs 10 honest probes plus one tampered one
// through the detection stack at several bias magnitudes.
func ExpTamperDetection(biases []float64, seed int64) []TamperRow {
	var rows []TamperRow
	for _, bias := range biases {
		var first *anomaly.Alert
		samples := 0
		eng := anomaly.NewEngine(anomaly.EngineConfig{
			Consistency: anomaly.ConsistencyConfig{MinPeers: 5, K: 5, MinSpread: 0.008},
			Sink: func(a anomaly.Alert) {
				if first == nil && a.Device != "" && strings.Contains(a.Device, "victim") {
					cp := a
					first = &cp
				}
			},
		})
		rng := rand.New(rand.NewSource(seed))
		at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
		// Baseline phase: everyone honest.
		for k := 0; k < 60; k++ {
			for i := 0; i < 10; i++ {
				eng.OnReading(model.Reading{
					Device: model.DeviceID(fmt.Sprintf("p%d", i)), Quantity: model.QSoilMoisture,
					Value: 0.25 + rng.NormFloat64()*0.01, At: at,
				})
			}
			eng.OnReading(model.Reading{
				Device: "victim", Quantity: model.QSoilMoisture,
				Value: 0.25 + rng.NormFloat64()*0.01, At: at,
			})
			at = at.Add(time.Minute)
		}
		// Attack phase.
		for k := 0; k < 120 && first == nil; k++ {
			for i := 0; i < 10; i++ {
				eng.OnReading(model.Reading{
					Device: model.DeviceID(fmt.Sprintf("p%d", i)), Quantity: model.QSoilMoisture,
					Value: 0.25 + rng.NormFloat64()*0.01, At: at,
				})
			}
			eng.OnReading(model.Reading{
				Device: "victim", Quantity: model.QSoilMoisture,
				Value: 0.25 + bias + rng.NormFloat64()*0.01, At: at,
			})
			samples++
			at = at.Add(time.Minute)
		}
		row := TamperRow{BiasMagnitude: bias, SamplesToFlag: samples}
		if first != nil {
			row.DetectedBy = first.Kind
		}
		rows = append(rows, row)
	}
	return rows
}

// SybilRow is one EXP-S3 line.
type SybilRow struct {
	SwarmSize      int
	JitterStd      float64
	DetectedCount  int
	FalsePositives int
}

// ExpSybilDetection (EXP-S3) launches swarms of varying size and care
// (jitter) against ten honest devices and reports detection counts.
func ExpSybilDetection(swarmSizes []int, jitters []float64) ([]SybilRow, error) {
	var rows []SybilRow
	for _, size := range swarmSizes {
		for _, jitter := range jitters {
			det := anomaly.NewSybilDetector(anomaly.SybilConfig{MinSamples: 6, MinClusterSize: 3})
			rng := rand.New(rand.NewSource(77))
			at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
			// Honest population.
			for k := 0; k < 10; k++ {
				for i := 0; i < 10; i++ {
					det.Observe(fmt.Sprintf("honest-%d", i), 0.3+rng.NormFloat64()*0.02, at)
				}
				at = at.Add(time.Minute)
			}
			// Swarm via the attack package.
			swarm := &attack.SybilSwarm{
				IDPrefix: "sybil", N: size, Value: 0.8, Quantity: model.QNDVI, JitterStd: jitter,
				Publish: func(dev string, rs []model.Reading) error {
					for _, r := range rs {
						det.Observe(dev, r.Value, r.At)
					}
					return nil
				},
			}
			for k := 0; k < 10; k++ {
				if err := swarm.Round(at); err != nil {
					return nil, err
				}
				at = at.Add(time.Minute)
			}
			alerts := det.Scan(at)
			row := SybilRow{SwarmSize: size, JitterStd: jitter}
			for _, a := range alerts {
				if strings.HasPrefix(a.Device, "sybil") {
					row.DetectedCount++
				} else {
					row.FalsePositives++
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PartialViewRow is one EXP-S6 line.
type PartialViewRow struct {
	Probes        int
	CoveragePct   float64
	TamperCaught  bool
	FalsePositive bool
}

// ExpPartialViewBaseline (EXP-S6) varies sensor density and measures
// whether the cross-sensor baseline still catches a lying probe without
// flagging honest ones — the paper's partial-view risk made measurable.
func ExpPartialViewBaseline(probeCounts []int, seed int64) []PartialViewRow {
	var rows []PartialViewRow
	const fieldSensorsFull = 20
	for _, n := range probeCounts {
		det := anomaly.NewConsistencyDetector(anomaly.ConsistencyConfig{MinPeers: 4, K: 5, MinSpread: 0.008})
		rng := rand.New(rand.NewSource(seed))
		at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
		row := PartialViewRow{Probes: n, CoveragePct: 100 * float64(n) / fieldSensorsFull}
		// Honest warm-up (n probes + the future victim).
		for k := 0; k < 30; k++ {
			for i := 0; i < n; i++ {
				if a := det.Observe(fmt.Sprintf("p%d", i), "soilMoisture", 0.25+rng.NormFloat64()*0.01, at); a != nil {
					row.FalsePositive = true
				}
			}
			if a := det.Observe("victim", "soilMoisture", 0.25+rng.NormFloat64()*0.01, at); a != nil {
				row.FalsePositive = true
			}
			at = at.Add(time.Minute)
		}
		// Victim starts lying by +0.15.
		for k := 0; k < 30 && !row.TamperCaught; k++ {
			for i := 0; i < n; i++ {
				if a := det.Observe(fmt.Sprintf("p%d", i), "soilMoisture", 0.25+rng.NormFloat64()*0.01, at); a != nil {
					row.FalsePositive = true
				}
			}
			if a := det.Observe("victim", "soilMoisture", 0.40+rng.NormFloat64()*0.01, at); a != nil {
				row.TamperCaught = true
			}
			at = at.Add(time.Minute)
		}
		rows = append(rows, row)
	}
	return rows
}
