package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/swamp-project/swamp/internal/irrigation"
	"github.com/swamp-project/swamp/internal/model"
)

// DecisionEngine turns the platform's *sensor-derived* view (never the
// simulation ground truth — decisions live with the same partial view the
// paper warns about) into irrigation commands for the pilot's actuators.
type DecisionEngine struct {
	pilot  Pilot
	layout *irrigation.PivotLayout // VRI pilots only
	cfg    irrigation.PlannerConfig

	probeCell   map[model.DeviceID]int
	probeSector map[model.DeviceID]int

	// seasonDay feeds the RDI stage logic; the season runner advances it.
	seasonDay int

	// ndviStress holds per-sector stressed-cell counts from the latest
	// drone survey (mobile-fog input). Stressed sectors irrigate earlier:
	// the survey covers every cell, compensating for sparse probes.
	ndviStress []int

	// tawMM / rawMM are the decision-side estimates from the pilot's base
	// soil profile (the controller does not know per-cell truth).
	tawMM float64
	rawMM float64

	// areaHa is the field's area; canalCapacityM3 bounds daily supply
	// over it for canal pilots (0 = unlimited).
	areaHa          float64
	canalCapacityM3 float64
}

// NewDecisionEngine builds the engine for a pilot.
func NewDecisionEngine(pilot Pilot, grid model.FieldGrid, probeCells map[model.DeviceID]int) (*DecisionEngine, error) {
	e := &DecisionEngine{
		pilot:     pilot,
		cfg:       irrigation.PlannerConfig{TriggerFrac: 0.9, RefillFrac: 0.1, MaxDepthMM: 20},
		probeCell: probeCells,
		tawMM:     pilot.Soil.TAWmm(pilot.Crop.RootDepthM),
		areaHa:    grid.AreaHa(),
	}
	e.rawMM = pilot.Crop.DepletionFraction * e.tawMM
	if pilot.Irrigation == IrrigationVRIPivot {
		layout, err := irrigation.NewPivotLayout(grid, pilot.Sectors)
		if err != nil {
			return nil, err
		}
		e.layout = layout
		e.probeSector = make(map[model.DeviceID]int, len(probeCells))
		for dev, cell := range probeCells {
			e.probeSector[dev] = layout.SectorOfCell(cell)
		}
	}
	if pilot.Irrigation == IrrigationCanal {
		// District allotment: enough for ~6 mm/day over the field.
		e.canalCapacityM3 = irrigation.VolumeM3(6, e.areaHa)
	}
	return e, nil
}

// SetSeasonDay advances the RDI stage pointer.
func (e *DecisionEngine) SetSeasonDay(d int) { e.seasonDay = d }

// SetNDVIStressCells installs the stressed-cell list from a drone survey.
// Only meaningful for VRI pilots; others ignore it.
func (e *DecisionEngine) SetNDVIStressCells(cells []int) {
	if e.layout == nil {
		return
	}
	stress := make([]int, e.pilot.Sectors)
	for _, c := range cells {
		if s := e.layout.SectorOfCell(c); s >= 0 {
			stress[s]++
		}
	}
	e.ndviStress = stress
}

// Layout exposes the pivot layout (nil for non-pivot pilots).
func (e *DecisionEngine) Layout() *irrigation.PivotLayout { return e.layout }

// estimateDepletion converts a moisture reading to root-zone depletion mm
// using the decision-side soil parameters.
func (e *DecisionEngine) estimateDepletion(theta float64) float64 {
	dep := (e.pilot.Soil.FieldCapacity - theta) * 1000 * e.pilot.Crop.RootDepthM
	return math.Max(0, math.Min(dep, e.tawMM))
}

// isMoisture selects soil-moisture readings (any depth).
func isMoisture(q model.Quantity) bool {
	return strings.HasPrefix(string(q), string(model.QSoilMoisture))
}

// Decide implements fog.DecisionFunc. It works off whatever latest view it
// is given — the fog node's local store or the cloud reconstruction.
func (e *DecisionEngine) Decide(latest map[string]model.Reading, at time.Time) []model.Command {
	switch e.pilot.Irrigation {
	case IrrigationVRIPivot:
		return e.decideVRI(latest, at)
	default:
		return e.decideZone(latest, at)
	}
}

// decideVRI issues one setRate command per triggered sector.
func (e *DecisionEngine) decideVRI(latest map[string]model.Reading, at time.Time) []model.Command {
	sums := make([]float64, e.pilot.Sectors)
	counts := make([]int, e.pilot.Sectors)
	var globalSum float64
	var globalN int
	for _, r := range latest {
		if !isMoisture(r.Quantity) {
			continue
		}
		dep := e.estimateDepletion(r.Value)
		globalSum += dep
		globalN++
		if s, ok := e.probeSector[r.Device]; ok && s >= 0 {
			sums[s] += dep
			counts[s]++
		}
	}
	if globalN == 0 {
		return nil
	}
	globalMean := globalSum / float64(globalN)
	var cmds []model.Command
	for s := 0; s < e.pilot.Sectors; s++ {
		dep := globalMean
		if counts[s] > 0 {
			dep = sums[s] / float64(counts[s])
		}
		cfg := e.cfg
		// Mobile-fog input: a sector the drone saw stress in irrigates
		// earlier — NDVI covers every cell, probes only a sample.
		if s < len(e.ndviStress) && e.ndviStress[s] > 0 {
			cfg.TriggerFrac *= 0.8
		}
		depth := cfg.Depth(dep, e.rawMM)
		if depth <= 0 {
			continue
		}
		cmds = append(cmds, model.Command{
			Target: model.DeviceID(fmt.Sprintf("%s-pivot-s%02d", e.pilot.Name, s)),
			Name:   "setRate", Value: depth, Issuer: "svc-irrigation", At: at,
		})
	}
	return cmds
}

// decideZone issues a single whole-field valve command (drip, deficit and
// canal pilots).
func (e *DecisionEngine) decideZone(latest map[string]model.Reading, at time.Time) []model.Command {
	var sum float64
	var n int
	for _, r := range latest {
		if !isMoisture(r.Quantity) {
			continue
		}
		sum += e.estimateDepletion(r.Value)
		n++
	}
	if n == 0 {
		return nil
	}
	depth := e.cfg.Depth(sum/float64(n), e.rawMM)
	if depth <= 0 {
		return nil
	}
	if e.pilot.Irrigation == IrrigationDeficitDrip {
		depth *= e.stageSupply()
		if depth <= 0 {
			return nil
		}
	}
	if e.pilot.Irrigation == IrrigationCanal && e.canalCapacityM3 > 0 {
		vol := irrigation.VolumeM3(depth, e.areaHa)
		if vol > e.canalCapacityM3 {
			depth = e.canalCapacityM3 / (e.areaHa * 10)
		}
	}
	return []model.Command{{
		Target: model.DeviceID(e.pilot.Name + "-valve"),
		Name:   "setRate", Value: depth, Issuer: "svc-irrigation", At: at,
	}}
}

// stageSupply is the Guaspari RDI supply fraction per crop stage: full in
// establishment, deficit from mid-season on.
func (e *DecisionEngine) stageSupply() float64 {
	return [4]float64{1.0, 1.0, 0.6, 0.8}[irrigation.StageOf(e.pilot.Crop, e.seasonDay)]
}

// PrescriptionFromCommands converts a decision cycle's commands into the
// per-cell irrigation vector the soil simulation consumes, plus the total
// applied volume (m³) for energy accounting.
func (e *DecisionEngine) PrescriptionFromCommands(cmds []model.Command, nCells int) ([]float64, float64, error) {
	vec := make([]float64, nCells)
	cellHa := e.pilot.CellSizeM * e.pilot.CellSizeM / 10_000
	var volume float64
	for _, c := range cmds {
		if c.Name != "setRate" || c.Value <= 0 {
			continue
		}
		tgt := string(c.Target)
		switch {
		case strings.Contains(tgt, "-pivot-s"):
			if e.layout == nil {
				return nil, 0, fmt.Errorf("core: pivot command %q for non-pivot pilot", tgt)
			}
			idx := strings.LastIndex(tgt, "-s")
			s, err := strconv.Atoi(tgt[idx+2:])
			if err != nil || s < 0 || s >= e.pilot.Sectors {
				return nil, 0, fmt.Errorf("core: bad sector in command target %q", tgt)
			}
			for _, cell := range e.layout.CellsOfSector(s) {
				vec[cell] = c.Value
				volume += c.Value * cellHa * 10
			}
		case strings.HasSuffix(tgt, "-valve"):
			for i := range vec {
				vec[i] = c.Value
			}
			volume = c.Value * float64(nCells) * cellHa * 10
		default:
			return nil, 0, fmt.Errorf("core: unknown actuator target %q", tgt)
		}
	}
	return vec, volume, nil
}
