// Package irrigation implements the actuation side of SWAMP: center-pivot
// geometry with Variable Rate Irrigation (the MATOPIBA pilot's headline
// mechanism), a uniform-rate baseline for comparison, the one
// threshold-refill rule all of them and the drip pilots (Intercrop,
// Guaspari) share, the FAO stage walk regulated-deficit irrigation keys its
// supply on, the pump energy model behind the pilot's energy-saving goal,
// and the valve/actuator state bank that southbound commands act on.
package irrigation

import (
	"fmt"
	"math"

	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/soil"
)

// PivotLayout maps a center pivot onto a field grid: the machine sits at
// the grid centre and sweeps a circle divided into equal angular sectors,
// each of which a VRI controller can water at its own rate.
type PivotLayout struct {
	Grid    model.FieldGrid
	Sectors int
	// radius in cells (derived).
	radiusCells float64
	sectorOf    []int // per-cell sector index, -1 outside the circle
}

// NewPivotLayout builds a layout with the largest circle that fits the
// grid.
func NewPivotLayout(grid model.FieldGrid, sectors int) (*PivotLayout, error) {
	if sectors < 1 || sectors > 360 {
		return nil, fmt.Errorf("irrigation: %d sectors outside [1,360]", sectors)
	}
	l := &PivotLayout{Grid: grid, Sectors: sectors}
	l.radiusCells = math.Min(float64(grid.Rows), float64(grid.Cols)) / 2
	l.sectorOf = make([]int, grid.NumCells())
	cr, cc := float64(grid.Rows)/2, float64(grid.Cols)/2
	for idx := range l.sectorOf {
		r, c := grid.CellRC(idx)
		dy := float64(r) + 0.5 - cr
		dx := float64(c) + 0.5 - cc
		if math.Hypot(dx, dy) > l.radiusCells {
			l.sectorOf[idx] = -1
			continue
		}
		ang := math.Atan2(dy, dx) // [-pi, pi]
		if ang < 0 {
			ang += 2 * math.Pi
		}
		s := int(ang / (2 * math.Pi) * float64(sectors))
		if s == sectors {
			s = sectors - 1
		}
		l.sectorOf[idx] = s
	}
	return l, nil
}

// SectorOfCell returns the sector of a cell, or -1 outside the circle.
func (l *PivotLayout) SectorOfCell(idx int) int {
	if idx < 0 || idx >= len(l.sectorOf) {
		return -1
	}
	return l.sectorOf[idx]
}

// CellsOfSector returns the cell indices of sector s.
func (l *PivotLayout) CellsOfSector(s int) []int {
	var out []int
	for idx, sec := range l.sectorOf {
		if sec == s {
			out = append(out, idx)
		}
	}
	return out
}

// IrrigatedCells returns how many cells lie inside the circle.
func (l *PivotLayout) IrrigatedCells() int {
	n := 0
	for _, s := range l.sectorOf {
		if s >= 0 {
			n++
		}
	}
	return n
}

// IrrigatedAreaHa returns the circle area actually covered by cells, in
// hectares.
func (l *PivotLayout) IrrigatedAreaHa() float64 {
	cellHa := l.Grid.CellSizeM * l.Grid.CellSizeM / 10_000
	return float64(l.IrrigatedCells()) * cellHa
}

// Prescription is a per-sector application depth map (mm).
type Prescription []float64

// PrescriptionMeanDepth returns the area-weighted mean application depth
// (mm) over the irrigated circle.
func (l *PivotLayout) PrescriptionMeanDepth(p Prescription) float64 {
	total, n := 0.0, 0
	for _, s := range l.sectorOf {
		if s < 0 {
			continue
		}
		total += p[s]
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// ApplyPrescription expands a per-sector prescription to a per-cell
// irrigation vector suitable for soil.Field.StepAll.
func (l *PivotLayout) ApplyPrescription(p Prescription) ([]float64, error) {
	if len(p) != l.Sectors {
		return nil, fmt.Errorf("irrigation: prescription has %d sectors, layout %d", len(p), l.Sectors)
	}
	out := make([]float64, len(l.sectorOf))
	for idx, s := range l.sectorOf {
		if s >= 0 {
			out[idx] = p[s]
		}
	}
	return out, nil
}

// PlannerConfig tunes the irrigation decision threshold and refill target —
// identical for VRI and uniform planners so comparisons isolate the spatial
// resolution.
type PlannerConfig struct {
	// TriggerFrac: irrigate when depletion exceeds TriggerFrac × RAW
	// (default 0.9 — just before stress).
	TriggerFrac float64
	// RefillFrac: apply enough water to return depletion to RefillFrac ×
	// RAW (default 0.1).
	RefillFrac float64
	// MaxDepthMM bounds a single application (machine limit, default 20).
	MaxDepthMM float64
}

func (c *PlannerConfig) defaults() {
	if c.TriggerFrac <= 0 {
		c.TriggerFrac = 0.9
	}
	if c.RefillFrac < 0 {
		c.RefillFrac = 0
	} else if c.RefillFrac == 0 {
		c.RefillFrac = 0.1
	}
	if c.MaxDepthMM <= 0 {
		c.MaxDepthMM = 20
	}
}

// Depth is the threshold-refill rule every planner applies to a zone's
// root-zone depletion and readily available water (both mm): 0 while
// depletion is at most TriggerFrac × raw, else the depth that brings it
// back to RefillFrac × raw, capped at MaxDepthMM.
func (c PlannerConfig) Depth(depletion, raw float64) float64 {
	if depletion <= c.TriggerFrac*raw {
		return 0
	}
	return math.Min(depletion-c.RefillFrac*raw, c.MaxDepthMM)
}

// VRIPlanner decides a per-sector prescription from the field's current
// depletion state: each sector is triggered and sized independently.
type VRIPlanner struct {
	Layout *PivotLayout
	Config PlannerConfig
}

// NewVRIPlanner builds a planner.
func NewVRIPlanner(layout *PivotLayout, cfg PlannerConfig) *VRIPlanner {
	cfg.defaults()
	return &VRIPlanner{Layout: layout, Config: cfg}
}

// Plan inspects the field and produces today's prescription.
func (v *VRIPlanner) Plan(field *soil.Field) Prescription {
	p := make(Prescription, v.Layout.Sectors)
	for s := 0; s < v.Layout.Sectors; s++ {
		cells := v.Layout.CellsOfSector(s)
		if len(cells) == 0 {
			continue
		}
		var dep, raw float64
		for _, idx := range cells {
			dep += field.Cells[idx].Depletion()
			raw += field.Cells[idx].RAW()
		}
		dep /= float64(len(cells))
		raw /= float64(len(cells))
		p[s] = v.Config.Depth(dep, raw)
	}
	return p
}

// UniformPlanner is the conventional-practice baseline: one rate for the
// whole circle, sized so that no zone is under-irrigated. The SWAMP paper's
// introduction describes exactly this behaviour — "in an attempt to avoid
// loss of productivity by under-irrigation, farmers feed more water than is
// needed" — so the baseline triggers on the *driest* sector and applies
// that sector's requirement everywhere.
type UniformPlanner struct {
	Layout *PivotLayout
	Config PlannerConfig
}

// NewUniformPlanner builds the baseline planner.
func NewUniformPlanner(layout *PivotLayout, cfg PlannerConfig) *UniformPlanner {
	cfg.defaults()
	return &UniformPlanner{Layout: layout, Config: cfg}
}

// Plan returns a prescription with the same depth in every sector, driven
// by the neediest sector.
func (u *UniformPlanner) Plan(field *soil.Field) Prescription {
	p := make(Prescription, u.Layout.Sectors)
	worstDep, worstRAW := 0.0, 0.0
	worstRatio := -1.0
	for s := 0; s < u.Layout.Sectors; s++ {
		cells := u.Layout.CellsOfSector(s)
		if len(cells) == 0 {
			continue
		}
		var dep, raw float64
		for _, idx := range cells {
			dep += field.Cells[idx].Depletion()
			raw += field.Cells[idx].RAW()
		}
		dep /= float64(len(cells))
		raw /= float64(len(cells))
		if raw > 0 && dep/raw > worstRatio {
			worstRatio = dep / raw
			worstDep, worstRAW = dep, raw
		}
	}
	if worstRatio < 0 {
		return p
	}
	depth := u.Config.Depth(worstDep, worstRAW)
	for s := range p {
		p[s] = depth
	}
	return p
}

// PumpModel converts irrigation volume to pump energy — the quantity the
// MATOPIBA pilot wants to cut.
type PumpModel struct {
	// HeadM is the total dynamic head the pump works against.
	HeadM float64
	// Efficiency is the wire-to-water efficiency (0,1].
	Efficiency float64
}

// Validate reports the first implausible parameter.
func (p PumpModel) Validate() error {
	if p.HeadM <= 0 || p.HeadM > 500 {
		return fmt.Errorf("irrigation: pump head %g m implausible", p.HeadM)
	}
	if p.Efficiency <= 0 || p.Efficiency > 1 {
		return fmt.Errorf("irrigation: pump efficiency %g outside (0,1]", p.Efficiency)
	}
	return nil
}

// EnergyKWh returns the energy to lift volumeM3 against the head:
// E = ρ·g·H·V / (3.6e6 · η).
func (p PumpModel) EnergyKWh(volumeM3 float64) float64 {
	const rhoG = 1000 * 9.81
	return rhoG * p.HeadM * volumeM3 / (3.6e6 * p.Efficiency)
}

// VolumeM3 converts an application depth over an area to volume:
// 1 mm over 1 ha = 10 m³.
func VolumeM3(depthMM, areaHa float64) float64 {
	return depthMM * areaHa * 10
}
