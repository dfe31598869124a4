// Package sensor simulates the multi-depth soil-moisture probes of a SWAMP
// deployment. A probe samples the soil package's water balance, applies
// instrument noise and a calibration bias, and returns readings the
// platform publishes as UltraLight over MQTT (optionally through the
// secchan envelope).
package sensor

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/soil"
)

// SoilProbe samples the moisture of one cell of a soil.Field at one or more
// depths, with Gaussian noise and a fixed calibration bias per depth.
type SoilProbe struct {
	Desc     model.Descriptor
	Field    *soil.Field
	Cell     int
	NoiseStd float64 // m³/m³
	Bias     float64 // m³/m³, calibration offset
	rng      *rand.Rand
}

// NewSoilProbe validates and builds a probe. Depths come from the
// descriptor; an empty list means a single surface measurement.
func NewSoilProbe(desc model.Descriptor, field *soil.Field, cell int, noiseStd float64, seed int64) (*SoilProbe, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if desc.Kind != model.KindSoilProbe {
		return nil, fmt.Errorf("sensor: %s is %v, not a soil probe", desc.ID, desc.Kind)
	}
	if cell < 0 || cell >= len(field.Cells) {
		return nil, fmt.Errorf("sensor: probe %s: cell %d outside field", desc.ID, cell)
	}
	if noiseStd < 0 {
		return nil, fmt.Errorf("sensor: probe %s: negative noise", desc.ID)
	}
	return &SoilProbe{
		Desc: desc, Field: field, Cell: cell, NoiseStd: noiseStd,
		rng: rand.New(rand.NewSource(seed)),
	}, nil
}

// Sample returns the probe's readings at time at. Deeper measurements lag
// the root-zone mean slightly (damped by depth), mimicking real profiles.
func (p *SoilProbe) Sample(at time.Time) ([]model.Reading, error) {
	truth := p.Field.Cells[p.Cell].Moisture()
	depths := p.Desc.Depths
	if len(depths) == 0 {
		depths = []float64{0.2}
	}
	out := make([]model.Reading, 0, len(depths))
	for _, d := range depths {
		fc := p.Field.Cells[p.Cell].Profile().FieldCapacity
		// Damping toward field capacity with depth: deep soil dries slower.
		damp := math.Min(d/2, 0.5)
		v := truth*(1-damp) + fc*damp
		v += p.Bias + p.rng.NormFloat64()*p.NoiseStd
		out = append(out, model.Reading{
			Device:   p.Desc.ID,
			Quantity: model.QSoilMoisture,
			Value:    clamp(v, 0, 0.6),
			Unit:     "m3/m3",
			Depth:    d,
			Location: p.Desc.Location,
			At:       at,
		})
	}
	return out, nil
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
