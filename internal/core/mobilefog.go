package core

import (
	"fmt"
	"time"

	"github.com/swamp-project/swamp/internal/drone"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/tenant"
)

// EnsureDrone lazily creates the platform's survey drone (mobile fog).
// Only meaningful in ModeMobileFog; other modes get an error.
func (p *Platform) EnsureDrone() (*drone.Drone, error) {
	if p.Opts.Mode != ModeMobileFog {
		return nil, fmt.Errorf("core: drone requires %v, platform is %v", ModeMobileFog, p.Opts.Mode)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.droneUnit != nil {
		return p.droneUnit, nil
	}
	desc := model.Descriptor{
		ID:     model.DeviceID(p.Opts.Pilot.Name + "-drone-01"),
		Kind:   model.KindDrone,
		Owner:  tenant.ID(p.Opts.Pilot.Name),
		APIKey: "swamp-" + p.Opts.Pilot.Name,
	}
	d, err := drone.New(desc, 0.01, p.Opts.Seed+500)
	if err != nil {
		return nil, err
	}
	p.droneUnit = d
	return d, nil
}

// SurveyOnce flies the drone over the field, computes NDVI on board
// (mobile fog processing), writes the summary through the platform's writer
// and feeds the per-survey mean into the anomaly engine (where Sybil
// clustering watches NDVI sources).
func (p *Platform) SurveyOnce(at time.Time) (*drone.NDVIMap, error) {
	d, err := p.EnsureDrone()
	if err != nil {
		return nil, err
	}
	m, err := d.SurveyNDVI(p.Field, at)
	if err != nil {
		return nil, err
	}
	stress := m.StressCells(0.45)
	entityID := fmt.Sprintf("urn:swamp:%s:ndvi", p.Opts.Pilot.Name)
	err = p.Writer.UpdateAttrs(entityID, "VegetationIndex", map[string]ngsi.Attribute{
		"ndviMean": {Type: "Number", Value: m.Mean(), At: at,
			Metadata: map[string]string{"device": string(d.Desc.ID), "owner": p.Opts.Pilot.Name}},
		"stressCells": {Type: "Number", Value: float64(len(stress)), At: at,
			Metadata: map[string]string{"device": string(d.Desc.ID), "owner": p.Opts.Pilot.Name}},
	})
	if err != nil {
		return nil, err
	}
	p.Anomaly.OnReading(model.Reading{
		Device: d.Desc.ID, Quantity: model.QNDVI, Value: m.Mean(), At: at,
	})
	// Feed the stress map into the decision engine: stressed sectors will
	// irrigate earlier on the next cycle.
	p.Decision.SetNDVIStressCells(stress)
	return m, nil
}
