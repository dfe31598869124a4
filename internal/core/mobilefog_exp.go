package core

import (
	"fmt"
	"time"
)

// MobileFogRow is one EXP-A3 line: the value of drone NDVI surveys when
// probe coverage is sparse.
type MobileFogRow struct {
	Mode        string // "farm-fog" or "mobile-fog"
	Probes      int
	StressDays  float64
	Irrigation  float64 // mm
	YieldIndex  float64
	SurveysDone int
}

// ExpMobileFogValue (EXP-A3) runs the MATOPIBA season with deliberately
// sparse probes, with and without weekly drone surveys feeding the VRI
// trigger. The paper motivates mobile fog nodes "acting in the field
// (e.g., drones)" (§I); the measurable value is earlier irrigation of
// sectors the probes cannot see.
func ExpMobileFogValue(probes int, seed int64) ([]MobileFogRow, error) {
	if probes < 1 {
		return nil, fmt.Errorf("core: need at least one probe")
	}
	pilot := PilotMATOPIBA
	pilot.Probes = probes

	var rows []MobileFogRow
	for _, withDrone := range []bool{false, true} {
		mode := ModeFarmFog
		if withDrone {
			mode = ModeMobileFog
		}
		p, err := New(Options{Pilot: pilot, Mode: mode, Seed: seed})
		if err != nil {
			return nil, err
		}
		surveys := 0
		rep, err := p.RunSeason(SeasonHooks{
			OnDay: func(day int, at time.Time, pl *Platform) {
				if !withDrone || day%7 != 0 {
					return
				}
				if _, err := pl.SurveyOnce(at); err == nil {
					surveys++
				}
			},
		})
		if err != nil {
			p.Close()
			return nil, err
		}
		rows = append(rows, MobileFogRow{
			Mode: mode.String(), Probes: probes,
			StressDays: rep.StressDays, Irrigation: rep.IrrigationMM,
			YieldIndex: rep.YieldIndex, SurveysDone: surveys,
		})
		p.Close()
	}
	return rows, nil
}
