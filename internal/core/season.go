package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/swamp-project/swamp/internal/irrigation"
	"github.com/swamp-project/swamp/internal/soil"
)

// SeasonReport aggregates one simulated irrigation season end to end —
// the platform-level rows the experiments print.
type SeasonReport struct {
	Pilot string
	Mode  string
	Days  int

	// Field-mean water fluxes, mm.
	IrrigationMM float64
	RainMM       float64
	ET0MM        float64
	ETcMM        float64
	DeepPercMM   float64

	// Volume and energy over the whole field.
	WaterM3   float64
	EnergyKWh float64

	// Outcome indices.
	YieldIndex   float64
	QualityIndex float64 // RDI pilots
	StressDays   float64

	// Decision-loop availability.
	DecisionCycles   int
	DecisionFailures int
	CommandsIssued   int

	// Security: alerts seen during the season, by kind.
	Alerts map[string]int
}

// String renders the report as aligned text.
func (r *SeasonReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pilot=%s mode=%s days=%d\n", r.Pilot, r.Mode, r.Days)
	fmt.Fprintf(&b, "  water: irrigation=%.1fmm rain=%.1fmm et0=%.1fmm etc=%.1fmm percolation=%.1fmm\n",
		r.IrrigationMM, r.RainMM, r.ET0MM, r.ETcMM, r.DeepPercMM)
	fmt.Fprintf(&b, "  volume=%.0fm3 energy=%.1fkWh\n", r.WaterM3, r.EnergyKWh)
	fmt.Fprintf(&b, "  yield=%.3f quality=%.3f stress-days=%.1f\n", r.YieldIndex, r.QualityIndex, r.StressDays)
	fmt.Fprintf(&b, "  decisions=%d failures=%d commands=%d\n", r.DecisionCycles, r.DecisionFailures, r.CommandsIssued)
	if len(r.Alerts) > 0 {
		fmt.Fprintf(&b, "  alerts=%v\n", r.Alerts)
	}
	return b.String()
}

// SeasonHooks lets experiments intervene in the daily loop.
type SeasonHooks struct {
	// OnDay runs before day d (0-based) is simulated; at is the
	// simulated time StepDay stamps that day's readings with.
	OnDay func(day int, at time.Time, p *Platform)
}

// RunSeason simulates the pilot's full crop season through the real
// platform pipeline, one StepDay per day, and returns the season report.
func (p *Platform) RunSeason(hooks SeasonHooks) (*SeasonReport, error) {
	pilot := p.Opts.Pilot
	days := pilot.Crop.SeasonDays()
	report := &SeasonReport{Pilot: pilot.Name, Mode: p.Opts.Mode.String(), Days: days}
	at := time.Date(2026, 1, 1, 6, 0, 0, 0, time.UTC).AddDate(0, 0, pilot.SeasonStartDOY-1)

	for day := 0; day < days; day++ {
		if hooks.OnDay != nil {
			hooks.OnDay(day, at, p)
		}
		d, err := p.StepDay(day, at)
		if err != nil {
			return nil, err
		}
		report.DecisionCycles++
		if d.DecideErr != nil {
			report.DecisionFailures++
		}
		report.CommandsIssued += d.Commands
		report.WaterM3 += d.WaterM3
		report.EnergyKWh += pilot.Pump.EnergyKWh(d.WaterM3)
		at = at.Add(24 * time.Hour)
	}

	tot := p.Field.FieldTotals()
	report.IrrigationMM = tot.Irrigation
	report.RainMM = tot.Rain
	report.ET0MM = tot.ET0
	report.ETcMM = tot.ETc
	report.DeepPercMM = tot.DeepPerc
	report.StressDays = tot.StressDays
	report.YieldIndex = p.Field.MeanYieldIndex()
	if pilot.Irrigation == IrrigationDeficitDrip {
		report.QualityIndex = meanQuality(p.Field)
	}
	report.Alerts = p.Anomaly.CountByKind()
	return report, nil
}

// FarmDay is what one StepDay did to the farm.
type FarmDay struct {
	// ET0MM is the day's Penman–Monteith reference evapotranspiration.
	ET0MM float64
	// Commands is how many commands the decision loop issued.
	Commands int
	// DecideErr is why the decision loop was unavailable (cloud-only
	// mode during a partition); the crop got no water that day.
	DecideErr error
	// WaterM3 is the volume the day's prescription applied.
	WaterM3 float64
}

// dayTimeout bounds each of a day's pipeline waits: the agent processing
// the probes' publishes, then the platform callback their notifications.
const dayTimeout = 5 * time.Second

// StepDay advances the simulated farm one day through the whole platform
// pipeline: the weather advances, every probe publishes over MQTT, the
// agent updates context, and once the day's notifications have reached
// the fog view (or the cloud store) the anomaly engine scans the devices
// for Sybil swarms, the mode's decision loop issues commands and the soil
// takes them up under the day's ET0. day counts
// from the season start (it may run past the season's end); at stamps
// the readings and decisions.
func (p *Platform) StepDay(day int, at time.Time) (FarmDay, error) {
	pilot := p.Opts.Pilot
	p.Decision.SetSeasonDay(day % pilot.Crop.SeasonDays())
	doy := (pilot.SeasonStartDOY+day-1)%365 + 1
	wd := p.Weather.Next(doy)
	et0, err := soil.ET0PenmanMonteith(soil.ET0Input{
		TminC: wd.TminC, TmaxC: wd.TmaxC, RHMeanPct: wd.RHMeanPct,
		WindMS: wd.WindMS, SolarMJ: wd.SolarMJ,
		LatitudeDeg: pilot.Climate.LatitudeDeg, AltitudeM: pilot.Climate.AltitudeM,
		DOY: doy,
	})
	if err != nil {
		return FarmDay{}, fmt.Errorf("core: day %d: %w", day, err)
	}

	if err := p.pumpAndWait(at, dayTimeout); err != nil {
		return FarmDay{}, fmt.Errorf("core: day %d: %w", day, err)
	}
	p.Anomaly.ScanSybil(at)

	d := FarmDay{ET0MM: et0}
	cmds, err := p.DecideOnce(at)
	if err != nil {
		d.DecideErr = err
		cmds = nil
	}
	d.Commands = len(cmds)
	vec, volume, err := p.Decision.PrescriptionFromCommands(cmds, p.Field.Grid.NumCells())
	if err != nil {
		return FarmDay{}, fmt.Errorf("core: day %d: %w", day, err)
	}
	d.WaterM3 = volume
	if _, err := p.Field.StepAll(et0, wd.RainMM, vec); err != nil {
		return FarmDay{}, fmt.Errorf("core: day %d: %w", day, err)
	}
	return d, nil
}

// pumpAndWait runs PumpOnce (sensors → MQTT → agent → context) and waits
// for the async context → fog/cloud tail, so a decision that follows sees
// the pumped readings. The platform callback processes one notification
// per probe entity, on a cluster only those the node leads (see
// onContextNotification). The wait counts each probe's own notifications:
// another entity's (a drone survey's, written just before) that lands
// meanwhile cannot stand in for a probe's.
func (p *Platform) pumpAndWait(at time.Time, timeout time.Duration) error {
	want := make([]uint64, len(p.Probes)) // 0: not led here, nothing to wait for
	for i, u := range p.Probes {
		if p.Node == nil || p.Node.Leads(u.Prov.EntityID) {
			want[i] = u.notified.Load() + 1
		}
	}
	if err := p.PumpOnce(at, timeout); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for i, u := range p.Probes {
		for u.notified.Load() < want[i] {
			if !time.Now().Before(deadline) {
				return fmt.Errorf("core: pipeline tail incomplete: no notification of %s processed", u.Prov.EntityID)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func meanQuality(f *soil.Field) float64 {
	sum := 0.0
	for _, c := range f.Cells {
		sum += irrigation.WineQualityIndex(c)
	}
	return sum / float64(len(f.Cells))
}
