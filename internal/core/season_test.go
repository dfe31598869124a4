package core

import (
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/attack"
)

// Every pilot must complete a full season through the real pipeline with a
// sane water balance and no decision failures.
func TestRunSeasonAllPilots(t *testing.T) {
	for _, pilot := range Pilots() {
		pilot := pilot
		t.Run(pilot.Name, func(t *testing.T) {
			p := newPlatform(t, pilot, ModeFarmFog, false)
			rep, err := p.RunSeason(SeasonHooks{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.DecisionFailures != 0 {
				t.Errorf("decision failures = %d", rep.DecisionFailures)
			}
			if rep.ET0MM <= 0 || rep.ETcMM <= 0 {
				t.Errorf("degenerate fluxes: %+v", rep)
			}
			if rep.IrrigationMM <= 0 {
				t.Errorf("pilot never irrigated (%+v)", rep)
			}
			if rep.YieldIndex < 0.5 {
				t.Errorf("yield %.3f collapsed despite irrigation", rep.YieldIndex)
			}
			// Water balance closes: in = out + Δstorage, and the report's
			// mm totals must be internally consistent.
			if rep.IrrigationMM+rep.RainMM < rep.ETcMM+rep.DeepPercMM-pilot.Soil.TAWmm(pilot.Crop.RootDepthM) {
				t.Errorf("water balance implausible: %+v", rep)
			}
		})
	}
}

// A sealed season must behave identically — encryption is transparent to
// the decision loop.
func TestRunSeasonSealed(t *testing.T) {
	plain := newPlatform(t, PilotIntercrop, ModeFarmFog, false)
	sealed := newPlatform(t, PilotIntercrop, ModeFarmFog, true)
	repP, err := plain.RunSeason(SeasonHooks{})
	if err != nil {
		t.Fatal(err)
	}
	repS, err := sealed.RunSeason(SeasonHooks{})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same pilot: identical agronomic outcome.
	if repP.IrrigationMM != repS.IrrigationMM || repP.YieldIndex != repS.YieldIndex {
		t.Errorf("sealing changed outcomes: plain %+v vs sealed %+v", repP, repS)
	}
	if sealed.Metrics().Counter("agent.north.badseal").Value() != 0 {
		t.Error("sealed season had seal failures")
	}
}

// A cloud-only season with a mid-season partition loses exactly the
// partitioned decision days — and the crop pays for it.
func TestRunSeasonCloudPartition(t *testing.T) {
	cut, heal := 40, 70
	// partition cuts the backhaul on days [cut, heal) and counts the
	// commands the actuators applied inside that window.
	partition := func(applied *int) SeasonHooks {
		var before int
		return SeasonHooks{OnDay: func(day int, p *Platform) {
			switch day {
			case cut:
				p.Backhaul.SetPartitioned(true)
				before = len(p.Actuators.Journal())
			case heal:
				p.Backhaul.SetPartitioned(false)
				*applied = len(p.Actuators.Journal()) - before
			}
		}}
	}
	var cloudApplied, fogApplied int
	p := newPlatform(t, PilotMATOPIBA, ModeCloudOnly, false)
	rep, err := p.RunSeason(partition(&cloudApplied))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecisionFailures != heal-cut {
		t.Errorf("failures = %d, want %d (the partition window)", rep.DecisionFailures, heal-cut)
	}

	// The same outage under farm-fog costs nothing.
	pf := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	repF, err := pf.RunSeason(partition(&fogApplied))
	if err != nil {
		t.Fatal(err)
	}
	if repF.DecisionFailures != 0 {
		t.Errorf("fog failures = %d during partition", repF.DecisionFailures)
	}
	// Inside the outage the stalled cloud loop applies nothing while fog
	// keeps commanding. Season totals are not compared: the cloud-only
	// field leaves the outage drier and may command more afterwards, and
	// yield differences are within seasonal noise.
	if cloudApplied != 0 {
		t.Errorf("partitioned cloud applied %d commands inside the outage", cloudApplied)
	}
	if fogApplied == 0 {
		t.Error("fog applied no command inside the outage")
	}
}

// A mid-season stuck-sensor tamper through the full platform pipeline must
// surface in the season report's alert summary.
func TestRunSeasonWithTamperDetected(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	var tampered func(day int, pl *Platform)
	installed := false
	tampered = func(day int, pl *Platform) {
		if day == 60 && !installed {
			installed = true
			victim := pl.Probes[2]
			wrapped, err := attack.TamperSender(victim.Send, attack.TamperStuck, 0, 0, 1)
			if err != nil {
				t.Errorf("tamper install: %v", err)
				return
			}
			victim.Send = wrapped
		}
	}
	rep, err := p.RunSeason(SeasonHooks{OnDay: tampered})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alerts["stuck"] == 0 {
		t.Errorf("stuck tamper not reflected in season alerts: %v", rep.Alerts)
	}
}

// Mobile fog: weekly drone surveys during the season populate the NDVI
// entity and track crop stress.
func TestRunSeasonMobileFogSurveys(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeMobileFog, false)
	surveys := 0
	rep, err := p.RunSeason(SeasonHooks{
		OnDay: func(day int, pl *Platform) {
			if day%14 != 0 {
				return
			}
			if _, err := pl.SurveyOnce(time.Now()); err != nil {
				t.Errorf("survey day %d: %v", day, err)
				return
			}
			surveys++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if surveys < 8 {
		t.Fatalf("surveys = %d", surveys)
	}
	if _, err := p.Context.GetEntity("urn:swamp:matopiba:ndvi"); err != nil {
		t.Error("ndvi entity missing after season")
	}
	if rep.DecisionFailures != 0 {
		t.Errorf("failures = %d", rep.DecisionFailures)
	}
}
