package core

import (
	"sync"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/attack"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/shardhash"
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
			// The daily Sybil scan finds no swarm among honest probes.
			if n := rep.Alerts["sybil"]; n != 0 {
				t.Errorf("a clean season raised %d sybil alerts", n)
			}
			// Water balance closes: in = out + Δstorage, and the report's
			// mm totals must be internally consistent.
			if rep.IrrigationMM+rep.RainMM < rep.ETcMM+rep.DeepPercMM-pilot.Soil.TAWmm(pilot.Crop.RootDepthM) {
				t.Errorf("water balance implausible: %+v", rep)
			}
		})
	}
}

// StepDay scans for Sybil swarms once the day's readings are in: a swarm
// of six identical fabricated identities is flagged after one farm day.
func TestStepDayScansForSybils(t *testing.T) {
	p := newPlatform(t, PilotIntercrop, ModeFarmFog, false)
	at := time.Date(2026, 6, 1, 6, 0, 0, 0, time.UTC)
	swarm := &attack.SybilSwarm{
		IDPrefix: "sybil", N: 6, Value: 0.8, Quantity: model.QNDVI,
		Publish: func(_ string, rs []model.Reading) error {
			for _, r := range rs {
				p.Anomaly.OnReading(r)
			}
			return nil
		},
	}
	for k := 0; k < 8; k++ {
		if err := swarm.Round(at.Add(time.Duration(k-8) * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Anomaly.CountByKind()["sybil"]; n != 0 {
		t.Fatalf("%d sybil alerts before any scan", n)
	}
	if _, err := p.StepDay(0, at); err != nil {
		t.Fatal(err)
	}
	if n := p.Anomaly.CountByKind()["sybil"]; n != 6 {
		t.Errorf("one farm day flagged %d of the swarm's 6 identities", n)
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
		return SeasonHooks{OnDay: func(day int, _ time.Time, p *Platform) {
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
	var tampered func(day int, _ time.Time, pl *Platform)
	installed := false
	tampered = func(day int, _ time.Time, pl *Platform) {
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
		OnDay: func(day int, at time.Time, pl *Platform) {
			if day%14 != 0 {
				return
			}
			if _, err := pl.SurveyOnce(at); err != nil {
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

// A farm day waits for its own probes' notifications. A drone survey
// written just before the day is notified while the day waits; it must not
// stand in for a probe's notification still pending, or the decision runs
// without that probe's reading. Holding the survey's notification until
// the day's wait has begun, and one probe's until the survey's is
// processed, forces that order.
func TestStepDayWaitsForEveryProbe(t *testing.T) {
	pilot := PilotMATOPIBA
	pilot.Probes = 3
	p := newPlatform(t, pilot, ModeMobileFog, false)
	ndvi := "urn:swamp:matopiba:ndvi"

	// Hold a probe alone on its shard: a held dispatcher then delays no
	// other probe's notification.
	shard := func(id string) int { return shardhash.Index(p.Context.ShardCount(), id) }
	var held *ProbeUnit
	for _, u := range p.Probes {
		alone := shard(u.Prov.EntityID) != shard(ndvi)
		for _, o := range p.Probes {
			alone = alone && (o == u || shard(o.Prov.EntityID) != shard(u.Prov.EntityID))
		}
		if alone {
			held = u
			break
		}
	}
	if held == nil {
		t.Fatal("no probe alone on its shard; change the probe count")
	}

	// An exact-id subscription is dispatched before the platform's
	// wildcard one, so blocking it holds the platform's notification too.
	surveyGate, probeGate := make(chan struct{}), make(chan struct{})
	probeHeld := make(chan struct{}, 1)
	hold := func(id string, gate chan struct{}, entered chan struct{}) {
		_, err := p.Context.Subscribe(ngsi.Subscription{
			ID: "hold-" + id, EntityIDPattern: id,
			Notifier: ngsi.Callback(func(ngsi.Notification) {
				if entered != nil {
					entered <- struct{}{}
				}
				<-gate
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	hold(ndvi, surveyGate, nil)
	hold(held.Prov.EntityID, probeGate, probeHeld)
	var openSurvey, openProbe sync.Once
	releaseSurvey := func() { openSurvey.Do(func() { close(surveyGate) }) }
	releaseProbe := func() { openProbe.Do(func() { close(probeGate) }) }
	t.Cleanup(func() { releaseSurvey(); releaseProbe() })

	if _, err := p.SurveyOnce(t0); err != nil {
		t.Fatal(err)
	}
	processed := p.notifyProcessed.Value()
	done := make(chan error, 1)
	go func() {
		_, err := p.StepDay(0, t0)
		done <- err
	}()
	select {
	case <-probeHeld:
	case <-time.After(5 * time.Second):
		t.Fatal("the held probe's notification never arrived")
	}
	releaseSurvey()
	// The survey and every other probe are processed; only the held
	// probe is pending.
	want := processed + uint64(len(p.Probes))
	for deadline := time.Now().Add(5 * time.Second); p.notifyProcessed.Value() < want; {
		if time.Now().After(deadline) {
			t.Fatalf("notifications processed = %d, want %d", p.notifyProcessed.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("StepDay returned (err %v) before %s's notification was processed: "+
			"its decision ran without that probe's reading", err, held.Prov.EntityID)
	case <-time.After(100 * time.Millisecond):
	}
	releaseProbe()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The day is the platform's first: any probe reading in the fog view
	// is that day's.
	latest := p.Fog.Latest()
	for _, u := range p.Probes {
		if _, ok := latest[string(u.Prov.Desc.ID)+"/soilMoisture_d20"]; !ok {
			t.Errorf("fog view lacks %s's reading after the day", u.Prov.Desc.ID)
		}
	}
}
