package core

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/agent"
	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/config"
	"github.com/swamp-project/swamp/internal/httpapi"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/tenant"
	"github.com/swamp-project/swamp/internal/timeseries"
)

var t0 = time.Date(2026, 6, 1, 6, 0, 0, 0, time.UTC)

func newPlatform(t *testing.T, pilot Pilot, mode Mode, sealed bool) *Platform {
	t.Helper()
	p, err := New(Options{Pilot: pilot, Mode: mode, Seed: 7, Sealed: sealed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestPilotDefinitionsValid(t *testing.T) {
	for _, p := range Pilots() {
		if err := p.Validate(); err != nil {
			t.Errorf("pilot %s: %v", p.Name, err)
		}
	}
	if _, err := PilotByName("matopiba"); err != nil {
		t.Error(err)
	}
	if _, err := PilotByName("atlantis"); err == nil {
		t.Error("unknown pilot accepted")
	}
	bad := PilotMATOPIBA
	bad.Sectors = 0
	if err := bad.Validate(); err == nil {
		t.Error("VRI pilot without sectors accepted")
	}
}

func TestPlatformConstructionAllPilotsAndModes(t *testing.T) {
	for _, pilot := range Pilots() {
		for _, mode := range []Mode{ModeCloudOnly, ModeFarmFog, ModeMobileFog} {
			p := newPlatform(t, pilot, mode, false)
			if len(p.Probes) != pilot.Probes {
				t.Errorf("%s/%s: %d probes, want %d", pilot.Name, mode, len(p.Probes), pilot.Probes)
			}
			if mode != ModeCloudOnly && p.Fog == nil {
				t.Errorf("%s/%s: fog node missing", pilot.Name, mode)
			}
			if mode == ModeCloudOnly && p.Fog != nil {
				t.Errorf("%s/%s: unexpected fog node", pilot.Name, mode)
			}
		}
	}
}

func TestTelemetryStoreKnobs(t *testing.T) {
	sim := clock.NewSim(t0.Add(2 * time.Hour))
	cfg := config.Default()
	cfg.Timeseries.Retention = time.Hour
	p, err := New(Options{
		Pilot: PilotIntercrop, Mode: ModeFarmFog, Seed: 7,
		Config: cfg, TelemetryClock: sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	// Retention must cut off against the injected (simulated) clock, not
	// wall time: a reading stamped 30 simulated minutes ago survives, one
	// stamped 90 simulated minutes ago is evicted.
	k := timeseries.SeriesKey{Device: "probe-x", Quantity: "m"}
	p.Store.Append(k, timeseries.Point{At: t0.Add(30 * time.Minute), Value: 1}) // age 90m
	p.Store.Append(k, timeseries.Point{At: t0.Add(90 * time.Minute), Value: 2}) // age 30m
	if dropped := p.Store.EvictExpired(); dropped != 1 {
		t.Errorf("evicted %d points, want 1", dropped)
	}
	if got := p.Store.Len(k); got != 1 {
		t.Errorf("kept %d points, want 1", got)
	}
	// Close is registered as a cleanup: a second explicit Close must be
	// safe (Platform.Close and the eviction goroutine race otherwise).
	p.Store.Close()
}

// TestRetentionEnabledByReloadUsesConfiguredClock: a platform started with
// retention off and turned on by ApplyDynamic evicts on the telemetry
// clock every min(retention, 1m), as one started with retention on.
func TestRetentionEnabledByReloadUsesConfiguredClock(t *testing.T) {
	sim := clock.NewSim(t0)
	cfg := config.Default()
	p, err := New(Options{Pilot: PilotIntercrop, Mode: ModeFarmFog, Seed: 7, Config: cfg, TelemetryClock: sim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	reload := cfg.Clone()
	reload.Timeseries.Retention = time.Hour
	p.ApplyDynamic(reload)
	k := timeseries.SeriesKey{Device: "probe-x", Quantity: "m"}
	if err := p.Store.Append(k, timeseries.Point{At: t0.Add(-2 * time.Hour), Value: 1}); err != nil {
		t.Fatal(err)
	}
	// The eviction loop starts on its own goroutine: advance only once it
	// has armed its timer on the simulated clock.
	for deadline := time.Now().Add(2 * time.Second); sim.PendingWaiters() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	sim.Advance(time.Minute)
	for deadline := time.Now().Add(2 * time.Second); p.Store.Len(k) != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := p.Store.Len(k); got != 0 {
		t.Fatalf("%d points older than the retention survive one simulated eviction interval", got)
	}
}

// TestSchemaDefaultsMatchComponentDefaults: config.Default() carries the
// value each component falls back to on a zero knob, so a platform built
// with a nil Options.Config is the platform a zero Options used to build.
func TestSchemaDefaultsMatchComponentDefaults(t *testing.T) {
	c := config.Default()
	for _, tc := range []struct {
		knob      string
		got, want any
	}{
		{"wal.snapshot_interval", c.WAL.SnapshotInterval, DefaultSnapshotInterval},
		{"http.query_cap", c.HTTP.QueryCap, httpapi.DefaultQueryCap},
		{"http.default_limit", c.HTTP.DefaultLimit, httpapi.DefaultQueryLimit},
	} {
		if tc.got != tc.want {
			t.Errorf("%s default = %v, component default = %v", tc.knob, tc.got, tc.want)
		}
	}
}

// TestOptionsFromConfigCarriesKnobs: knobs set in the schema reach the
// components through OptionsFromConfig and New.
func TestOptionsFromConfigCarriesKnobs(t *testing.T) {
	cfg := config.Default()
	cfg.Server.Pilot = "intercrop"
	cfg.Timeseries.Retention = 3 * time.Hour
	cfg.Tenant.Enabled = true
	opts, err := OptionsFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if got := p.Store.MaxAge(); got != 3*time.Hour {
		t.Errorf("store retention = %s, want 3h", got)
	}
	if !p.Admission.Enabled() {
		t.Error("tenant admission not enabled")
	}
}

func TestPumpOnceReachesContextAndCloud(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	if err := p.PumpOnce(t0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Context entities exist.
	res, err := p.Context.Query(ngsi.Query{IDPattern: "urn:swamp:matopiba:probe:*", OrderBy: ngsi.OrderByID})
	if err != nil {
		t.Fatal(err)
	}
	entities := res.Entities
	if len(entities) != PilotMATOPIBA.Probes {
		t.Fatalf("context has %d probe entities", len(entities))
	}
	if _, ok := entities[0].Attrs["soilMoisture_d20"]; !ok {
		t.Errorf("entity attrs: %v", entities[0].AttrNames())
	}
	// Fog has a local view once the notifications are processed, and has
	// forwarded to the cloud store once its uplink is flushed.
	if !p.WaitPipeline(uint64(PilotMATOPIBA.Probes), 2*time.Second) {
		t.Fatal("context notifications never reached the fog node")
	}
	if len(p.Fog.Latest()) == 0 {
		t.Error("fog latest view empty")
	}
	p.Fog.Flush()
	if len(p.Store.Keys()) == 0 {
		t.Error("cloud store empty after pump")
	}
}

func TestPumpOnceCloudMode(t *testing.T) {
	p := newPlatform(t, PilotIntercrop, ModeCloudOnly, false)
	if err := p.PumpOnce(t0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(p.Store.Keys()) == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if len(p.Store.Keys()) == 0 {
		t.Fatal("cloud-only mode did not persist telemetry")
	}
}

func TestFogDecisionIssuesCommands(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	dryField(p)
	if err := p.PumpOnce(t0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Wait for fog ingest (async through context notifications).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(p.Fog.Latest()) == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	cmds, err := p.DecideOnce(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("dry field produced no irrigation commands")
	}
	for _, c := range cmds {
		if c.Name != "setRate" || c.Value <= 0 || c.Value > 20 {
			t.Errorf("command %+v", c)
		}
	}
	// Commands land in the actuator journal.
	if len(p.Actuators.Journal()) != len(cmds) {
		t.Errorf("journal %d vs commands %d", len(p.Actuators.Journal()), len(cmds))
	}
	vec, vol, err := p.Decision.PrescriptionFromCommands(cmds, p.Field.Grid.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	if vol <= 0 {
		t.Error("no volume")
	}
	wet := 0
	for _, v := range vec {
		if v > 0 {
			wet++
		}
	}
	if wet == 0 {
		t.Error("prescription waters nothing")
	}
}

// TestCloudOnlyDecidesLikeFarmFog: cloud-only mode files telemetry under
// the device ids fog mode uses, so on the same field both decision loops
// place the probes in their pivot sectors and command the same targets.
// Thirty days at 6 mm/day dry the probes inside the pivot circle (sectors
// 11 and 12) past the trigger while the field mean stays below it, so a
// loop that cannot place them commands neither.
func TestCloudOnlyDecidesLikeFarmFog(t *testing.T) {
	targets := func(mode Mode) []string {
		p := newPlatform(t, PilotMATOPIBA, mode, false)
		for range 30 {
			p.Field.StepAll(6, 0, nil)
		}
		if err := p.PumpOnce(t0, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if !p.WaitPipeline(uint64(PilotMATOPIBA.Probes), 5*time.Second) {
			t.Fatalf("%s: the pump never reached the decision loop's store", mode)
		}
		cmds, err := p.DecideOnce(t0)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		out := make([]string, len(cmds))
		for i, c := range cmds {
			out[i] = string(c.Target)
		}
		slices.Sort(out)
		return out
	}
	fog, cloud := targets(ModeFarmFog), targets(ModeCloudOnly)
	if len(fog) == 0 {
		t.Fatal("farm-fog commanded no sector: the field is not dry enough to tell the modes apart")
	}
	if !slices.Equal(fog, cloud) {
		t.Fatalf("farm-fog commands %v, cloud-only %v", fog, cloud)
	}
}

// The availability experiment in miniature: a partition stalls cloud-mode
// decisions but not fog-mode ones.
func TestPartitionAvailabilityContrast(t *testing.T) {
	cloudP := newPlatform(t, PilotMATOPIBA, ModeCloudOnly, false)
	fogP := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	for _, p := range []*Platform{cloudP, fogP} {
		dryField(p)
		if err := p.PumpOnce(t0, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(fogP.Fog.Latest()) == 0 {
		time.Sleep(5 * time.Millisecond)
	}

	// Sanity: both decide fine while connected.
	if _, err := cloudP.DecideOnce(t0); err != nil {
		t.Fatalf("cloud decide online: %v", err)
	}
	if _, err := fogP.DecideOnce(t0); err != nil {
		t.Fatalf("fog decide online: %v", err)
	}

	// Cut the Internet.
	cloudP.Backhaul.SetPartitioned(true)
	fogP.Backhaul.SetPartitioned(true)

	if _, err := cloudP.DecideOnce(t0.Add(time.Hour)); err == nil {
		t.Error("cloud-only decisions survived a partition (should fail)")
	}
	cmds, err := fogP.DecideOnce(t0.Add(time.Hour))
	if err != nil {
		t.Fatalf("fog decisions failed during partition: %v", err)
	}
	if len(cmds) == 0 {
		t.Error("fog issued no commands during partition despite dry field")
	}

	// Heal; fog syncs its backlog.
	fogP.Backhaul.SetPartitioned(false)
	if err := fogP.PumpOnce(t0.Add(2*time.Hour), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !fogP.WaitPipeline(2*uint64(PilotMATOPIBA.Probes), 2*time.Second) {
		t.Fatal("second pump never reached the fog node")
	}
	fogP.Fog.Flush()
	if st := fogP.Fog.Stats(); st.Buffered != 0 {
		t.Errorf("fog backlog not drained: %+v", st)
	}
}

// TestHeadOfLineFogUplinkOffDispatcher: the fog uplink runs on the fog
// node's own goroutine, so a slow backhaul cannot hold up another subscriber
// of the same context shard. With the uplink inline on the dispatcher every
// notification costs a 100 ms round trip and the witness below starves.
func TestHeadOfLineFogUplinkOffDispatcher(t *testing.T) {
	p, err := New(Options{
		Pilot: PilotIntercrop, Mode: ModeFarmFog, Seed: 7,
		BackhaulLatency: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	var seen atomic.Int32
	if _, err := p.Context.Subscribe(ngsi.Subscription{
		ID:              "witness",
		EntityIDPattern: "*",
		Notifier:        ngsi.Callback(func(ngsi.Notification) { seen.Add(1) }),
	}); err != nil {
		t.Fatal(err)
	}
	const updates = 20
	start := time.Now()
	for i := 0; i < updates; i++ {
		err := p.Context.UpdateAttrs(fmt.Sprintf("urn:test:hol:%02d", i), "Probe", map[string]ngsi.Attribute{
			"soilMoisture": {Type: "Number", Value: 0.2, At: t0},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for seen.Load() < updates && time.Since(start) < 100*time.Millisecond {
		time.Sleep(time.Millisecond)
	}
	if got := seen.Load(); got < updates {
		t.Fatalf("witness subscriber saw %d of %d notifications in 100 ms: it waits behind the fog uplink", got, updates)
	}
	// The fog node saw every reading locally without waiting for the cloud.
	if !p.WaitPipeline(updates, time.Second) {
		t.Fatal("platform subscriber never processed the notifications")
	}
	if got := len(p.Fog.Latest()); got != updates {
		t.Errorf("fog latest view has %d series, want %d", got, updates)
	}
	p.Fog.Flush()
	if st := p.Fog.Stats(); st.Buffered != 0 || st.Forwarded != updates {
		t.Errorf("fog stats after flush = %+v", st)
	}
}

// allStacks returns the stack dump of every goroutine in this process.
func allStacks() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// fogDrainers counts live fog drain goroutines in this process.
func fogDrainers() int { return strings.Count(allStacks(), "fog.(*Node).drain") }

// waitFogDrainers polls until the process runs want drain goroutines (one
// that was just started, or just told to stop, takes a moment to show).
func waitFogDrainers(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	got := fogDrainers()
	for got != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		got = fogDrainers()
	}
	return got
}

// TestFogCloseLeavesNoDrainGoroutine: Platform.Close stops the fog node's
// uplink loop after syncing what it had buffered.
func TestFogCloseLeavesNoDrainGoroutine(t *testing.T) {
	before := fogDrainers()
	p, err := New(Options{Pilot: PilotIntercrop, Mode: ModeFarmFog, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitFogDrainers(before + 1); got != before+1 {
		t.Errorf("%d fog drain goroutines after New, want %d", got, before+1)
	}
	if err := p.PumpOnce(t0, 5*time.Second); err != nil {
		p.Close()
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	if got := waitFogDrainers(before); got != before {
		t.Errorf("%d fog drain goroutines after Close, want %d", got, before)
	}
	// Close drained the context broker into the fog node before closing it,
	// so every pumped reading reached the cloud store.
	if st := p.Fog.Stats(); st.Buffered != 0 || st.Forwarded != st.Ingested || st.Ingested == 0 {
		t.Errorf("fog stats after Close = %+v", st)
	}
}

func TestSealedPlatformEndToEnd(t *testing.T) {
	p := newPlatform(t, PilotIntercrop, ModeFarmFog, true)
	if err := p.PumpOnce(t0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().Counter("agent.north.ok").Value(); got != uint64(PilotIntercrop.Probes) {
		t.Errorf("sealed northbound ok = %d", got)
	}
	if bad := p.Metrics().Counter("agent.north.badseal").Value(); bad != 0 {
		t.Errorf("badseal = %d", bad)
	}
}

// slowAckConn is the broker's end of a device link whose broker-to-device
// direction stalls each write by delay once armed: PUBACKs arrive late.
type slowAckConn struct {
	net.Conn
	delay time.Duration
	armed atomic.Bool
}

func (c *slowAckConn) Write(b []byte) (int, error) {
	if c.armed.Load() {
		time.Sleep(c.delay)
	}
	return c.Conn.Write(b)
}

// TestSlowPubackRaisesNoReplayAlarm: an honest sealed probe whose PUBACK
// arrives after its AckTimeout sends its envelope once, so the agent's
// replay guard sees one envelope and raises nothing.
func TestSlowPubackRaisesNoReplayAlarm(t *testing.T) {
	p := newPlatform(t, PilotIntercrop, ModeFarmFog, true)
	u := p.Probes[0]
	client, server := net.Pipe()
	slow := &slowAckConn{Conn: server, delay: 150 * time.Millisecond}
	p.Broker.AttachConn(slow)
	// Connecting under the probe's own id takes its session over.
	c, err := mqtt.Connect(client, mqtt.ClientConfig{ClientID: string(u.Prov.Desc.ID), AckTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send, err := agent.DeviceSender(u.Prov, c, p.KeyRing)
	if err != nil {
		t.Fatal(err)
	}
	readings, err := u.Probe.Sample(t0)
	if err != nil {
		t.Fatal(err)
	}
	slow.armed.Store(true)
	if err := send(readings); !errors.Is(err, mqtt.ErrAckTimeout) {
		t.Errorf("send with a late PUBACK returned %v, want ErrAckTimeout", err)
	}
	if !p.Agent.WaitNorthbound(1, 2*time.Second) {
		t.Fatal("the sealed reading never went north")
	}
	time.Sleep(250 * time.Millisecond) // past the late PUBACK
	if n := p.Metrics().Counter("agent.north.replay").Value(); n != 0 {
		t.Errorf("agent.north.replay = %d for one honest reading", n)
	}
	if n := p.Metrics().Counter("agent.north.ok").Value(); n != 1 {
		t.Errorf("agent.north.ok = %d, want 1", n)
	}
}

func TestBrokerACLBlocksRogueDevice(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	rogue, err := p.DialDevice("rogue-node")
	if err != nil {
		t.Fatal(err)
	}
	// Rogue publishes to another device's attrs topic: dropped by ACL.
	if err := rogue.Publish("ul/swamp-matopiba/matopiba-probe-00/attrs", []byte("m1|0.01"), 0, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := p.Metrics().Counter("mqtt.publish.denied").Value(); got == 0 {
		t.Error("rogue publish not denied")
	}
	// Rogue cannot subscribe to another device's command topic.
	if _, err := rogue.Subscribe("ul/swamp-matopiba/matopiba-probe-00/cmd", 0, func(mqtt.Message) {}); err == nil {
		t.Error("rogue subscribed to another device's command topic")
	}
}

func TestPEPGuardsPlatformResources(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	tok, err := p.Tokens.GrantPassword("matopiba-farmer", "farmer-secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PEP.Authorize(tok.Value, "read", "ngsi:urn:swamp:matopiba:probe:01"); err != nil {
		t.Errorf("farmer read own data: %v", err)
	}
	if _, err := p.PEP.Authorize(tok.Value, "read", "ngsi:urn:swamp:guaspari:probe:01"); err == nil {
		t.Error("cross-pilot read permitted")
	}
	if _, err := p.PEP.Authorize(tok.Value, "command", "actuator:matopiba:valve"); err != nil {
		t.Errorf("farmer command own actuator: %v", err)
	}
	svc, _ := p.Tokens.GrantClientCredentials("svc-irrigation", "svc-secret")
	if _, err := p.PEP.Authorize(svc.Value, "command", "actuator:matopiba:pivot-s01"); err != nil {
		t.Errorf("service command: %v", err)
	}
}

func TestDecisionEngineEstimates(t *testing.T) {
	e, err := NewDecisionEngine(PilotMATOPIBA, mustGrid(t), map[model.DeviceID]int{"p0": 0})
	if err != nil {
		t.Fatal(err)
	}
	// At field capacity: zero depletion. Far below: clamped to TAW.
	if d := e.estimateDepletion(PilotMATOPIBA.Soil.FieldCapacity); d != 0 {
		t.Errorf("depletion at FC = %g", d)
	}
	if d := e.estimateDepletion(0.0); d != e.tawMM {
		t.Errorf("depletion at zero = %g, want TAW %g", d, e.tawMM)
	}
	// Wet view → no commands.
	latest := map[string]model.Reading{
		"p0/soilMoisture_d20": {Device: "p0", Quantity: "soilMoisture_d20", Value: PilotMATOPIBA.Soil.FieldCapacity, At: t0},
	}
	if cmds := e.Decide(latest, t0); len(cmds) != 0 {
		t.Errorf("wet field commands: %v", cmds)
	}
	// Dry view → commands for every sector (global fallback).
	latest["p0/soilMoisture_d20"] = model.Reading{Device: "p0", Quantity: "soilMoisture_d20", Value: 0.05, At: t0}
	cmds := e.Decide(latest, t0)
	if len(cmds) != PilotMATOPIBA.Sectors {
		t.Errorf("dry field commands = %d, want %d", len(cmds), PilotMATOPIBA.Sectors)
	}
}

func mustGrid(t *testing.T) model.FieldGrid {
	t.Helper()
	g, err := model.NewFieldGrid(model.GeoPoint{Lat: -12, Lon: -45}, PilotMATOPIBA.GridRows, PilotMATOPIBA.GridCols, PilotMATOPIBA.CellSizeM)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunSeasonMATOPIBAFog(t *testing.T) {
	if testing.Short() {
		t.Skip("season simulation is long")
	}
	p := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	rep, err := p.RunSeason(SeasonHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Days != PilotMATOPIBA.Crop.SeasonDays() {
		t.Errorf("days = %d", rep.Days)
	}
	if rep.IrrigationMM <= 0 {
		t.Error("season applied no water")
	}
	if rep.EnergyKWh <= 0 {
		t.Error("no energy accounted")
	}
	if rep.YieldIndex < 0.7 {
		t.Errorf("irrigated yield %.3f too low", rep.YieldIndex)
	}
	if rep.DecisionFailures != 0 {
		t.Errorf("decision failures = %d", rep.DecisionFailures)
	}
	if !strings.Contains(rep.String(), "pilot=matopiba") {
		t.Error("report rendering broken")
	}
}

// TestInfrastructureNamesGetNoACLPass: no client dials the broker as "fog",
// "cloud" or "platform", so a device that picks one of those names is a
// device — own topics only, the pilot's tenant — like any other. Over TCP,
// the way a device would try it.
func TestInfrastructureNamesGetNoACLPass(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = p.Broker.Serve(ln) }() // returns when ln closes
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := mqtt.Connect(conn, mqtt.ClientConfig{ClientID: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })

	if _, err := cloud.Subscribe(agent.AttrsFilter, 0, func(mqtt.Message) {}); err == nil {
		t.Error(`client "cloud" subscribed to every device's readings`)
	}
	if err := cloud.Publish("ul/swamp-matopiba/matopiba-probe-00/attrs", []byte("m1|0.01"), 0, false); err != nil {
		t.Fatal(err)
	}
	denied := p.Metrics().Counter("mqtt.publish.denied")
	for deadline := time.Now().Add(2 * time.Second); denied.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if denied.Value() != 1 {
		t.Errorf("mqtt.publish.denied = %d after a publish on another device's topic, want 1", denied.Value())
	}
	for _, id := range []string{"fog", "cloud", "platform"} {
		if got := p.brokerTenant(id, ""); got != tenant.ID(PilotMATOPIBA.Name) {
			t.Errorf("brokerTenant(%q) = %q, want the pilot's tenant", id, got)
		}
		if p.brokerACL(id, "ul/swamp-matopiba/matopiba-probe-00/cmd", false) {
			t.Errorf("client %q may subscribe to another device's commands", id)
		}
	}
}

// platformGoroutines counts the live goroutines that run this module's code.
func platformGoroutines() int {
	count := 0
	for _, g := range strings.Split(allStacks(), "\n\n") {
		if strings.Contains(g, "swamp/internal/") && !strings.Contains(g, "platformGoroutines") {
			count++
		}
	}
	return count
}

// TestCloseUnderPublishLoad: Close detaches the agent from the broker before
// it stops the batcher, so a device publishing straight through the shutdown
// is routed to nobody rather than into a closed batcher; nothing the
// platform started outlives Close.
func TestCloseUnderPublishLoad(t *testing.T) {
	before := platformGoroutines()
	p, err := New(Options{Pilot: PilotIntercrop, Mode: ModeFarmFog, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Publishers the platform does not own (Close disconnects its own
	// probes first): pipes the broker serves until it closes.
	const publishers = 3
	var wg sync.WaitGroup
	var clients []func()
	closeClients := func() {
		for _, f := range clients {
			f()
		}
		clients = nil
	}
	defer closeClients()
	for i := 0; i < publishers; i++ {
		u := p.Probes[i]
		client, server := net.Pipe()
		p.Broker.AttachConn(server)
		// The twin publishes on the probe's topic; brokerACL keys on the
		// client id, so it connects under the probe's own (taking it over).
		c, err := mqtt.Connect(client, mqtt.ClientConfig{ClientID: string(u.Prov.Desc.ID), AckTimeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, func() { c.Close() })
		topic := agent.AttrsTopic(u.Prov.Desc.APIKey, string(u.Prov.Desc.ID))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				if err := c.Publish(topic, []byte(fmt.Sprintf("m1|0.%02d", k%100)), 1, false); err != nil {
					return // the broker went away
				}
			}
		}()
	}
	ok := p.Metrics().Counter("agent.north.ok")
	deadline := time.Now().Add(5 * time.Second)
	for ok.Value() < 200 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ok.Value() < 200 {
		t.Fatalf("only %d readings went north before Close", ok.Value())
	}
	p.Close()
	wg.Wait()
	closeClients() // their link goroutines are this test's, not the platform's
	if got := p.Metrics().Counter("agent.north.ctxerr").Value(); got != 0 {
		t.Errorf("agent.north.ctxerr = %d: a publish reached the agent after its batcher closed", got)
	}
	if added, okv := p.Metrics().Counter("ngsi.batcher.added").Value(), ok.Value(); added != okv {
		t.Errorf("batcher took %d readings, %d reached the context broker", added, okv)
	}
	deadline = time.Now().Add(2 * time.Second)
	got := platformGoroutines()
	for got > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		got = platformGoroutines()
	}
	if got > before {
		t.Errorf("%d goroutines of the platform outlive Close", got-before)
	}
}

// A write that changes one attribute stores and scores that attribute
// only: the probe's other depth keeps the one point it was written with,
// and its unchanged value is not fed to the anomaly engine again, so it
// raises no stuck alert.
func TestTelemetryStoresOnlyChangedAttrs(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeCloudOnly, false)
	if err := p.PumpOnce(t0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	want := uint64(len(p.Probes))
	if !p.WaitPipeline(want, 5*time.Second) {
		t.Fatal("pump notifications never processed")
	}
	u := p.Probes[0]
	for i := 1; i <= 12; i++ {
		err := u.Send([]model.Reading{{
			Device: u.Prov.Desc.ID, Quantity: model.QSoilMoisture, Depth: 0.2,
			Value: 0.2 + float64(i)/1000, Unit: "m3/m3", At: t0.Add(time.Duration(i) * time.Minute),
		}})
		if err != nil {
			t.Fatal(err)
		}
		want++
		if !p.WaitPipeline(want, 5*time.Second) {
			t.Fatalf("write %d never notified", i)
		}
	}
	dev := string(u.Prov.Desc.ID)
	if n := p.Store.Len(timeseries.SeriesKey{Device: dev, Quantity: "soilMoisture_d20"}); n != 13 {
		t.Errorf("d20 series holds %d points, want 13", n)
	}
	if n := p.Store.Len(timeseries.SeriesKey{Device: dev, Quantity: "soilMoisture_d50"}); n != 1 {
		t.Errorf("untouched d50 series holds %d points, want 1", n)
	}
	if n := p.Anomaly.CountByKind()["stuck"]; n != 0 {
		t.Errorf("%d stuck alerts on a series no write touched", n)
	}
}
