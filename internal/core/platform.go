package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/agent"
	"github.com/swamp-project/swamp/internal/anomaly"
	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/cloud"
	"github.com/swamp-project/swamp/internal/cluster"
	"github.com/swamp-project/swamp/internal/config"
	"github.com/swamp-project/swamp/internal/drone"
	"github.com/swamp-project/swamp/internal/fog"
	"github.com/swamp-project/swamp/internal/irrigation"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/security/oauth"
	"github.com/swamp-project/swamp/internal/security/pep"
	"github.com/swamp-project/swamp/internal/security/secchan"
	"github.com/swamp-project/swamp/internal/sensor"
	"github.com/swamp-project/swamp/internal/soil"
	"github.com/swamp-project/swamp/internal/tenant"
	"github.com/swamp-project/swamp/internal/timeseries"
	"github.com/swamp-project/swamp/internal/weather"
)

// Mode selects the paper's deployment configuration (§I).
type Mode int

// Deployment modes.
const (
	// ModeCloudOnly: decisions run in the cloud; every loop crosses the
	// backhaul, so a partition stalls irrigation.
	ModeCloudOnly Mode = iota + 1
	// ModeFarmFog: a fog node on the farm premises decides locally and
	// syncs telemetry opportunistically.
	ModeFarmFog
	// ModeMobileFog: farm fog plus mobile fog (drone NDVI) inputs.
	ModeMobileFog
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCloudOnly:
		return "cloud-only"
	case ModeFarmFog:
		return "farm-fog"
	case ModeMobileFog:
		return "mobile-fog"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Backhaul models the farm↔cloud Internet path: a latency plus a
// partition switch. Both the fog sync and cloud-mode decision loops cross
// it. Entirely lock-free: the partition flag and the trip/failure counters
// are atomics and the latency is fixed at construction, so concurrent
// round trips never serialize on backhaul state.
type Backhaul struct {
	partitioned atomic.Bool
	latency     time.Duration // immutable after NewBackhaul
	trips       atomic.Uint64
	failures    atomic.Uint64
}

// NewBackhaul builds a backhaul with one-way latency lat.
func NewBackhaul(lat time.Duration) *Backhaul {
	return &Backhaul{latency: lat}
}

// ErrPartitioned is returned for traffic during a partition.
var ErrPartitioned = errors.New("core: backhaul partitioned")

// Do executes one round trip: it fails during partitions and otherwise
// charges 2× latency before invoking f.
func (b *Backhaul) Do(f func() error) error { return b.DoGated(nil, f) }

// DoGated is Do with a gate in front of the trip: gate runs only once the
// backhaul is up, and an error from it refuses the trip, which is then
// neither made nor counted.
func (b *Backhaul) DoGated(gate, f func() error) error {
	if b.partitioned.Load() {
		b.failures.Add(1)
		return ErrPartitioned
	}
	if gate != nil {
		if err := gate(); err != nil {
			return err
		}
	}
	if b.latency > 0 {
		time.Sleep(2 * b.latency)
	}
	b.trips.Add(1)
	return f()
}

// SetPartitioned cuts or heals the backhaul.
func (b *Backhaul) SetPartitioned(p bool) {
	b.partitioned.Store(p)
}

// Partitioned reports the current state.
func (b *Backhaul) Partitioned() bool {
	return b.partitioned.Load()
}

// Trips returns (successful round trips, failures).
func (b *Backhaul) Trips() (uint64, uint64) {
	return b.trips.Load(), b.failures.Load()
}

// Options configures a Platform: the scenario a simulation or test picks
// by value, and Config, which carries every tuning knob.
type Options struct {
	Pilot Pilot
	Mode  Mode
	// Seed drives every stochastic component deterministically.
	Seed int64
	// Sealed turns on secchan payload encryption end to end.
	Sealed bool
	// BackhaulLatency is the one-way farm↔cloud latency.
	BackhaulLatency time.Duration
	// Config is the configuration schema New reads every knob from;
	// nil means config.Default().
	Config *config.Config
	// Metrics receives all component counters; nil allocates one.
	Metrics *metrics.Registry
	// TelemetryClock drives age-based retention decisions (nil → wall
	// clock). Simulations that enable timeseries.retention must pass their
	// simulated clock here: readings carry simulated timestamps, and
	// evicting against wall time would silently delete the whole season.
	TelemetryClock clock.Clock
}

// tokenPurgeInterval is how often the token store drops expired and
// revoked tokens.
const tokenPurgeInterval = time.Minute

// Platform is one fully wired SWAMP deployment.
type Platform struct {
	Opts Options

	// Transport and context plane.
	Broker   *mqtt.Broker
	Context  *ngsi.Broker
	Agent    *agent.Agent
	Webhooks *ngsi.WebhookPool

	// Security plane (§III).
	IDM     *identity.Store
	Tokens  *oauth.Server
	PDP     *pep.PDP
	PEP     *pep.PEP
	KeyRing *secchan.KeyRing
	Anomaly *anomaly.Engine

	// Admission is the per-tenant admission controller shared by every
	// ingress (MQTT publish, HTTP API, fog sync, webhook egress). Always
	// constructed; enforcement is gated on the tenant.enabled knob.
	Admission *tenant.Admission

	// Cloud plane.
	Store     *timeseries.Store
	Ingestor  *cloud.Ingestor
	Analytics *cloud.Analytics
	Backhaul  *Backhaul

	// Durability plane (nil unless wal.dir is set).
	Durable *Durability

	// Writer is the write path every ingress takes: ngsi.Local on a
	// single node, Router on a cluster.
	Writer ngsi.Writer

	// Cluster plane (nil unless cluster.node_id is set).
	Node      *cluster.Node
	Router    *cluster.Router
	clusterLn io.Closer

	// Farm plane.
	Fog       *fog.Node
	Actuators *irrigation.ActuatorBank
	Field     *soil.Field
	Weather   *weather.Generator
	Station   *sensor.WeatherStation
	Probes    []*ProbeUnit
	Decision  *DecisionEngine

	reg       *metrics.Registry
	cleanups  []func()
	closed    bool
	closing   chan struct{} // closed first thing in Close: cuts pacing short
	mu        sync.Mutex
	droneUnit *drone.Drone

	// notifyProcessed is platform.notify.processed, resolved once: every
	// context notification bumps it and WaitPipeline polls it.
	notifyProcessed *metrics.Counter
}

// ProbeUnit bundles one provisioned soil probe with its transport.
type ProbeUnit struct {
	Probe  *sensor.SoilProbe
	Prov   agent.Provision
	Client *mqtt.Client
	Send   func([]model.Reading) error
	Cell   int
}

// New wires a complete platform for the pilot. Close releases everything.
func New(opts Options) (*Platform, error) {
	if err := opts.Pilot.Validate(); err != nil {
		return nil, err
	}
	if opts.Mode == 0 {
		opts.Mode = ModeFarmFog
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Config == nil {
		opts.Config = config.Default()
	}
	cfg := opts.Config
	p := &Platform{
		Opts: opts, reg: opts.Metrics, closing: make(chan struct{}),
		notifyProcessed: opts.Metrics.Counter("platform.notify.processed"),
	}

	// --- security plane ---
	p.IDM = identity.NewStore()
	p.Tokens = oauth.NewServer(p.IDM, oauth.Config{})
	p.Tokens.StartPurge(tokenPurgeInterval)
	owner := opts.Pilot.Name
	tid := tenant.ID(owner)
	p.PDP = pep.NewPDP(
		pep.Policy{
			ID:              "farmer-own-data",
			Roles:           []identity.Role{identity.RoleFarmer, identity.RoleAgronomist},
			Owners:          []tenant.ID{tid},
			Actions:         []string{"read", "subscribe"},
			ResourcePattern: "ngsi:urn:swamp:" + owner + ":*",
			Effect:          pep.Permit,
		},
		pep.Policy{
			ID:              "farmer-commands",
			Roles:           []identity.Role{identity.RoleFarmer},
			Owners:          []tenant.ID{tid},
			Actions:         []string{"command"},
			ResourcePattern: "actuator:" + owner + ":*",
			Effect:          pep.Permit,
		},
		pep.Policy{
			ID:              "farmer-subscriptions",
			Roles:           []identity.Role{identity.RoleFarmer, identity.RoleAgronomist},
			Owners:          []tenant.ID{tid},
			Actions:         []string{"read", "subscribe"},
			ResourcePattern: "subscriptions",
			Effect:          pep.Permit,
		},
		pep.Policy{
			ID:      "services-full",
			Roles:   []identity.Role{identity.RoleService},
			Actions: []string{"read", "subscribe", "command"},
			Effect:  pep.Permit,
		},
	)
	p.PEP = pep.NewPEP(p.Tokens, p.PDP, p.reg)
	if err := p.IDM.Register(identity.Principal{
		ID: owner + "-farmer", Roles: []identity.Role{identity.RoleFarmer}, Owner: tid,
	}, "farmer-secret"); err != nil {
		return nil, err
	}
	if err := p.IDM.Register(identity.Principal{
		ID: "svc-irrigation", Roles: []identity.Role{identity.RoleService}, Owner: tid,
	}, "svc-secret"); err != nil {
		return nil, err
	}
	if opts.Sealed {
		p.KeyRing = secchan.NewKeyRing()
		if _, err := p.KeyRing.Generate("agent"); err != nil {
			return nil, err
		}
	}

	// --- anomaly engine, fed by the broker tap and context notifications ---
	p.Anomaly = anomaly.NewEngine(anomaly.EngineConfig{
		Rate: anomaly.RateConfig{Window: 5 * time.Second, LimitPerSec: 50},
		// Heterogeneous soil makes honest probes genuinely disagree, so
		// the cross-sensor check needs a generous spread floor here; the
		// per-series EWMA carries the fine-grained tamper detection.
		Consistency: anomaly.ConsistencyConfig{MinPeers: 4, K: 8, MinSpread: 0.02},
		// Honest probes carry ≥0.004 m³/m³ instrument noise, so their
		// pairwise streams differ by ~0.006 on average; only fabricated
		// replicas fall under this epsilon.
		Sybil:   anomaly.SybilConfig{SimilarityEps: 0.002, MinSamples: 6},
		Sink:    func(anomaly.Alert) {},
		Metrics: p.reg,
	})

	// --- tenant admission plane ---
	// Constructed unconditionally (enforcement is behind tenant.enabled)
	// so every ingress wires through it and a reload can turn admission
	// on without a restart.
	p.Admission = tenant.NewAdmission(tenant.Config{
		Enabled: cfg.Tenant.Enabled,
		Limits:  cfg.Tenant.Limits(),
		Burst:   cfg.Tenant.Burst,
	})

	// --- transport plane ---
	p.Broker = mqtt.NewBroker(mqtt.BrokerConfig{
		Metrics:    p.reg,
		ACL:        p.brokerACL,
		TenantFunc: p.brokerTenant,
		Admission:  p.Admission,
	})
	p.Broker.Tap = p.Anomaly.OnMessage

	// --- context plane ---
	// Component shutdown is NOT registered in cleanups: Close sequences
	// the planes explicitly (ingress → drains → stores → WAL) so
	// in-flight work lands before the stores it lands in go away.
	p.Context = ngsi.NewBroker(ngsi.BrokerConfig{Metrics: p.reg})
	p.Webhooks = ngsi.NewWebhookPool(ngsi.WebhookConfig{
		Metrics:   p.reg,
		OnStatus:  ngsi.StatusUpdater(p.Context),
		Admission: p.Admission,
	})

	// --- cloud plane ---
	// The clock is wired even with retention off, so a reload that turns
	// retention on evicts on it.
	p.Store = timeseries.New(
		timeseries.WithMaxPointsPerSeries(100_000),
		timeseries.WithMaxAge(cfg.Timeseries.Retention),
		timeseries.WithClock(opts.TelemetryClock))
	p.Analytics = cloud.NewAnalytics(p.Store)
	p.Backhaul = NewBackhaul(opts.BackhaulLatency)

	// --- durability plane ---
	// Recovery runs before any internal subscription is wired, so
	// replaying entities cannot fire platform callbacks; only recovered
	// webhook subscriptions see (at-least-once) tail redeliveries.
	if cfg.WAL.Dir != "" {
		d, err := OpenDurability(DurabilityConfig{
			Dir:              cfg.WAL.Dir,
			SnapshotInterval: cfg.WAL.SnapshotInterval,
			Metrics:          p.reg,
		}, p.Context, p.Store, p.Webhooks)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.Durable = d
	}

	// --- write path ---
	// A cluster node comes up after recovery (followers must not stream
	// half-recovered state) and before any ingress attaches, so every
	// write below routes to its partition's leader.
	p.Writer = ngsi.Local{Broker: p.Context, Store: p.Store}
	if cfg.Cluster.NodeID != "" {
		if err := p.startCluster(cfg.Cluster); err != nil {
			p.Close()
			return nil, err
		}
		p.Writer = p.Router
	}
	p.Ingestor = cloud.NewIngestor(p.Writer, p.reg)

	// Context → anomaly + cloud persistence. In fog modes the fog node
	// forwards telemetry instead, so the context subscription only feeds
	// anomaly detection there.
	if _, err := p.Context.Subscribe(ngsi.Subscription{
		ID:              "platform-telemetry",
		EntityIDPattern: "*",
		Notifier:        ngsi.Callback(p.onContextNotification),
	}); err != nil {
		p.Close()
		return nil, err
	}

	// --- IoT agent ---
	var err error
	p.Agent, err = agent.New(agent.Config{
		Broker: p.Broker, Writer: p.Writer, KeyRing: p.KeyRing, Metrics: p.reg,
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	// Agent.Stop is sequenced explicitly in Close (after the clients
	// disconnect, before the MQTT and context brokers close) so a late
	// publish is routed to nobody and the batcher flushes into a live broker.
	if err := p.Agent.Start(); err != nil {
		p.Close()
		return nil, err
	}

	// --- farm plane: field, weather, devices ---
	grid, err := model.NewFieldGrid(
		model.GeoPoint{Lat: opts.Pilot.Climate.LatitudeDeg, Lon: -45},
		opts.Pilot.GridRows, opts.Pilot.GridCols, opts.Pilot.CellSizeM)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.Field, err = soil.NewHeterogeneousField(grid, opts.Pilot.Crop, opts.Pilot.Soil,
		opts.Pilot.SoilVariability, opts.Seed)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.Weather, err = weather.NewGenerator(opts.Pilot.Climate, opts.Seed+1)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.Actuators = irrigation.NewActuatorBank()

	if err := p.provisionDevices(); err != nil {
		p.Close()
		return nil, err
	}

	// --- decision engine + fog ---
	p.Decision, err = NewDecisionEngine(opts.Pilot, p.Field.Grid, p.probeCells())
	if err != nil {
		p.Close()
		return nil, err
	}
	if opts.Mode != ModeCloudOnly {
		p.Fog, err = fog.NewNode(fog.Config{
			Uplink:   p.cloudUplink,
			Decide:   p.Decision.Decide,
			Commands: p.applyCommand,
			Metrics:  p.reg,
		})
		if err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// brokerTenant resolves an MQTT client to its tenant at CONNECT time: the
// agent's id (refused at CONNECT while it is attached) and the benchmark
// harness's are internal traffic (tenant.None, exempt from admission);
// every other client is a device of the pilot's tenant. The username is
// client-supplied, so it never names the tenant.
func (p *Platform) brokerTenant(clientID, _ string) tenant.ID {
	switch clientID {
	case "iot-agent", "bench":
		return tenant.None
	}
	return tenant.ID(p.Opts.Pilot.Name)
}

// brokerACL restricts devices to their own topics. Unrestricted are the
// IoT agent's id — reachable only through InjectPublish, the broker refuses
// it at CONNECT while the agent is attached — and the benchmark harness's.
// This is the transport-level arm of the §III access control story.
func (p *Platform) brokerACL(clientID, topic string, write bool) bool {
	switch clientID {
	case "iot-agent", "bench":
		return true
	}
	if _, devID, err := agent.ParseAttrsTopic(topic); err == nil {
		return write && devID == clientID
	}
	// Command topics: only the device itself may subscribe.
	if dev, ok := parseCmdTopic(topic); ok {
		return !write && dev == clientID
	}
	return false
}

// parseCmdTopic returns the device of a command topic ul/<key>/<dev>/cmd.
func parseCmdTopic(topic string) (dev string, ok bool) {
	parts := strings.Split(topic, "/")
	if len(parts) == 4 && parts[0] == "ul" && parts[3] == "cmd" {
		return parts[2], true
	}
	return "", false
}

// DialDevice connects an in-process device client over a net.Pipe, through
// the byte stream a TCP device uses — also used by attack injectors to join
// as rogue devices.
func (p *Platform) DialDevice(clientID string) (*mqtt.Client, error) {
	client, server := net.Pipe()
	p.Broker.AttachConn(server)
	c, err := mqtt.Connect(client, mqtt.ClientConfig{ClientID: clientID})
	if err != nil {
		return nil, fmt.Errorf("core: dial device %s: %w", clientID, err)
	}
	p.mu.Lock()
	p.cleanups = append(p.cleanups, func() { c.Close() })
	p.mu.Unlock()
	return c, nil
}

// provisionDevices creates the pilot's probes and weather station,
// registers them with IDM, agent and (optionally) the key ring.
func (p *Platform) provisionDevices() error {
	pilot := p.Opts.Pilot
	n := p.Field.Grid.NumCells()
	stride := n / pilot.Probes
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < pilot.Probes; i++ {
		cell := (i*stride + stride/2) % n
		id := fmt.Sprintf("%s-probe-%02d", pilot.Name, i)
		desc := model.Descriptor{
			ID: model.DeviceID(id), Kind: model.KindSoilProbe, Owner: tenant.ID(pilot.Name),
			Location: cellCenter(p.Field.Grid, cell),
			Depths:   []float64{0.2, 0.5},
			APIKey:   "swamp-" + pilot.Name,
		}
		prov := agent.Provision{
			Desc:       desc,
			EntityID:   fmt.Sprintf("urn:swamp:%s:probe:%02d", pilot.Name, i),
			EntityType: "SoilProbe",
			AttrMap: map[string]agent.AttrSpec{
				"m1": {Quantity: model.QSoilMoisture, Depth: 0.2},
				"m2": {Quantity: model.QSoilMoisture, Depth: 0.5},
			},
		}
		if err := p.Agent.Provision(prov); err != nil {
			return err
		}
		if err := p.IDM.Register(identity.Principal{
			ID: id, Roles: []identity.Role{identity.RoleDevice}, Owner: tenant.ID(pilot.Name),
		}, "device-"+id); err != nil {
			return err
		}
		if p.KeyRing != nil {
			if _, err := p.KeyRing.Generate(id); err != nil {
				return err
			}
		}
		probe, err := sensor.NewSoilProbe(desc, p.Field, cell, 0.004, p.Opts.Seed+int64(i)+10)
		if err != nil {
			return err
		}
		client, err := p.DialDevice(id)
		if err != nil {
			return err
		}
		send, err := agent.DeviceSender(prov, client, p.KeyRing)
		if err != nil {
			return err
		}
		p.Probes = append(p.Probes, &ProbeUnit{Probe: probe, Prov: prov, Client: client, Send: send, Cell: cell})
	}

	// Weather station.
	wsID := pilot.Name + "-ws"
	wsDesc := model.Descriptor{
		ID: model.DeviceID(wsID), Kind: model.KindWeatherStation, Owner: tenant.ID(pilot.Name),
		APIKey: "swamp-" + pilot.Name,
	}
	ws, err := sensor.NewWeatherStation(wsDesc, p.Opts.Seed+99)
	if err != nil {
		return err
	}
	p.Station = ws
	return nil
}

func cellCenter(g model.FieldGrid, idx int) model.GeoPoint {
	r, c := g.CellRC(idx)
	return g.CellCenter(r, c)
}

// probeCells maps probe device id → field cell.
func (p *Platform) probeCells() map[model.DeviceID]int {
	out := make(map[model.DeviceID]int, len(p.Probes))
	for _, u := range p.Probes {
		out[u.Prov.Desc.ID] = u.Cell
	}
	return out
}

// onContextNotification feeds anomaly detection (always) and, in cloud-only
// mode, persists through the backhaul (fog forwards otherwise). It only
// reads n.Entity — a stored version shared with every other reader. On a
// cluster it runs on the entity's leader only: a follower's replicated
// apply notifies too, and would ingest every reading once more.
func (p *Platform) onContextNotification(n ngsi.Notification) {
	if p.Node != nil && !p.Node.Leads(n.Entity.ID) {
		return
	}
	readings := make([]model.Reading, 0, len(n.Entity.Attrs))
	for name, attr := range n.Entity.Attrs {
		v, ok := attr.Float()
		if !ok {
			continue
		}
		dev := attr.Metadata["device"]
		if dev == "" {
			dev = n.Entity.ID
		}
		at := attr.At
		if at.IsZero() {
			at = n.At
		}
		r := model.Reading{
			Device: model.DeviceID(dev), Quantity: model.Quantity(name), Value: v, At: at,
		}
		p.Anomaly.OnReading(r)
		readings = append(readings, r)
	}
	defer p.notifyProcessed.Inc()
	if p.Opts.Mode == ModeCloudOnly {
		_ = p.Backhaul.Do(func() error {
			return p.Ingestor.IngestReadings(readings)
		})
	} else if p.Fog != nil {
		// Fog ingests the decoded readings for local decisions and queues
		// them for its own uplink loop; the dispatcher never waits on the
		// backhaul.
		_ = p.Fog.Ingest(readings)
	}
}

// approxReadingBytes is the admission byte charge per fog-synced reading
// (the rough wire footprint of one encoded sample).
const approxReadingBytes = 24

// cloudUplink is the fog node's northbound path: a backhaul round trip
// into the cloud ingestor.
//
// Admission here is pure backpressure, charged only for a trip that
// crosses: it runs once the backhaul is known to be up, so a partitioned
// trip costs nothing. A refusal (uncharged, no trip counted) surfaces as
// an error, which the fog node treats exactly like a partition: the batch
// stays in its store-and-forward queue and replays later. A tenant in
// debt is charged once and paced before the trip; Close cuts the pace
// short, and the charged batch still goes.
func (p *Platform) cloudUplink(batch []model.Reading) error {
	tid := tenant.ID(p.Opts.Pilot.Name)
	admit := func() error {
		d := p.Admission.Admit(tid, int64(len(batch))*approxReadingBytes)
		if !d.Allowed() {
			return fmt.Errorf("core: fog uplink throttled for tenant %s (retry in %v)", tid, d.Wait)
		}
		p.Admission.Pace(d, p.closing)
		return nil
	}
	return p.Backhaul.DoGated(admit, func() error {
		return p.Ingestor.IngestReadings(batch)
	})
}

// applyCommand journals a decision into the actuator bank and the anomaly
// sequence profiler.
func (p *Platform) applyCommand(c model.Command) error {
	p.Anomaly.OnEvent("decision-loop", "command:"+c.Name, c.At)
	return p.Actuators.Apply(c)
}

// PumpOnce drives one full northbound cycle: every probe samples and
// publishes over MQTT, and the call blocks until the agent has processed
// the batches (or the timeout expires).
func (p *Platform) PumpOnce(at time.Time, timeout time.Duration) error {
	before := p.reg.Counter("agent.north.ok").Value()
	for _, u := range p.Probes {
		readings, err := u.Probe.Sample(at)
		if err != nil {
			return err
		}
		if err := u.Send(readings); err != nil {
			return fmt.Errorf("core: probe %s publish: %w", u.Prov.Desc.ID, err)
		}
	}
	want := before + uint64(len(p.Probes))
	if !p.Agent.WaitNorthbound(want, timeout) {
		return fmt.Errorf("core: northbound pipeline incomplete (%d/%d)",
			p.reg.Counter("agent.north.ok").Value()-before, len(p.Probes))
	}
	return nil
}

// WaitPipeline blocks until the mode-appropriate downstream (fog ingest or
// cloud persistence) has processed at least n notification batches, making
// Pump→Decide cycles deterministic. It reports whether the target was
// reached before the timeout.
func (p *Platform) WaitPipeline(n uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.notifyProcessed.Value() >= n {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// DecideOnce runs one decision cycle appropriate to the deployment mode
// and returns the issued commands. In cloud-only mode the loop crosses the
// backhaul twice (state fetch + command push) and therefore fails during
// partitions; in fog modes it is local and always available.
func (p *Platform) DecideOnce(at time.Time) ([]model.Command, error) {
	p.Anomaly.OnEvent("decision-loop", "plan", at)
	switch p.Opts.Mode {
	case ModeCloudOnly:
		var cmds []model.Command
		err := p.Backhaul.Do(func() error { // fetch state
			latest := p.cloudLatest()
			cmds = p.Decision.Decide(latest, at)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range cmds {
			if err := p.Backhaul.Do(func() error { return p.applyCommand(c) }); err != nil {
				return cmds, err
			}
		}
		return cmds, nil
	default:
		if p.Fog == nil {
			return nil, errors.New("core: fog node missing")
		}
		return p.Fog.RunDecision(at)
	}
}

// cloudLatest reconstructs the latest-readings view from the cloud store
// in one pass over the store's shards (no key copying, no per-key lock).
func (p *Platform) cloudLatest() map[string]model.Reading {
	out := make(map[string]model.Reading)
	p.Store.ForEachLatest(func(key timeseries.SeriesKey, pt timeseries.Point) {
		out[key.Device+"/"+key.Quantity] = model.Reading{
			Device:   model.DeviceID(key.Device),
			Quantity: model.Quantity(key.Quantity),
			Value:    pt.Value,
			At:       pt.At,
		}
	})
	return out
}

// Metrics returns the shared registry.
func (p *Platform) Metrics() *metrics.Registry { return p.reg }

// Close tears the platform down in dependency order, not construction
// order: stop ingress first, then drain every in-flight queue into the
// stores it feeds, then close the stores, and flush the WAL last — so
// no acknowledged work is lost at shutdown.
//
//  1. disconnect the device MQTT clients so no new traffic enters;
//  2. stop the IoT agent: it detaches from the MQTT broker first (a
//     publish still racing in is routed to nobody), then flushes its
//     northbound batcher into the context broker;
//  3. close the MQTT broker, draining per-session outbound queues;
//  4. close the context broker, draining shard notification queues into
//     their notifiers (webhook queues, fog ingest, cloud persistence);
//  5. drain and close the webhook pool (bounded wait — a stalled
//     endpoint cannot wedge shutdown);
//  6. close the fog node: its uplink loop stops and a final flush syncs
//     the store-and-forward backlog while the cloud store is still open;
//  7. on a cluster, stop the Router and the Node (the flushes above
//     have routed their writes);
//  8. close the telemetry store (stops background eviction);
//  9. close the durability plane last: every write the steps above
//     produced group-commits and fsyncs before Close returns.
func (p *Platform) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.closing)
	cleanups := p.cleanups
	p.cleanups = nil
	p.mu.Unlock()
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	if p.Agent != nil {
		p.Agent.Stop()
	}
	if p.Broker != nil {
		p.Broker.Close()
	}
	if p.Context != nil {
		p.Context.Close()
	}
	if p.Webhooks != nil {
		p.Webhooks.Drain(2 * time.Second)
		p.Webhooks.Close()
	}
	if p.Fog != nil {
		p.Fog.Close()
	}
	if p.Node != nil {
		p.Router.Close()
		_ = p.clusterLn.Close()
		p.Node.Close()
	}
	if p.Store != nil {
		p.Store.Close()
	}
	if p.Tokens != nil {
		p.Tokens.Close()
	}
	if p.Durable != nil {
		_ = p.Durable.Close()
	}
}
