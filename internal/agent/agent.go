package agent

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/secchan"
)

// AttrSpec maps one UL short code to a quantity (and measurement depth for
// soil probes).
type AttrSpec struct {
	Quantity model.Quantity
	Depth    float64
}

// Provision registers one device with the agent: its descriptor, the NGSI
// entity it feeds, and its UL attribute dictionary.
type Provision struct {
	Desc       model.Descriptor
	EntityID   string
	EntityType string
	// AttrMap maps UL codes ("m", "t") to quantities.
	AttrMap map[string]AttrSpec
}

// Validate reports the first problem with the provision record.
func (p Provision) Validate() error {
	if err := p.Desc.Validate(); err != nil {
		return err
	}
	switch {
	case p.Desc.APIKey == "":
		return fmt.Errorf("agent: device %s: empty API key", p.Desc.ID)
	case p.EntityID == "":
		return fmt.Errorf("agent: device %s: empty entity id", p.Desc.ID)
	case p.EntityType == "":
		return fmt.Errorf("agent: device %s: empty entity type", p.Desc.ID)
	case len(p.AttrMap) == 0 && !p.Desc.Kind.IsActuator():
		return fmt.Errorf("agent: device %s: empty attribute map", p.Desc.ID)
	}
	return nil
}

// NGSIAttrName is the context attribute name for a spec: the quantity,
// suffixed with the depth in centimetres for below-ground measurements
// ("soilMoisture_d20").
func NGSIAttrName(s AttrSpec) string {
	if s.Depth > 0 {
		return fmt.Sprintf("%s_d%d", s.Quantity, int(s.Depth*100+0.5))
	}
	return string(s.Quantity)
}

// device is a provision record with what every reading of the device needs
// resolved once, at Provision time.
type device struct {
	Provision
	// attrName maps UL codes to NGSI attribute names.
	attrName map[string]string
	// meta is the device/owner metadata every attribute of the device
	// carries. Never written after Provision: the stored versions share it.
	meta map[string]string
}

// Config wires an Agent.
type Config struct {
	// Broker is the MQTT broker the agent attaches to in process.
	Broker *mqtt.Broker
	// Writer receives decoded measurements.
	Writer ngsi.Writer
	// KeyRing, if non-nil, requires every northbound payload to be a valid
	// secchan envelope (AAD = topic) and protects southbound commands the
	// same way.
	KeyRing *secchan.KeyRing
	// Replay guards sealed traffic; defaults to a fresh guard when KeyRing
	// is set.
	Replay *secchan.ReplayGuard
	// Metrics receives agent counters; nil allocates a private registry.
	Metrics *metrics.Registry
	// Logf receives diagnostics; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Agent is the IoT agent. Construct with New, then Start; call Stop to
// detach and flush the northbound tail. It holds no MQTT session: northbound
// it is a local attachment (mqtt.Broker.AttachLocal) whose handler decodes on
// the publishing connection's goroutine, southbound it injects commands.
// Decoded measurements reach the writer through an ngsi.Batcher the
// agent owns: coalesced per entity, flushed as BatchUpdate calls as soon as
// the previous flush has committed. At the batcher's entity bound the handler
// blocks — only the connection that published; nothing acknowledged is shed.
type Agent struct {
	cfg     Config
	reg     *metrics.Registry
	batcher *ngsi.Batcher

	mu      sync.RWMutex
	byID    map[model.DeviceID]*device
	byTopic map[string]*device // AttrsTopic(apiKey, deviceID)
	detach  func()             // set by Start
}

// clientID is the MQTT client id the agent attaches and publishes under.
const clientID = "iot-agent"

// Errors surfaced by the agent.
var (
	ErrUnknownDevice = errors.New("agent: unknown device")
	ErrBadAPIKey     = errors.New("agent: api key mismatch")
)

// New validates the config and builds an agent.
func New(cfg Config) (*Agent, error) {
	if cfg.Broker == nil || cfg.Writer == nil {
		return nil, fmt.Errorf("agent: broker and writer are required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.KeyRing != nil && cfg.Replay == nil {
		cfg.Replay = secchan.NewReplayGuard()
	}
	a := &Agent{
		cfg:     cfg,
		reg:     cfg.Metrics,
		byID:    make(map[model.DeviceID]*device),
		byTopic: make(map[string]*device),
	}
	okCtr := cfg.Metrics.Counter("agent.north.ok")
	errCtr := cfg.Metrics.Counter("agent.north.ctxerr")
	var err error
	a.batcher, err = ngsi.NewBatcher(ngsi.BatcherConfig{
		Writer:  cfg.Writer,
		Metrics: cfg.Metrics,
		// agent.north.ok counts northbound messages; it advances only once
		// the writer has taken the measurements (on a cluster: applied on
		// the leader and min_isr acked), which is what WaitNorthbound
		// waits for.
		OnFlush: func(fs ngsi.FlushStats) {
			if fs.Err != nil {
				errCtr.Add(uint64(fs.Updates))
				cfg.Logf("agent: batched context update (%d entities): %v", fs.Entities, fs.Err)
				return
			}
			okCtr.Add(uint64(fs.Updates))
		},
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Stop detaches from the broker — a later publish is routed to nobody —
// then flushes the northbound tail and stops the batcher. Idempotent.
func (a *Agent) Stop() {
	a.mu.Lock()
	detach := a.detach
	a.detach = nil
	a.mu.Unlock()
	if detach != nil {
		detach()
	}
	a.batcher.Close()
}

// FlushNorthbound forces any coalesced-but-unflushed measurements into the
// writer now.
func (a *Agent) FlushNorthbound() { a.batcher.Flush() }

// Metrics returns the agent's registry.
func (a *Agent) Metrics() *metrics.Registry { return a.reg }

// Provision registers a device. It may be called before or after Start.
func (a *Agent) Provision(p Provision) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d := &device{
		Provision: p,
		attrName:  make(map[string]string, len(p.AttrMap)),
		meta:      map[string]string{"device": string(p.Desc.ID), "owner": string(p.Desc.Owner)},
	}
	d.AttrMap = make(map[string]AttrSpec, len(p.AttrMap))
	for k, v := range p.AttrMap {
		d.AttrMap[k] = v
		d.attrName[k] = NGSIAttrName(v)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.byID[p.Desc.ID]; dup {
		return fmt.Errorf("agent: device %s already provisioned", p.Desc.ID)
	}
	a.byID[p.Desc.ID] = d
	a.byTopic[AttrsTopic(p.Desc.APIKey, string(p.Desc.ID))] = d
	a.reg.Counter("agent.provisioned").Inc()
	return nil
}

// Device returns the provision record for id.
func (a *Agent) Device(id model.DeviceID) (Provision, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	d := a.byID[id]
	if d == nil {
		return Provision{}, fmt.Errorf("%w: %s", ErrUnknownDevice, id)
	}
	return d.Provision, nil
}

// Start attaches to the northbound topic tree. Call once.
func (a *Agent) Start() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.detach != nil {
		return fmt.Errorf("agent: already started")
	}
	detach, err := a.cfg.Broker.AttachLocal(clientID, AttrsFilter, a.onMeasure)
	if err != nil {
		return fmt.Errorf("agent: attach northbound: %w", err)
	}
	a.detach = detach
	return nil
}

// onMeasure handles one northbound MQTT message, inline on the publisher's
// goroutine; it keeps nothing of msg.Payload.
func (a *Agent) onMeasure(msg mqtt.Message) {
	a.mu.RLock()
	prov := a.byTopic[msg.Topic]
	a.mu.RUnlock()
	if prov == nil {
		if _, _, err := ParseAttrsTopic(msg.Topic); err != nil {
			a.reg.Counter("agent.north.badtopic").Inc()
			return
		}
		// Unknown device or wrong API key — the unauthorized-node threat
		// of §III. Count and drop.
		a.reg.Counter("agent.north.unknown").Inc()
		return
	}

	payload := msg.Payload
	if a.cfg.KeyRing != nil {
		sender, seq, pt, err := a.cfg.KeyRing.Open(payload, []byte(msg.Topic))
		if err != nil {
			a.reg.Counter("agent.north.badseal").Inc()
			return
		}
		if sender != string(prov.Desc.ID) {
			a.reg.Counter("agent.north.badseal").Inc()
			return
		}
		if err := a.cfg.Replay.Check(sender, seq); err != nil {
			a.reg.Counter("agent.north.replay").Inc()
			return
		}
		payload = pt
	}

	values, err := DecodeUL(string(payload))
	if err != nil {
		a.reg.Counter("agent.north.baddecode").Inc()
		return
	}

	attrs := make(map[string]ngsi.Attribute, len(values))
	for code, v := range values {
		name, ok := prov.attrName[code]
		if !ok {
			a.reg.Counter("agent.north.unknownattr").Inc()
			continue
		}
		attrs[name] = ngsi.Attribute{Type: "Number", Value: v, Metadata: prov.meta}
	}
	if len(attrs) == 0 {
		return
	}
	// agent.north.ok advances at flush time (see New); attrs is the batcher's.
	if err := a.batcher.Add(prov.EntityID, prov.EntityType, attrs); err != nil {
		a.reg.Counter("agent.north.ctxerr").Inc()
		a.cfg.Logf("agent: batch context update for %s: %v", prov.Desc.ID, err)
	}
}

// SendCommand publishes a southbound actuator command over MQTT (QoS 1),
// sealed when a key ring is configured. The issuer must already be
// authorized by the PEP — the agent only transports.
func (a *Agent) SendCommand(cmd model.Command) error {
	if err := cmd.Validate(); err != nil {
		return err
	}
	a.mu.RLock()
	prov := a.byID[cmd.Target]
	a.mu.RUnlock()
	if prov == nil {
		return fmt.Errorf("%w: %s", ErrUnknownDevice, cmd.Target)
	}
	topic := CmdTopic(prov.Desc.APIKey, string(prov.Desc.ID))
	payload := []byte(EncodeCommand(string(cmd.Target), cmd.Name, cmd.Value))
	if a.cfg.KeyRing != nil {
		sealed, err := a.cfg.KeyRing.Seal("agent", payload, []byte(topic))
		if err != nil {
			return fmt.Errorf("agent: seal command: %w", err)
		}
		payload = sealed
	}
	if err := a.cfg.Broker.InjectPublish(clientID, topic, payload, 1, false); err != nil {
		a.reg.Counter("agent.south.err").Inc()
		return fmt.Errorf("agent: command to %s: %w", cmd.Target, err)
	}
	a.reg.Counter("agent.south.ok").Inc()
	return nil
}

// DeviceSender builds the SendFunc a simulated device uses to transmit its
// readings: UL-encode against the provision's dictionary, optionally seal,
// publish QoS 1 to the device's attrs topic over the given client.
func DeviceSender(prov Provision, client *mqtt.Client, ring *secchan.KeyRing) (func([]model.Reading) error, error) {
	if err := prov.Validate(); err != nil {
		return nil, err
	}
	// Reverse dictionary: (quantity, depth) -> code.
	type qd struct {
		q model.Quantity
		d int
	}
	rev := make(map[qd]string, len(prov.AttrMap))
	for code, spec := range prov.AttrMap {
		rev[qd{spec.Quantity, int(spec.Depth*100 + 0.5)}] = code
	}
	topic := AttrsTopic(prov.Desc.APIKey, string(prov.Desc.ID))

	return func(readings []model.Reading) error {
		values := make(map[string]float64, len(readings))
		for _, r := range readings {
			code, ok := rev[qd{r.Quantity, int(r.Depth*100 + 0.5)}]
			if !ok {
				continue // quantity not in this device's dictionary
			}
			values[code] = r.Value
		}
		if len(values) == 0 {
			return nil
		}
		payload := []byte(EncodeUL(values))
		if ring != nil {
			sealed, err := ring.Seal(string(prov.Desc.ID), payload, []byte(topic))
			if err != nil {
				return fmt.Errorf("agent: seal readings: %w", err)
			}
			payload = sealed
		}
		return client.Publish(topic, payload, 1, false)
	}, nil
}

// WaitNorthbound blocks until the agent has processed at least n
// northbound batches or the timeout elapses; used by integration tests and
// the scenario runner to synchronize.
func (a *Agent) WaitNorthbound(n uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if a.reg.Counter("agent.north.ok").Value() >= n {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}
