package agent

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/secchan"
)

// stack is a full northbound pipeline: MQTT broker + agent + NGSI.
type stack struct {
	broker *mqtt.Broker
	ctx    *ngsi.Broker
	agent  *Agent
}

func newStack(t *testing.T, ring *secchan.KeyRing) *stack {
	t.Helper()
	broker := mqtt.NewBroker(mqtt.BrokerConfig{})
	t.Cleanup(broker.Close)
	ctx := ngsi.NewBroker(ngsi.BrokerConfig{})
	t.Cleanup(ctx.Close)

	a, err := New(Config{Broker: broker, Writer: ngsi.Local{Broker: ctx}, KeyRing: ring})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	return &stack{broker: broker, ctx: ctx, agent: a}
}

func dial(t *testing.T, b *mqtt.Broker, id string) *mqtt.Client {
	t.Helper()
	return dialCfg(t, b, mqtt.ClientConfig{ClientID: id})
}

func dialCfg(t *testing.T, b *mqtt.Broker, cfg mqtt.ClientConfig) *mqtt.Client {
	t.Helper()
	client, server := net.Pipe()
	b.AttachConn(server)
	c, err := mqtt.Connect(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func probeProvision() Provision {
	return Provision{
		Desc: model.Descriptor{
			ID: "probe-1", Kind: model.KindSoilProbe, Owner: "farm1",
			APIKey: "k1", Depths: []float64{0.2, 0.5},
		},
		EntityID:   "urn:swamp:farm1:plot1",
		EntityType: "AgriParcel",
		AttrMap: map[string]AttrSpec{
			"m1": {Quantity: model.QSoilMoisture, Depth: 0.2},
			"m2": {Quantity: model.QSoilMoisture, Depth: 0.5},
			"b":  {Quantity: model.QBattery},
		},
	}
}

func TestProvisionValidation(t *testing.T) {
	s := newStack(t, nil)
	good := probeProvision()
	if err := s.agent.Provision(good); err != nil {
		t.Fatal(err)
	}
	if err := s.agent.Provision(good); err == nil {
		t.Error("duplicate provision accepted")
	}
	bad := probeProvision()
	bad.Desc.ID = "probe-2"
	bad.Desc.APIKey = ""
	if err := s.agent.Provision(bad); err == nil {
		t.Error("empty api key accepted")
	}
	bad = probeProvision()
	bad.Desc.ID = "probe-3"
	bad.EntityID = ""
	if err := s.agent.Provision(bad); err == nil {
		t.Error("empty entity accepted")
	}
	if _, err := s.agent.Device("probe-1"); err != nil {
		t.Error(err)
	}
	if _, err := s.agent.Device("ghost"); err == nil {
		t.Error("unknown device lookup succeeded")
	}
}

func TestNorthboundFlow(t *testing.T) {
	s := newStack(t, nil)
	if err := s.agent.Provision(probeProvision()); err != nil {
		t.Fatal(err)
	}
	dev := dial(t, s.broker, "probe-1")
	payload := EncodeUL(map[string]float64{"m1": 0.21, "m2": 0.27, "b": 0.93})
	if err := dev.Publish(AttrsTopic("k1", "probe-1"), []byte(payload), 1, false); err != nil {
		t.Fatal(err)
	}
	if !s.agent.WaitNorthbound(1, 2*time.Second) {
		t.Fatal("northbound batch not processed")
	}
	e, err := s.ctx.GetEntity("urn:swamp:farm1:plot1")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Attrs["soilMoisture_d20"].Float(); !ok || v != 0.21 {
		t.Errorf("d20 = %v", e.Attrs["soilMoisture_d20"].Value)
	}
	if v, ok := e.Attrs["soilMoisture_d50"].Float(); !ok || v != 0.27 {
		t.Errorf("d50 = %v", e.Attrs["soilMoisture_d50"].Value)
	}
	if e.Attrs["batteryLevel"].Metadata["owner"] != "farm1" {
		t.Error("owner metadata missing")
	}
}

func TestNorthboundRejectsUnknownAndWrongKey(t *testing.T) {
	s := newStack(t, nil)
	s.agent.Provision(probeProvision())
	dev := dial(t, s.broker, "rogue")

	// Unknown device id.
	dev.Publish(AttrsTopic("k1", "ghost"), []byte("m1|0.5"), 1, false)
	// Right device, wrong API key.
	dev.Publish(AttrsTopic("wrong", "probe-1"), []byte("m1|0.5"), 1, false)

	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if s.agent.Metrics().Counter("agent.north.unknown").Value() == 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.agent.Metrics().Counter("agent.north.unknown").Value(); got != 2 {
		t.Errorf("unknown counter = %d, want 2", got)
	}
	if s.ctx.EntityCount() != 0 {
		t.Error("rogue data reached the context broker")
	}
}

func TestNorthboundSealedFlow(t *testing.T) {
	ring := secchan.NewKeyRing()
	if _, err := ring.Generate("probe-1"); err != nil {
		t.Fatal(err)
	}
	s := newStack(t, ring)
	s.agent.Provision(probeProvision())
	dev := dial(t, s.broker, "probe-1")

	topic := AttrsTopic("k1", "probe-1")
	plain := []byte(EncodeUL(map[string]float64{"m1": 0.31}))
	sealed, err := ring.Seal("probe-1", plain, []byte(topic))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Publish(topic, sealed, 1, false); err != nil {
		t.Fatal(err)
	}
	if !s.agent.WaitNorthbound(1, 2*time.Second) {
		t.Fatal("sealed batch not processed")
	}

	// Plaintext on a sealed deployment is rejected.
	dev.Publish(topic, plain, 1, false)
	// Replay of the sealed envelope is rejected.
	dev.Publish(topic, sealed, 1, false)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if s.agent.Metrics().Counter("agent.north.badseal").Value() >= 1 &&
			s.agent.Metrics().Counter("agent.north.replay").Value() >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.agent.Metrics().Counter("agent.north.badseal").Value() < 1 {
		t.Error("plaintext accepted on sealed deployment")
	}
	if s.agent.Metrics().Counter("agent.north.replay").Value() < 1 {
		t.Error("replayed envelope accepted")
	}
	if got := s.agent.Metrics().Counter("agent.north.ok").Value(); got != 1 {
		t.Errorf("ok counter = %d, want 1", got)
	}
}

func TestSouthboundCommand(t *testing.T) {
	s := newStack(t, nil)
	valve := Provision{
		Desc: model.Descriptor{
			ID: "valve-1", Kind: model.KindValveActuator, Owner: "farm1", APIKey: "k2",
		},
		EntityID:   "urn:swamp:farm1:valve1",
		EntityType: "Device",
	}
	if err := s.agent.Provision(valve); err != nil {
		t.Fatal(err)
	}

	dev := dial(t, s.broker, "valve-1")
	var got atomic.Value
	if _, err := dev.Subscribe(CmdTopic("k2", "valve-1"), 1, func(m mqtt.Message) {
		got.Store(string(m.Payload))
	}); err != nil {
		t.Fatal(err)
	}
	cmd := model.Command{Target: "valve-1", Name: "open", Value: 0.8, Issuer: "farm1-farmer", At: time.Now()}
	if err := s.agent.SendCommand(cmd); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && got.Load() == nil {
		time.Sleep(2 * time.Millisecond)
	}
	if got.Load() == nil {
		t.Fatal("command not delivered")
	}
	dev2, name, v, err := DecodeCommand(got.Load().(string))
	if err != nil || dev2 != "valve-1" || name != "open" || v != 0.8 {
		t.Errorf("command decoded %q %q %g %v", dev2, name, v, err)
	}

	if err := s.agent.SendCommand(model.Command{Target: "ghost", Name: "x", Value: 1}); err == nil {
		t.Error("command to unknown device accepted")
	}
}

func TestDeviceSender(t *testing.T) {
	s := newStack(t, nil)
	prov := probeProvision()
	s.agent.Provision(prov)
	dev := dial(t, s.broker, "probe-1")
	send, err := DeviceSender(prov, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	readings := []model.Reading{
		{Device: "probe-1", Quantity: model.QSoilMoisture, Value: 0.25, Depth: 0.2, At: now},
		{Device: "probe-1", Quantity: model.QSoilMoisture, Value: 0.29, Depth: 0.5, At: now},
		{Device: "probe-1", Quantity: model.QAirTemp, Value: 22, At: now}, // not in dictionary
	}
	if err := send(readings); err != nil {
		t.Fatal(err)
	}
	if !s.agent.WaitNorthbound(1, 2*time.Second) {
		t.Fatal("sender batch not processed")
	}
	e, _ := s.ctx.GetEntity(prov.EntityID)
	if v, _ := e.Attrs["soilMoisture_d20"].Float(); v != 0.25 {
		t.Errorf("d20 = %v", e.Attrs["soilMoisture_d20"].Value)
	}
	if _, found := e.Attrs["airTemperature"]; found {
		t.Error("undictionaried quantity leaked through")
	}
}

func TestNGSIAttrName(t *testing.T) {
	if got := NGSIAttrName(AttrSpec{Quantity: model.QSoilMoisture, Depth: 0.2}); got != "soilMoisture_d20" {
		t.Errorf("got %q", got)
	}
	if got := NGSIAttrName(AttrSpec{Quantity: model.QAirTemp}); got != "airTemperature" {
		t.Errorf("got %q", got)
	}
}
