package agent

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/ngsi"
)

// fleetProvision is probe i of a test fleet: its own device, topic and
// entity, one attribute.
func fleetProvision(i int) Provision {
	return Provision{
		Desc: model.Descriptor{
			ID: model.DeviceID(fmt.Sprintf("fleet-%03d", i)), Kind: model.KindSoilProbe,
			Owner: "farm1", APIKey: "k1", Depths: []float64{0.2},
		},
		EntityID:   fmt.Sprintf("urn:swamp:farm1:fleet:%03d", i),
		EntityType: "SoilProbe",
		AttrMap:    map[string]AttrSpec{"m1": {Quantity: model.QSoilMoisture, Depth: 0.2}},
	}
}

func fleetTopic(i int) string { return AttrsTopic("k1", fmt.Sprintf("fleet-%03d", i)) }

// TestAckedReadingsSurviveStalledContext: with the context's commit stalled,
// the agent's handler blocks once the batcher holds its entity bound, the
// broker stops reading — and so stops acknowledging — the connection that
// published, and when the commit resumes every reading that was PUBACKed is
// in the batcher. Through the agent's former MQTT session the broker kept
// acknowledging and the session's queue shed what the agent could not take.
func TestAckedReadingsSurviveStalledContext(t *testing.T) {
	const devices, publishes = 300, 4000
	const batcherBound = 256 // ngsi.BatcherConfig.MaxEntities default
	s, j, _ := newGatedStack(t, nil)
	for i := 0; i < devices; i++ {
		if err := s.agent.Provision(fleetProvision(i)); err != nil {
			t.Fatal(err)
		}
	}
	// One gateway connection carries the fleet. The ack timeout outlasts the
	// stall, so no publish fails and the counts below are exact.
	gw := dialCfg(t, s.broker, mqtt.ClientConfig{ClientID: "gateway", AckTimeout: time.Minute})

	var acked atomic.Int64
	done := make(chan error, 1)
	go func() {
		for k := 0; k < publishes; k++ {
			payload := fmt.Sprintf("m1|%d", k)
			if err := gw.Publish(fleetTopic(k%devices), []byte(payload), 1, false); err != nil {
				done <- fmt.Errorf("publish %d: %w", k, err)
				return
			}
			acked.Add(1)
		}
		done <- nil
	}()

	// Flush 1 (the gated stack's battery reading) is parked at the journal.
	// The reading that brings the bound's worth of entities pending flushes
	// inline, behind it: its handler — the gateway connection's reader —
	// blocks there. It was acknowledged first; the next one is never read.
	s.waitCounter(t, "ngsi.batcher.added", 1+batcherBound)
	if in := s.broker.Metrics().Counter("mqtt.publish.in").Value(); in != 1+batcherBound {
		t.Errorf("mqtt.publish.in = %d with the handler blocked, want %d", in, 1+batcherBound)
	}
	if got := acked.Load(); got > batcherBound {
		t.Errorf("%d readings acknowledged with the handler blocked, want at most %d", got, batcherBound)
	}

	j.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	const total = 1 + publishes
	if !s.agent.WaitNorthbound(total, 10*time.Second) {
		t.Fatalf("agent.north.ok = %d, want %d", s.counter("agent.north.ok"), total)
	}
	if got := s.counter("ngsi.batcher.added"); got != total {
		t.Errorf("ngsi.batcher.added = %d of %d acknowledged readings", got, total)
	}
	if got := s.broker.Metrics().Counter("mqtt.queue.dropped").Value(); got != 0 {
		t.Errorf("mqtt.queue.dropped = %d", got)
	}
	// Last write per device: device i's final reading is the largest k ≡ i.
	for _, i := range []int{0, devices - 1} {
		last := i + (publishes-1-i)/devices*devices
		e, err := s.ctx.GetEntity(fleetProvision(i).EntityID)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := e.Attrs["soilMoisture_d20"].Float(); v != float64(last) {
			t.Errorf("device %d ends at %v, want %d", i, v, last)
		}
	}
}

// TestAgentCannotBeDisplaced: a TCP client that CONNECTs under the agent's
// id is refused — as a session, the agent lost its subscription to any such
// client (§3.1.4 takeover) — and device readings keep reaching the context
// broker.
func TestAgentCannotBeDisplaced(t *testing.T) {
	s := newStack(t, nil)
	if err := s.agent.Provision(probeProvision()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = s.broker.Serve(ln) }() // returns when ln closes

	dialTCP := func() net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	intruder := dialTCP()
	connect, err := (&mqtt.Packet{Type: mqtt.CONNECT, ClientID: clientID, CleanSession: true}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := intruder.Write(connect); err != nil {
		t.Fatal(err)
	}
	ack, err := mqtt.ReadPacket(intruder)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != mqtt.CONNACK || ack.ReturnCode != mqtt.ConnRefusedIdentifier {
		t.Fatalf("CONNECT as %s answered %v code %d, want CONNACK code %d", clientID, ack.Type, ack.ReturnCode, mqtt.ConnRefusedIdentifier)
	}

	dev, err := mqtt.Connect(dialTCP(), mqtt.ClientConfig{ClientID: "probe-1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	publish(t, dev, "m1|0.33")
	if !s.agent.WaitNorthbound(1, 2*time.Second) {
		t.Fatal("reading published after the refused CONNECT never reached the context broker")
	}
	e, err := s.ctx.GetEntity("urn:swamp:farm1:plot1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Attrs["soilMoisture_d20"].Float(); v != 0.33 {
		t.Errorf("d20 = %v", e.Attrs["soilMoisture_d20"].Value)
	}
}

// TestConcurrentPublishersThroughAttachment: the handler runs on every
// publishing connection's reader at once. Every reading is applied exactly
// once, and no subscriber of the context broker sees a device go backwards.
func TestConcurrentPublishersThroughAttachment(t *testing.T) {
	const conns, perConn, rounds = 4, 8, 60
	s := newStack(t, nil)
	var mu sync.Mutex
	lastSeen := make(map[string]float64, conns*perConn)
	var backwards atomic.Int64
	if _, err := s.ctx.Subscribe(ngsi.Subscription{
		ID: "order", EntityIDPattern: "*",
		Notifier: ngsi.Callback(func(n ngsi.Notification) {
			v, _ := n.Entity.Attrs["soilMoisture_d20"].Float()
			mu.Lock()
			if v <= lastSeen[n.Entity.ID] {
				backwards.Add(1)
			}
			lastSeen[n.Entity.ID] = v
			mu.Unlock()
		}),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < conns*perConn; i++ {
		if err := s.agent.Provision(fleetProvision(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		gw := dial(t, s.broker, fmt.Sprintf("gw-%d", c))
		first := c * perConn
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 1; seq <= rounds; seq++ {
				for d := first; d < first+perConn; d++ {
					if err := gw.Publish(fleetTopic(d), []byte(fmt.Sprintf("m1|%d", seq)), 1, false); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	const total = conns * perConn * rounds
	if !s.agent.WaitNorthbound(total, 10*time.Second) {
		t.Fatalf("agent.north.ok = %d, want %d", s.counter("agent.north.ok"), total)
	}
	if got := s.counter("ngsi.batcher.added"); got != total {
		t.Errorf("ngsi.batcher.added = %d, want %d", got, total)
	}
	if got := s.counter("agent.north.ctxerr"); got != 0 {
		t.Errorf("agent.north.ctxerr = %d", got)
	}
	s.ctx.Close() // drains the dispatchers into the callback
	if backwards.Load() != 0 {
		t.Errorf("%d notifications showed a device going backwards", backwards.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < conns*perConn; i++ {
		if v := lastSeen[fleetProvision(i).EntityID]; v != rounds {
			t.Errorf("device %d ends at %v, want %d", i, v, rounds)
		}
	}
}
