package mqtt

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
)

// scriptConn is the broker's end of a pipe whose far end the test reads.
// Its writes can be stalled, modelling a subscriber that stops draining its
// link — the failure the per-session queues must isolate — and it records
// the most Write calls ever in flight at once.
type scriptConn struct {
	net.Conn
	release chan struct{} // closed → stalled writes unblock
	closed  chan struct{}
	once    sync.Once

	stalled      atomic.Bool
	active, peak atomic.Int32
}

func (c *scriptConn) Write(b []byte) (int, error) {
	n := c.active.Add(1)
	defer c.active.Add(-1)
	for {
		m := c.peak.Load()
		if n <= m || c.peak.CompareAndSwap(m, n) {
			break
		}
	}
	if c.stalled.Load() {
		select {
		case <-c.release:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	runtime.Gosched() // hold the call open so a second writer would overlap
	return c.Conn.Write(b)
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// scriptPeer is the test's side of a scripted session: it sends packets
// encoded by hand and records every packet the broker writes.
type scriptPeer struct {
	*scriptConn
	client net.Conn

	mu    sync.Mutex
	wrote []*Packet // every packet the broker wrote
	pubs  int       // PUBLISH count, for cheap polling
}

func newScriptPeer(t *testing.T, b *Broker) *scriptPeer {
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	p := &scriptPeer{
		scriptConn: &scriptConn{Conn: server, release: make(chan struct{}), closed: make(chan struct{})},
		client:     client,
	}
	b.AttachConn(p.scriptConn)
	go p.record()
	return p
}

// record reads the broker's packets off the far end until it closes.
func (p *scriptPeer) record() {
	r := bufio.NewReader(p.client)
	for {
		pkt, err := ReadPacket(r)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.wrote = append(p.wrote, pkt)
		if pkt.Type == PUBLISH {
			p.pubs++
		}
		p.mu.Unlock()
	}
}

func (p *scriptPeer) send(pkt *Packet) {
	raw, err := pkt.Encode()
	if err != nil {
		panic(err)
	}
	// A write fails only once the broker has hung up, which the caller's
	// waits then report.
	_, _ = p.client.Write(raw)
}

func (p *scriptPeer) publishCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pubs
}

func (p *scriptPeer) count(typ PacketType) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, pkt := range p.wrote {
		if pkt.Type == typ {
			n++
		}
	}
	return n
}

func (p *scriptPeer) publishes() []*Packet {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Packet
	for _, pkt := range p.wrote {
		if pkt.Type == PUBLISH {
			out = append(out, pkt)
		}
	}
	return out
}

// attachScripted connects a scripted session (CONNECT + one SUBSCRIBE) and
// waits for the broker to acknowledge both.
func attachScripted(t *testing.T, b *Broker, id, filter string, qos byte) *scriptPeer {
	t.Helper()
	return attachScriptedConnect(t, b, &Packet{Type: CONNECT, ClientID: id}, filter, qos)
}

func attachScriptedConnect(t *testing.T, b *Broker, connect *Packet, filter string, qos byte) *scriptPeer {
	t.Helper()
	st := newScriptPeer(t, b)
	st.send(connect)
	st.send(&Packet{Type: SUBSCRIBE, PacketID: 1, Filters: []Subscription{{Filter: filter, QoS: qos}}})
	waitFor(t, time.Second, func() bool { return st.count(CONNACK) == 1 && st.count(SUBACK) == 1 })
	return st
}

// TestStalledSubscriberIsolation: with one subscriber wedged mid-write, a
// healthy subscriber on the same topic still receives every message — the
// stall overflows only the stalled session's queue.
func TestStalledSubscriberIsolation(t *testing.T) {
	b := NewBroker(BrokerConfig{SessionQueueLen: 8})
	defer b.Close()

	// The stalled subscriber takes QoS 0 deliveries (overflow drops);
	// the publisher uses QoS 1 so each publish is broker-acked — publish
	// progress therefore proves the stall is not back-pressuring routing.
	stalled := attachScripted(t, b, "stalled", "iso/#", 0)
	stalled.stalled.Store(true)

	healthy := newTestPair(t, b, "healthy")
	var mu sync.Mutex
	seen := make(map[byte]bool)
	if _, err := healthy.Subscribe("iso/#", 1, func(m Message) {
		mu.Lock()
		seen[m.Payload[0]] = true
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	pub := newTestPair(t, b, "pub")

	// The publisher stays within the healthy session's QoS 1 inflight window
	// (4× the queue bound): past it the broker sheds by design, which is that
	// session's own overflow policy, not the isolation under test.
	const n, window = 200, 16
	for i := 0; i < n; i++ {
		if err := pub.Publish("iso/x", []byte{byte(i)}, 1, false); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(seen) > i-window
		})
	}
	// Every message reaches the healthy subscriber even though the stalled
	// session never drains; the stalled queue overflowed instead.
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == n
	})
	if dropped := b.Metrics().Counter("mqtt.queue.dropped").Value(); dropped == 0 {
		t.Error("stalled session overflow not counted in mqtt.queue.dropped")
	}
	close(stalled.release) // unwedge before Close so the writer exits fast
}

// TestQueueOverflowDropsOldestQoS0: a full session queue drops the oldest
// queued QoS 0 packet, so the freshest state wins — and the drop count is
// exported.
func TestQueueOverflowDropsOldestQoS0(t *testing.T) {
	const qlen = 4
	b := NewBroker(BrokerConfig{SessionQueueLen: qlen})
	defer b.Close()

	st := attachScripted(t, b, "slow", "of/#", 0)
	st.stalled.Store(true)

	pub := newTestPair(t, b, "pub")
	const n = 32
	for i := 0; i < n; i++ {
		if err := pub.Publish("of/x", []byte(fmt.Sprintf("m%02d", i)), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		return b.Metrics().Counter("mqtt.queue.dropped").Value() > 0
	})
	close(st.release)
	// Once unwedged the queue drains; drop-oldest means far fewer than n
	// messages survived, and the newest one always did.
	waitFor(t, 2*time.Second, func() bool {
		pubs := st.publishes()
		return len(pubs) > 0 && string(pubs[len(pubs)-1].Payload) == fmt.Sprintf("m%02d", n-1)
	})
	time.Sleep(50 * time.Millisecond)
	if pubs := st.publishes(); len(pubs) >= n {
		t.Errorf("stalled session received all %d messages; overflow never dropped", len(pubs))
	}
}

// TestQoS1OverflowArrivesInOrder: QoS 1 deliveries that overflow a stalled
// subscriber's queue bound still leave in routing order once it drains —
// each topic is an ordered topic [MQTT-4.6.0-6] — and none is lost or sent
// twice.
func TestQoS1OverflowArrivesInOrder(t *testing.T) {
	for run := 0; run < 50; run++ {
		qos1OverflowRun(t)
	}
}

func qos1OverflowRun(t *testing.T) {
	t.Helper()
	b := NewBroker(BrokerConfig{SessionQueueLen: 2})
	defer b.Close()

	st := attachScripted(t, b, "slow", "ord/#", 1)
	st.stalled.Store(true)

	pub := newTestPair(t, b, "pub")
	// Stay within the 4×queue inflight window (8 here): past it deliveries
	// are shed, which TestQoS1InflightWindowBounded covers.
	const n = 8
	for i := 0; i < n; i++ {
		if err := pub.Publish("ord/x", []byte(fmt.Sprintf("p%02d", i)), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	close(st.release)
	waitFor(t, 2*time.Second, func() bool { return st.publishCount() >= n })
	time.Sleep(5 * time.Millisecond) // room for a copy too many to show
	pubs := st.publishes()
	if len(pubs) != n {
		t.Fatalf("%d deliveries, want %d", len(pubs), n)
	}
	for i, p := range pubs {
		if want := fmt.Sprintf("p%02d", i); string(p.Payload) != want || p.Dup {
			t.Fatalf("delivery %d is %q (dup=%v), want %q", i, p.Payload, p.Dup, want)
		}
	}
	if d := b.Metrics().Counter("mqtt.queue.dropped").Value(); d != 0 {
		t.Fatalf("mqtt.queue.dropped = %d", d)
	}
}

// TestRetainedSharded: retained messages live in a sharded store; storing,
// replacing, clearing and wildcard snapshot-on-subscribe all still work.
func TestRetainedSharded(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	pub := newTestPair(t, b, "pub")
	const topics = 20
	for i := 0; i < topics; i++ {
		if err := pub.Publish(fmt.Sprintf("ret/z%02d", i), []byte{byte(i)}, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return b.RetainedCount() == topics })

	sub := newTestPair(t, b, "sub")
	var got atomic.Int32
	if _, err := sub.Subscribe("ret/#", 0, func(m Message) {
		if m.Retain {
			got.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return got.Load() == topics })

	// Clearing removes from the right shard.
	if err := pub.Publish("ret/z00", nil, 0, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return b.RetainedCount() == topics-1 })
}

// TestKeepaliveReapsWedgedWriter: a session whose connection blocks writes
// forever (dead TCP peer) must still be reaped by the keepalive watchdog —
// the writer goroutine being stuck mid-write cannot disable it.
func TestKeepaliveReapsWedgedWriter(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	b := NewBroker(BrokerConfig{Clock: sim})
	defer b.Close()

	st := attachScriptedConnect(t, b, &Packet{Type: CONNECT, ClientID: "wedged", KeepAliveSec: 1}, "wdg/#", 0)
	st.stalled.Store(true) // wedge every write from here on

	// Wedge the writer on a delivery, then go silent.
	pub := newTestPair(t, b, "pub")
	if err := pub.Publish("wdg/x", []byte("v"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return st.active.Load() == 1 })
	// Silence > 1.5×keepalive → the watchdog drops the session even though
	// the writer is still stuck inside its write.
	advanceUntil(t, sim, func() bool { return b.SessionCount() == 1 }) // pub only
}

// advanceUntil moves sim a keepalive tick at a time, each once a watchdog
// waits on it, until cond holds.
func advanceUntil(t *testing.T, sim *clock.Sim, cond func() bool) {
	t.Helper()
	for i := 0; i < 10 && !cond(); i++ {
		waitFor(t, time.Second, func() bool { return cond() || sim.PendingWaiters() > 0 })
		sim.Advance(keepaliveTick)
	}
	waitFor(t, time.Second, cond)
}

// TestQoS1InflightWindowBounded: a wedged session cannot grow its pending
// map without bound — past 4× the queue bound new QoS 1 deliveries are
// shed and counted.
func TestQoS1InflightWindowBounded(t *testing.T) {
	const qlen = 4
	b := NewBroker(BrokerConfig{SessionQueueLen: qlen})
	defer b.Close()

	st := attachScripted(t, b, "wedged", "win/#", 1)
	st.stalled.Store(true)

	pub := newTestPair(t, b, "pub")
	const n = 64
	for i := 0; i < n; i++ {
		if err := pub.Publish("win/x", []byte{byte(i)}, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		return b.Metrics().Counter("mqtt.queue.dropped").Value() > 0
	})
	b.sessMu.RLock()
	s := b.sessions["wedged"]
	b.sessMu.RUnlock()
	s.mu.Lock()
	pending := len(s.pending)
	s.mu.Unlock()
	if pending > 4*qlen {
		t.Errorf("pending window grew to %d, cap is %d", pending, 4*qlen)
	}
	close(st.release)
}

// TestSingleWriterPerTransport: exactly one goroutine writes each connection
// (DESIGN §4.1). One session receives routed QoS 0/1 publishes from other
// sessions while its own read loop generates SUBACKs with retained replays,
// PINGRESPs and PUBACKs; at no point may two conn.Write calls overlap.
func TestSingleWriterPerTransport(t *testing.T) {
	// The queue bound exceeds everything the test routes, so no delivery
	// is shed.
	b := NewBroker(BrokerConfig{SessionQueueLen: 1024})
	defer b.Close()

	seed := newTestPair(t, b, "seed")
	const retained = 8
	for i := 0; i < retained; i++ {
		if err := seed.Publish(fmt.Sprintf("ret/%d", i), []byte{byte(i + 1)}, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return b.RetainedCount() == retained })

	ot := newScriptPeer(t, b)
	ot.send(&Packet{Type: CONNECT, ClientID: "mix"})
	ot.send(&Packet{Type: SUBSCRIBE, PacketID: 1, Filters: []Subscription{{Filter: "mix/#", QoS: 1}}})
	waitFor(t, time.Second, func() bool { return ot.count(SUBACK) == 1 })

	const rounds = 100
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		pub := newTestPair(t, b, fmt.Sprintf("pub%d", p))
		wg.Add(1)
		go func(qos byte) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := pub.Publish("mix/routed", []byte{byte(i)}, qos, false); err != nil {
					t.Error(err)
					return
				}
			}
		}(byte(p))
	}
	for i := 0; i < rounds; i++ {
		id := uint16(2 + 2*i)
		ot.send(&Packet{Type: SUBSCRIBE, PacketID: id, Filters: []Subscription{{Filter: "ret/#", QoS: 1}}})
		ot.send(&Packet{Type: PINGREQ})
		ot.send(&Packet{Type: PUBLISH, PacketID: id + 1, Topic: "mix/own", Payload: []byte{1}, QoS: 1})
	}
	wg.Wait()
	// Every kind of write happened: the control responses are exact, and
	// routed and retained publishes each reached the connection.
	waitFor(t, 5*time.Second, func() bool {
		var routed, retainedSeen bool
		for _, p := range ot.publishes() {
			routed = routed || p.Topic == "mix/routed"
			retainedSeen = retainedSeen || p.Retain
		}
		return ot.count(SUBACK) == 1+rounds && ot.count(PINGRESP) == rounds && ot.count(PUBACK) == rounds &&
			routed && retainedSeen
	})
	if peak := ot.peak.Load(); peak != 1 {
		t.Fatalf("max concurrent conn.Write calls = %d, want 1", peak)
	}
}
