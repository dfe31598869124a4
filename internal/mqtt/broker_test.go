package mqtt

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestPair connects a client to b over a net.Pipe.
func newTestPair(t *testing.T, b *Broker, id string) *Client {
	t.Helper()
	return newTestPairCfg(t, b, ClientConfig{ClientID: id, CleanSession: true})
}

func newTestPairCfg(t *testing.T, b *Broker, cfg ClientConfig) *Client {
	t.Helper()
	client, server := net.Pipe()
	b.AttachConn(server)
	c, err := Connect(client, cfg)
	if err != nil {
		t.Fatalf("connect %s: %v", cfg.ClientID, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

func TestBrokerPublishSubscribeQoS0(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	pub := newTestPair(t, b, "pub")
	sub := newTestPair(t, b, "sub")

	var got atomic.Value
	if _, err := sub.Subscribe("swamp/+/soil", 0, func(m Message) { got.Store(m) }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("swamp/farm1/soil", []byte("0.21"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return got.Load() != nil })
	m := got.Load().(Message)
	if m.Topic != "swamp/farm1/soil" || string(m.Payload) != "0.21" {
		t.Errorf("got %+v", m)
	}
}

func TestBrokerQoS1EndToEnd(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	pub := newTestPair(t, b, "pub")
	sub := newTestPair(t, b, "sub")

	var n atomic.Int32
	if _, err := sub.Subscribe("q1/topic", 1, func(m Message) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := pub.Publish("q1/topic", []byte(fmt.Sprintf("m%d", i)), 1, false); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return n.Load() >= 10 })
}

func TestBrokerRetainedMessages(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	pub := newTestPair(t, b, "pub")
	if err := pub.Publish("cfg/zone1", []byte("rate=5"), 1, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return b.RetainedCount() == 1 })

	// A late subscriber must receive the retained message.
	sub := newTestPair(t, b, "late-sub")
	var got atomic.Value
	if _, err := sub.Subscribe("cfg/#", 1, func(m Message) { got.Store(m) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return got.Load() != nil })
	m := got.Load().(Message)
	if !m.Retain || string(m.Payload) != "rate=5" {
		t.Errorf("retained delivery: %+v", m)
	}

	// Empty retained payload clears it.
	if err := pub.Publish("cfg/zone1", nil, 1, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return b.RetainedCount() == 0 })
}

func TestBrokerAuthRejects(t *testing.T) {
	b := NewBroker(BrokerConfig{
		Auth: func(clientID, username, password string) byte {
			if password != "secret" {
				return ConnRefusedBadAuth
			}
			return ConnAccepted
		},
	})
	defer b.Close()

	client, server := net.Pipe()
	b.AttachConn(server)
	if _, err := Connect(client, ClientConfig{ClientID: "bad", Password: "wrong"}); err == nil {
		t.Fatal("connect with wrong password succeeded")
	}

	good := newTestPairCfg(t, b, ClientConfig{ClientID: "good", Password: "secret"})
	if good.Closed() {
		t.Fatal("good client closed")
	}
}

func TestBrokerACL(t *testing.T) {
	b := NewBroker(BrokerConfig{
		ACL: func(clientID, topic string, write bool) bool {
			// Only "owner" may publish to private topics; everyone reads public.
			if write {
				return clientID == "owner" || topic == "public/x"
			}
			return topic != "private/#" || clientID == "owner"
		},
	})
	defer b.Close()
	owner := newTestPair(t, b, "owner")
	other := newTestPair(t, b, "other")

	var ownerGot, otherGot atomic.Int32
	if _, err := owner.Subscribe("private/#", 0, func(Message) { ownerGot.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Subscribe("private/#", 0, func(Message) { otherGot.Add(1) }); err == nil {
		t.Fatal("unauthorized subscribe granted")
	}

	// other's publish to private must be dropped.
	if err := other.Publish("private/data", []byte("spy"), 0, false); err != nil {
		t.Fatal(err)
	}
	if err := owner.Publish("private/data", []byte("mine"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return ownerGot.Load() == 1 })
	if b.Metrics().Counter("mqtt.publish.denied").Value() == 0 {
		t.Error("denied publish not counted")
	}
}

func TestBrokerSessionTakeover(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	c1 := newTestPair(t, b, "dev")
	_ = newTestPair(t, b, "dev") // same id displaces c1
	waitFor(t, time.Second, func() bool { return c1.Closed() })
	if b.SessionCount() != 1 {
		t.Errorf("session count = %d, want 1", b.SessionCount())
	}
}

func TestBrokerOverTCP(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = b.Serve(ln) }()

	dial := func(id string) *Client {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c, err := Connect(conn, ClientConfig{ClientID: id})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	pub := dial("tcp-pub")
	defer pub.Close()
	sub := dial("tcp-sub")
	defer sub.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	once := sync.Once{}
	if _, err := sub.Subscribe("tcp/t", 1, func(m Message) { once.Do(wg.Done) }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("tcp/t", []byte("hello"), 1, false); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered over TCP")
	}
}

// connectLossy dials b through lossy relays, retrying the handshake over
// fresh ones (CONNECT itself can be lost — as in the field). The client→broker
// relay draws its losses from seed, the broker→client relay from seed+1.
func connectLossy(t *testing.T, b *Broker, cfg ClientConfig, loss float64, seed int64) *Client {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		seed += int64(attempt * 2)
		client, near := net.Pipe()
		far, server := net.Pipe()
		go lossyRelay(near, far, loss, seed)
		go lossyRelay(far, near, loss, seed+1)
		b.AttachConn(server)
		c, err := Connect(client, cfg)
		if err != nil {
			continue // Connect closed client; the relays close the rest
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	t.Fatal("could not connect over lossy link in 20 attempts")
	return nil
}

// lossyRelay copies whole packets from one pipe to the other, dropping each
// with probability loss from an RNG seeded with seed: a link that loses
// packets beneath the MQTT layer. When either side closes it closes both.
func lossyRelay(from, to net.Conn, loss float64, seed int64) {
	defer from.Close()
	defer to.Close()
	rng := rand.New(rand.NewSource(seed))
	r := bufio.NewReader(from)
	for {
		p, err := ReadPacket(r)
		if err != nil {
			return
		}
		if rng.Float64() < loss {
			continue
		}
		raw, err := p.Encode()
		if err != nil {
			return
		}
		if _, err := to.Write(raw); err != nil {
			return
		}
	}
}

func TestQoS1SurvivesLossyLink(t *testing.T) {
	b := NewBroker(BrokerConfig{RetryInterval: 20 * time.Millisecond})
	defer b.Close()

	// Publisher on a 30% lossy link; QoS 1 retries must get everything through.
	pub := connectLossy(t, b, ClientConfig{ClientID: "lossy-pub", AckTimeout: 50 * time.Millisecond, PublishRetries: 30}, 0.3, 7)

	sub := newTestPair(t, b, "clean-sub")
	seen := make(map[string]bool)
	var mu sync.Mutex
	if _, err := sub.Subscribe("lossy/#", 1, func(m Message) {
		mu.Lock()
		seen[string(m.Payload)] = true
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	const n = 20
	for i := 0; i < n; i++ {
		if err := pub.Publish("lossy/data", []byte(fmt.Sprintf("r%d", i)), 1, false); err != nil {
			t.Fatalf("publish %d failed despite retries: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) >= n
	})
}

func TestQoS0DropsOnLossyLink(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	pub := connectLossy(t, b, ClientConfig{ClientID: "q0-pub", AckTimeout: 200 * time.Millisecond, PublishRetries: 50}, 0.5, 3)

	sub := newTestPair(t, b, "q0-sub")
	var n atomic.Int32
	if _, err := sub.Subscribe("q0/#", 0, func(Message) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	const sent = 200
	for i := 0; i < sent; i++ {
		if err := pub.Publish("q0/data", []byte{byte(i)}, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	got := int(n.Load())
	if got == 0 || got >= sent {
		t.Errorf("QoS0 over 50%% loss delivered %d/%d; expected partial delivery", got, sent)
	}
}

func TestInjectPublish(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	sub := newTestPair(t, b, "inj-sub")
	var got atomic.Value
	if _, err := sub.Subscribe("inj/#", 0, func(m Message) { got.Store(m) }); err != nil {
		t.Fatal(err)
	}
	if err := b.InjectPublish("fog-1", "inj/replay", []byte("queued"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return got.Load() != nil })
}

func TestBrokerTapObservesTraffic(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	var tapped atomic.Int32
	b.Tap = func(clientID, topic string, payload []byte, at time.Time) { tapped.Add(1) }
	defer b.Close()
	pub := newTestPair(t, b, "tap-pub")
	for i := 0; i < 5; i++ {
		if err := pub.Publish("tap/x", []byte("v"), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return tapped.Load() == 5 })
}

func TestClientUnsubscribe(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	pub := newTestPair(t, b, "u-pub")
	sub := newTestPair(t, b, "u-sub")
	var n atomic.Int32
	if _, err := sub.Subscribe("u/t", 0, func(Message) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("u/t", []byte("1"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return n.Load() == 1 })
	if err := sub.Unsubscribe("u/t"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("u/t", []byte("2"), 0, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n.Load() != 1 {
		t.Errorf("received %d messages after unsubscribe, want 1", n.Load())
	}
}

func TestClientPing(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	c := newTestPair(t, b, "pinger")
	if err := c.Ping(time.Second); err != nil {
		t.Fatalf("ping: %v", err)
	}
}
