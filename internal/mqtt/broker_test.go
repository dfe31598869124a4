package mqtt

import (
	"errors"
	"fmt"
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

// slowAckConn is the broker's end of a link whose broker-to-client
// direction stalls each write by delay once armed: the client's PUBACKs
// arrive late.
type slowAckConn struct {
	net.Conn
	delay time.Duration
	armed atomic.Bool
}

func (c *slowAckConn) Write(p []byte) (int, error) {
	if c.armed.Load() {
		time.Sleep(c.delay)
	}
	return c.Conn.Write(p)
}

// TestSlowPubackRoutesOneCopy: a QoS 1 publish whose PUBACK arrives after
// the client's AckTimeout fails with ErrAckTimeout, and the broker routes
// the reading exactly once — the client does not resend on a live
// connection.
func TestSlowPubackRoutesOneCopy(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	sub := newTestPair(t, b, "sub")
	var copies atomic.Int32
	if _, err := sub.Subscribe("slow/#", 1, func(Message) { copies.Add(1) }); err != nil {
		t.Fatal(err)
	}

	client, server := net.Pipe()
	slow := &slowAckConn{Conn: server, delay: 150 * time.Millisecond}
	b.AttachConn(slow)
	pub, err := Connect(client, ClientConfig{ClientID: "pub", AckTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	slow.armed.Store(true)

	if err := pub.Publish("slow/x", []byte("r1"), 1, false); !errors.Is(err, ErrAckTimeout) {
		t.Errorf("publish with a late PUBACK returned %v, want ErrAckTimeout", err)
	}
	waitFor(t, time.Second, func() bool { return copies.Load() > 0 })
	time.Sleep(250 * time.Millisecond) // past the late PUBACK
	if n := copies.Load(); n != 1 {
		t.Errorf("the broker routed %d copies of one publish, want 1", n)
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
