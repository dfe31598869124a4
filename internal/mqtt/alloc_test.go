//go:build !race

// Zero-alloc guards for the steady-state fan-out path. The race detector
// instruments allocations, so these assertions only run in normal builds;
// the race builds cover the same code via the stress suites.

package mqtt

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// allocSink defeats dead-code elimination in the measured loops.
var allocSink int

// feedConn is a broker connection with no peer behind it: reads return the
// scripted inbound packets and then block until Close, and writes are
// counted and discarded.
type feedConn struct {
	net.Conn
	in      []byte
	closed  chan struct{}
	once    sync.Once
	written atomic.Int64
}

func newFeedConn(t *testing.T, pkts ...*Packet) *feedConn {
	return &feedConn{in: encodeAll(t, pkts...), closed: make(chan struct{})}
}

func (c *feedConn) Read(p []byte) (int, error) {
	if len(c.in) > 0 {
		n := copy(p, c.in)
		c.in = c.in[n:]
		return n, nil
	}
	<-c.closed
	return 0, io.EOF
}

func (c *feedConn) Write(p []byte) (int, error) {
	c.written.Add(int64(len(p)))
	return len(p), nil
}

func (c *feedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// encodeAll returns the packets' wire bytes, back to back.
func encodeAll(t *testing.T, pkts ...*Packet) []byte {
	t.Helper()
	var raw []byte
	for _, p := range pkts {
		var err error
		if raw, err = p.appendEncode(raw); err != nil {
			t.Fatal(err)
		}
	}
	return raw
}

// TestQoS0DeliveryPathZeroAlloc pins the headline perf invariant: once the
// route cache and frame pool are warm, a QoS-0 publish routed, enqueued,
// drained, written and flushed to the connection costs zero heap allocations
// — across ALL goroutines, so the session writer's drain/flush path is
// covered too. A local attachment matching the same topic rides along at no
// cost.
func TestQoS0DeliveryPathZeroAlloc(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()

	conn := newFeedConn(t, &Packet{Type: CONNECT, ClientID: "sink"}, &Packet{Type: SUBSCRIBE, PacketID: 1, Filters: []Subscription{
		{Filter: "farm/+/soil/#", QoS: 0},
	}})
	b.AttachConn(conn)
	handshake := int64(len(encodeAll(t, &Packet{Type: CONNACK}, &Packet{Type: SUBACK, PacketID: 1, GrantedQoS: []byte{0}})))
	waitFor(t, time.Second, func() bool { return conn.written.Load() == handshake })
	local := 0
	detach, err := b.AttachLocal("local", "farm/#", func(m Message) { local += len(m.Payload) })
	if err != nil {
		t.Fatal(err)
	}
	defer detach()

	payload := []byte("moisture=41.7")
	const topic = "farm/f1/soil/probe2"

	// Warm everything: route cache entry for the topic, the frame pool,
	// the writer's batch scratch. Each publish is driven to completion — its
	// bytes flushed to the connection — so frames return to the pool before
	// the next iteration.
	frame := int64(len(encodeAll(t, &Packet{Type: PUBLISH, Topic: topic, Payload: payload})))
	want := handshake
	pump := func() {
		if err := b.InjectPublish("pub", topic, payload, 0, false); err != nil {
			panic(err)
		}
		want += frame
		for conn.written.Load() < want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ {
		pump()
	}

	allocs := testing.AllocsPerRun(200, pump)
	if allocs != 0 {
		t.Fatalf("QoS-0 publish->route->enqueue->drain path allocates %.3f objects/op, want 0", allocs)
	}
	if want := (64 + 201) * len(payload); local != want {
		t.Fatalf("local attachment saw %d payload bytes, want %d", local, want)
	}
}

// TestLocalOnlyRouteEncodesNoFrame: a topic matched only by a local
// attachment resolves to a route with no session target — frames are encoded
// per session target, so none is — and the handler reads the publisher's own
// payload bytes, for zero allocations a publish.
func TestLocalOnlyRouteEncodesNoFrame(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	conn := newFeedConn(t, &Packet{Type: CONNECT, ClientID: "elsewhere"},
		&Packet{Type: SUBSCRIBE, PacketID: 1, Filters: []Subscription{{Filter: "farm/#", QoS: 1}}})
	b.AttachConn(conn)
	handshake := int64(len(encodeAll(t, &Packet{Type: CONNACK}, &Packet{Type: SUBACK, PacketID: 1, GrantedQoS: []byte{1}})))
	waitFor(t, time.Second, func() bool { return conn.written.Load() == handshake })

	payload := []byte("m1|0.21|m2|0.27")
	const topic = "ul/k/probe-1/attrs"
	aliased := 0
	detach, err := b.AttachLocal("iot-agent", "ul/+/+/attrs", func(m Message) {
		if &m.Payload[0] == &payload[0] {
			aliased++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()

	pump := func() {
		if err := b.InjectPublish("probe-1", topic, payload, 1, false); err != nil {
			panic(err)
		}
	}
	pump()
	rt := (*b.routeCache.Load())[topic].v.Load()
	if len(rt.targets) != 0 || len(rt.locals) != 1 {
		t.Fatalf("route for a local-only topic: %d session targets, %d local, want 0 and 1", len(rt.targets), len(rt.locals))
	}
	if allocs := testing.AllocsPerRun(200, pump); allocs != 0 {
		t.Fatalf("local-only publish allocates %.3f objects/op, want 0", allocs)
	}
	if aliased != 202 {
		t.Fatalf("handler saw the publisher's own bytes %d of 202 times", aliased)
	}
	if extra := conn.written.Load() - handshake; extra != 0 {
		t.Fatalf("%d bytes written to a session that does not match", extra)
	}
}

// stepConn is a feedConn whose inbound bytes after the scripted ones arrive
// one chunk per send on next.
type stepConn struct {
	*feedConn
	next chan []byte
}

func (c *stepConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		select {
		case c.in = <-c.next:
		case <-c.closed:
			return 0, io.EOF
		}
	}
	return c.feedConn.Read(p)
}

// TestQoS1PubackAllocs: a QoS 1 PUBLISH read off a device's connection,
// routed and answered with its PUBACK costs what decoding it costs (its
// Packet, body and topic; see TestPublishDecodeAllocs) and nothing more —
// the control queue holds the PUBACK by value.
func TestQoS1PubackAllocs(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	conn := &stepConn{feedConn: newFeedConn(t, &Packet{Type: CONNECT, ClientID: "probe-1"}), next: make(chan []byte)}
	b.AttachConn(conn)
	want := int64(len(encodeAll(t, &Packet{Type: CONNACK})))
	waitFor(t, time.Second, func() bool { return conn.written.Load() == want })

	pub := encodeAll(t, &Packet{Type: PUBLISH, Topic: "ul/k1/probe-1/attrs", Payload: []byte("m1|0.21|m2|0.27"), QoS: 1, PacketID: 7})
	puback := int64(len(encodeAll(t, &Packet{Type: PUBACK, PacketID: 7})))
	step := func() {
		conn.next <- pub
		want += puback
		for conn.written.Load() < want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs > 3 {
		t.Errorf("QoS 1 publish -> PUBACK allocates %.2f objects, want ≤ 3 (the decode's)", allocs)
	}
}

// TestTrieMatchZeroAlloc pins the matcher itself: an index-walking trie
// match into a pre-sized scratch slice splits no strings and allocates
// nothing, even with wildcard and multi-level overlap.
func TestTrieMatchZeroAlloc(t *testing.T) {
	tr := newSubTree()
	tr = tr.withSub("farm/+/soil/#", "c1", 1)
	tr = tr.withSub("farm/f1/#", "c2", 0)
	tr = tr.withSub("farm/f1/soil/probe2", "c3", 1)
	tr = tr.withSub("#", "c4", 0)

	scratch := make([]subMatch, 0, 16)
	allocs := testing.AllocsPerRun(1000, func() {
		ms, _ := tr.matchInto("farm/f1/soil/probe2", scratch[:0])
		allocSink = len(ms)
	})
	if allocs != 0 {
		t.Fatalf("trie matchInto allocates %.3f objects/op, want 0", allocs)
	}
	if allocSink != 4 {
		t.Fatalf("matchInto found %d subscriptions, want 4", allocSink)
	}
}

// TestPublishDecodeAllocs: a QoS 1 PUBLISH read off a connection's
// bufio.Reader costs its Packet, its body and its topic string — the header
// bytes go through ReadByte and the payload aliases the body.
func TestPublishDecodeAllocs(t *testing.T) {
	raw, err := (&Packet{Type: PUBLISH, Topic: "ul/k1/probe-1/attrs", Payload: []byte("m1|0.21|m2|0.27"), QoS: 1, PacketID: 7}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(nil)
	r := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(500, func() {
		src.Reset(raw)
		r.Reset(src)
		p, err := ReadPacket(r)
		if err != nil {
			panic(err)
		}
		allocSink = len(p.Payload)
	})
	if allocs > 3 {
		t.Errorf("decoding a QoS 1 PUBLISH allocates %.1f objects, want ≤ 3", allocs)
	}
}

// discardConn is a connection that accepts every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestWritePacketStagingZeroAlloc: the stream allocates nothing to stage a
// packet's encoding — it encodes into its buffered writer's free space,
// flushed or not.
func TestWritePacketStagingZeroAlloc(t *testing.T) {
	ack := &Packet{Type: PUBACK, PacketID: 9}
	pub := &Packet{Type: PUBLISH, Topic: "ul/k1/probe-1/attrs", Payload: []byte("m1|0.21|m2|0.27"), QoS: 1, PacketID: 7}

	st := newStream(discardConn{})
	frame := newPublishFrame(pub.Topic, pub.Payload, 1, false)
	defer frame.release()
	if allocs := testing.AllocsPerRun(200, func() {
		if st.writePacket(ack) != nil || st.writePacket(pub) != nil {
			panic("write failed")
		}
		if _, err := st.bufferPacket(ack); err != nil || st.writeFrame(frame, 7) != nil || st.flush() != nil {
			panic("buffered write failed")
		}
	}); allocs != 0 {
		t.Errorf("stream: %.2f allocations per four packets, want 0", allocs)
	}
}
