package mqtt

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// countConn counts the Write calls the broker makes on a connection — one
// per flush of its buffered writer, the write(2) of a real socket.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// rawPeer is the test's end of a pipe to the broker: packets go out encoded
// by hand, in as many or as few Write calls as the test chooses, and come
// back through ReadPacket. net.Pipe has no buffer, so a broker write blocks
// until the test reads it.
type rawPeer struct {
	t      *testing.T
	conn   net.Conn
	r      *bufio.Reader
	server *countConn
}

// attachCounted connects a session by hand over a counted pipe and returns
// once CONNACK is read. The broker's deferred Close (which waits for every
// session goroutine) is each test's leaves-no-goroutine check.
func attachCounted(t *testing.T, b *Broker, id string) *rawPeer {
	t.Helper()
	p, code := dialRaw(t, b, &Packet{Type: CONNECT, ClientID: id})
	if code != ConnAccepted {
		t.Fatalf("handshake refused: 0x%02x", code)
	}
	return p
}

// attachRaw attaches a fresh counted pipe to b and returns the test's end.
func attachRaw(t *testing.T, b *Broker) *rawPeer {
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	p := &rawPeer{t: t, conn: client, r: bufio.NewReader(client), server: &countConn{Conn: server}}
	b.AttachConn(p.server)
	return p
}

// dialRaw sends connect over a fresh counted pipe and returns the peer
// with the CONNACK return code.
func dialRaw(t *testing.T, b *Broker, connect *Packet) (*rawPeer, byte) {
	t.Helper()
	p := attachRaw(t, b)
	p.send(connect)
	ack := p.read()
	if ack.Type != CONNACK {
		t.Fatalf("handshake answered %+v", ack)
	}
	return p, ack.ReturnCode
}

// send writes the packets to the broker in one Write call.
func (p *rawPeer) send(pkts ...*Packet) {
	p.t.Helper()
	var raw []byte
	for _, pkt := range pkts {
		var err error
		if raw, err = pkt.appendEncode(raw); err != nil {
			p.t.Fatal(err)
		}
	}
	if _, err := p.conn.Write(raw); err != nil {
		p.t.Fatal(err)
	}
}

// read returns the broker's next packet, failing the test if none arrives
// within two seconds with no further traffic sent.
func (p *rawPeer) read() *Packet {
	p.t.Helper()
	if err := p.conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		p.t.Fatal(err)
	}
	pkt, err := ReadPacket(p.r)
	if err != nil {
		p.t.Fatalf("no packet from the broker: %v", err)
	}
	return pkt
}

func counter(b *Broker, name string) int64 { return int64(b.Metrics().Counter(name).Value()) }

// TestWriterCoalescesPubacks: the PUBACKs of a burst of QoS 1 publishes
// leave in the drain's flushes, not one write each, and the writer counters
// read what the connection saw.
func TestWriterCoalescesPubacks(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	p := attachCounted(t, b, "burst")
	base := p.server.writes.Load() // CONNACK is written before the writer exists

	const n = 128
	burst := make([]*Packet, n)
	for i := range burst {
		burst[i] = &Packet{Type: PUBLISH, Topic: "t/burst", Payload: []byte{byte(i)}, QoS: 1, PacketID: uint16(i + 1)}
	}
	p.send(burst...)
	// Nothing is read until every publish is in: the writer sits in its
	// first write (the pipe has no buffer) while the rest queue behind it.
	waitFor(t, 2*time.Second, func() bool { return counter(b, "mqtt.publish.in") == n })
	for i := 0; i < n; i++ {
		if ack := p.read(); ack.Type != PUBACK || ack.PacketID != uint16(i+1) {
			t.Fatalf("packet %d from the broker = %+v, want PUBACK %d", i, ack, i+1)
		}
	}
	writes := p.server.writes.Load() - base
	if writes > n/8 {
		t.Errorf("%d PUBACKs left in %d writes, want them coalesced", n, writes)
	}
	waitFor(t, time.Second, func() bool { return counter(b, "mqtt.writer.flushed_packets") == n })
	if flushes := counter(b, "mqtt.writer.flushes"); flushes != writes {
		t.Errorf("mqtt.writer.flushes = %d beside %d writes on the connection", flushes, writes)
	}
}

// TestFullControlQueuePushesBack: a peer that pipelines more QoS 1
// publishes than the control queue holds while the writer is stalled gets
// every PUBACK, in order, once it reads again — a full control queue stops
// the session's reader instead of dropping acknowledgements.
func TestFullControlQueuePushesBack(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	p := attachCounted(t, b, "flood")

	// Past what the writer can take before its flush blocks (the flush
	// watermark's worth of PUBACKs and one swapped-out control queue), the
	// burst still overfills the control queue.
	const n = DefaultFlushWatermark/4 + 3*sessionQueueLen
	var raw []byte
	for i := 0; i < n; i++ {
		var err error
		pkt := &Packet{Type: PUBLISH, Topic: "t/flood", Payload: []byte{byte(i)}, QoS: 1, PacketID: uint16(i + 1)}
		if raw, err = pkt.appendEncode(raw); err != nil {
			t.Fatal(err)
		}
	}
	// The burst is larger than the session reader's buffer: once the
	// control queue is full the reader stops taking bytes, and the write
	// waits for the test to read.
	sent := make(chan error, 1)
	go func() {
		_, err := p.conn.Write(raw)
		sent <- err
	}()
	// Nothing is read until the control queue is full: the writer sits in
	// its first write (the pipe has no buffer), and the reader waits.
	b.sessMu.RLock()
	s := b.sessions["flood"]
	b.sessMu.RUnlock()
	waitFor(t, 2*time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.ctlq) == sessionQueueLen
	})
	for i := 0; i < n; i++ {
		if ack := p.read(); ack.Type != PUBACK || ack.PacketID != uint16(i+1) {
			t.Fatalf("packet %d from the broker = %+v, want PUBACK %d", i, ack, i+1)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if in := counter(b, "mqtt.publish.in"); in != n {
		t.Errorf("mqtt.publish.in = %d, want %d", in, n)
	}
}

// TestWriterIdlePubackLeavesAtOnce: on an idle session no flush is left
// pending — one publish is acknowledged in one write with nothing more sent.
func TestWriterIdlePubackLeavesAtOnce(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	p := attachCounted(t, b, "idle")
	for i := 1; i <= 3; i++ {
		before := p.server.writes.Load()
		p.send(&Packet{Type: PUBLISH, Topic: "t/idle", Payload: []byte("x"), QoS: 1, PacketID: uint16(i)})
		if ack := p.read(); ack.Type != PUBACK || ack.PacketID != uint16(i) {
			t.Fatalf("publish %d answered %+v", i, ack)
		}
		if w := p.server.writes.Load() - before; w != 1 {
			t.Errorf("publish %d: PUBACK took %d writes, want 1", i, w)
		}
	}
}

// TestWriterAckBeforeOwnDelivery: a session that publishes QoS 1 into its
// own subscription reads each PUBACK ahead of that publish's delivery —
// control packets drain first within a pass — with the PUBACKs in publish
// order among themselves and the deliveries likewise.
func TestWriterAckBeforeOwnDelivery(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	p := attachCounted(t, b, "both")
	p.send(&Packet{Type: SUBSCRIBE, PacketID: 1000, Filters: []Subscription{{Filter: "t/own", QoS: 0}}})
	if ack := p.read(); ack.Type != SUBACK {
		t.Fatalf("subscribe answered %+v", ack)
	}

	const n = 100
	burst := make([]*Packet, n)
	for i := range burst {
		burst[i] = &Packet{Type: PUBLISH, Topic: "t/own", Payload: []byte{byte(i)}, QoS: 1, PacketID: uint16(i + 1)}
	}
	p.send(burst...)
	acked, delivered := 0, 0
	for acked < n || delivered < n {
		switch pkt := p.read(); pkt.Type {
		case PUBACK:
			if pkt.PacketID != uint16(acked+1) {
				t.Fatalf("PUBACK %d arrived after %d others", pkt.PacketID, acked)
			}
			acked++
		case PUBLISH:
			if len(pkt.Payload) != 1 || pkt.Payload[0] != byte(delivered) {
				t.Fatalf("delivery %v arrived after %d others", pkt.Payload, delivered)
			}
			if delivered++; delivered > acked {
				t.Fatalf("delivery %d arrived before its PUBACK", delivered)
			}
		default:
			t.Fatalf("unexpected %+v", pkt)
		}
	}
}

// TestWriterAnswersControlOnEmptyQueue: SUBACK, PINGRESP and UNSUBACK each
// leave at once on a session whose data queue stays empty.
func TestWriterAnswersControlOnEmptyQueue(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	p := attachCounted(t, b, "ctl")
	for _, step := range []struct {
		send *Packet
		want PacketType
	}{
		{&Packet{Type: SUBSCRIBE, PacketID: 7, Filters: []Subscription{{Filter: "t/none", QoS: 1}}}, SUBACK},
		{&Packet{Type: PINGREQ}, PINGRESP},
		{&Packet{Type: UNSUBSCRIBE, PacketID: 8, Filters: []Subscription{{Filter: "t/none"}}}, UNSUBACK},
	} {
		before := p.server.writes.Load()
		p.send(step.send)
		if got := p.read(); got.Type != step.want || got.PacketID != step.send.PacketID {
			t.Errorf("%v answered %+v", step.send.Type, got)
		}
		if w := p.server.writes.Load() - before; w != 1 {
			t.Errorf("%v: answer took %d writes, want 1", step.want, w)
		}
	}
}
