package mqtt

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/simnet"
)

// Transport moves whole MQTT packets between a client and the broker. Two
// implementations exist: StreamTransport over a net.Conn (real TCP framing)
// and SimTransport over a simnet endpoint (one frame per packet, so the
// simulated link's loss applies per-packet, beneath the QoS layer).
type Transport interface {
	// WritePacket sends one packet. It may silently lose the packet if the
	// underlying medium does (SimTransport); stream transports never do.
	WritePacket(p *Packet) error
	// ReadPacket blocks for the next packet. io.EOF / ErrTransportClosed
	// signal an orderly close.
	ReadPacket() (*Packet, error)
	// Close tears the transport down, unblocking pending reads.
	Close() error
	// RemoteAddr describes the peer for logging.
	RemoteAddr() string
}

// ErrTransportClosed is returned by ReadPacket after Close.
var ErrTransportClosed = errors.New("mqtt: transport closed")

// streamWriteBuf sizes the buffered writer; larger than the default flush
// watermark so the watermark, not bufio, decides when bytes hit the socket.
const streamWriteBuf = 32 << 10

// StreamTransport frames packets over a byte stream (normally TCP).
type StreamTransport struct {
	conn net.Conn
	r    *bufio.Reader

	wmu sync.Mutex // serialise writers
	w   *bufio.Writer
}

// NewStreamTransport wraps conn.
func NewStreamTransport(conn net.Conn) *StreamTransport {
	return &StreamTransport{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriterSize(conn, streamWriteBuf)}
}

// WritePacket implements Transport: one packet, flushed at once. CONNACK
// (before the session writer exists) and the client write this way; the
// session writer uses BufferPacket and WriteFrame and flushes per drain.
func (t *StreamTransport) WritePacket(p *Packet) error {
	if _, err := t.BufferPacket(p); err != nil {
		return err
	}
	return t.Flush()
}

// BufferPacket implements Flusher. Like WriteFrame it encodes into the free
// space the buffered writer lends, so only a packet larger than what is
// free allocates.
func (t *StreamTransport) BufferPacket(p *Packet) (int, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	raw, err := p.appendEncode(t.w.AvailableBuffer())
	if err != nil {
		return 0, err
	}
	_, err = t.w.Write(raw)
	return len(raw), err
}

// WriteFrame implements FrameWriter: the shared frame's bytes go into the
// buffered writer with the PacketID/DUP region patched for this target. No
// flush — the session writer flushes on queue-empty or at its watermark.
func (t *StreamTransport) WriteFrame(f *Frame, pid uint16, dup bool) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	_, err := t.w.Write(f.appendPatched(t.w.AvailableBuffer(), pid, dup))
	return err
}

// Flush implements Flusher, pushing buffered frames to the socket.
func (t *StreamTransport) Flush() error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.w.Flush()
}

// ReadPacket implements Transport.
func (t *StreamTransport) ReadPacket() (*Packet, error) {
	return ReadPacket(t.r)
}

// Close implements Transport.
func (t *StreamTransport) Close() error { return t.conn.Close() }

// RemoteAddr implements Transport.
func (t *StreamTransport) RemoteAddr() string {
	if a := t.conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return "stream"
}

// SetReadDeadline exposes the conn deadline for keepalive enforcement.
func (t *StreamTransport) SetReadDeadline(at time.Time) error {
	return t.conn.SetReadDeadline(at)
}

// SimTransport carries one encoded packet per simnet frame. Loss on the
// simulated link silently discards individual packets — exactly the failure
// the QoS 1 retransmission path must absorb.
type SimTransport struct {
	ep   *simnet.Endpoint
	name string

	closed chan struct{}
	once   *sync.Once
}

// NewSimTransport wraps one endpoint of a simnet duplex.
func NewSimTransport(ep *simnet.Endpoint, name string) *SimTransport {
	return &SimTransport{ep: ep, name: name, closed: make(chan struct{}), once: new(sync.Once)}
}

// WritePacket implements Transport.
func (t *SimTransport) WritePacket(p *Packet) error {
	select {
	case <-t.closed:
		return ErrTransportClosed
	default:
	}
	raw, err := p.appendEncode(getWire())
	if err != nil {
		putWire(raw)
		return err
	}
	// Ownership of raw transfers to the link; the receiving SimTransport
	// recycles it after decode.
	return t.ep.SendOwned(raw)
}

// WriteFrame implements FrameWriter: the shared frame is patched into a
// pooled staging buffer and handed to the link without a second copy.
func (t *SimTransport) WriteFrame(f *Frame, pid uint16, dup bool) error {
	select {
	case <-t.closed:
		return ErrTransportClosed
	default:
	}
	raw := f.appendPatched(getWire(), pid, dup)
	return t.ep.SendOwned(raw)
}

// ReadPacket implements Transport.
func (t *SimTransport) ReadPacket() (*Packet, error) {
	select {
	case raw, ok := <-t.ep.Recv():
		if !ok {
			return nil, ErrTransportClosed
		}
		p, err := Decode(raw)
		// Decode copies the body out of raw before parsing it, so the wire
		// buffer can go straight back to the pool even on success.
		putWire(raw)
		return p, err
	case <-t.closed:
		return nil, ErrTransportClosed
	}
}

// Close implements Transport.
func (t *SimTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// RemoteAddr implements Transport.
func (t *SimTransport) RemoteAddr() string { return "sim:" + t.name }

// SlowTransport is a broker-side Transport with no real peer: inbound
// packets are injected by the driver and every outbound PUBLISH write costs
// Delay — a subscriber consuming slower than the farm publishes. Benchmarks
// and the swamp-sim -mqttbench stress tool use it to model a wedged link
// without standing up a socket. A Delay of 0 models a subscriber that sinks
// instantly.
type SlowTransport struct {
	// Delay is charged on every PUBLISH write. Immutable after Attach.
	Delay time.Duration

	in     chan *Packet
	closed chan struct{}
	once   sync.Once
	pubs   atomic.Int64
}

// NewSlowTransport builds a SlowTransport with the given per-PUBLISH delay.
func NewSlowTransport(delay time.Duration) *SlowTransport {
	return &SlowTransport{Delay: delay, in: make(chan *Packet, 16), closed: make(chan struct{})}
}

// Inject feeds one inbound packet (CONNECT, SUBSCRIBE, ...) to the broker.
func (t *SlowTransport) Inject(p *Packet) { t.in <- p }

// PublishCount reports how many PUBLISH packets the broker managed to write.
func (t *SlowTransport) PublishCount() int64 { return t.pubs.Load() }

// WritePacket implements Transport.
func (t *SlowTransport) WritePacket(p *Packet) error {
	if p.Type == PUBLISH && t.Delay > 0 {
		timer := time.NewTimer(t.Delay)
		select {
		case <-timer.C:
		case <-t.closed:
			timer.Stop()
			return ErrTransportClosed
		}
	}
	select {
	case <-t.closed:
		return ErrTransportClosed
	default:
	}
	if p.Type == PUBLISH {
		t.pubs.Add(1)
	}
	return nil
}

// WriteFrame implements FrameWriter with the same delay/count semantics as
// WritePacket (frames are always PUBLISH).
func (t *SlowTransport) WriteFrame(f *Frame, pid uint16, dup bool) error {
	if t.Delay > 0 {
		timer := time.NewTimer(t.Delay)
		select {
		case <-timer.C:
		case <-t.closed:
			timer.Stop()
			return ErrTransportClosed
		}
	}
	select {
	case <-t.closed:
		return ErrTransportClosed
	default:
	}
	t.pubs.Add(1)
	return nil
}

// ReadPacket implements Transport.
func (t *SlowTransport) ReadPacket() (*Packet, error) {
	select {
	case p := <-t.in:
		return p, nil
	case <-t.closed:
		return nil, ErrTransportClosed
	}
}

// Close implements Transport.
func (t *SlowTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// RemoteAddr implements Transport.
func (t *SlowTransport) RemoteAddr() string { return "slow" }

// NewSimPair builds a connected (client, broker-side) transport pair over a
// fresh simnet duplex with cfg impairments. Closing either side closes the
// pair, mirroring TCP connection semantics. The returned cleanup closes the
// duplex.
func NewSimPair(cfg simnet.Config, name string) (client, server Transport, cleanup func(), err error) {
	d, err := simnet.NewDuplex(cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("mqtt: sim pair: %w", err)
	}
	// Shared close signal: like a TCP conn, either endpoint closing tears
	// down both directions.
	closed := make(chan struct{})
	once := new(sync.Once)
	c := &SimTransport{ep: d.A, name: name + "-client", closed: closed, once: once}
	s := &SimTransport{ep: d.B, name: name + "-server", closed: closed, once: once}
	return c, s, func() {
		c.Close()
		d.Close()
	}, nil
}
