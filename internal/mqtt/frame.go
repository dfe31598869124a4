package mqtt

import (
	"sync"
	"sync/atomic"
)

// Frame is one PUBLISH packet encoded once and shared by every subscriber of
// a fan-out. The wire bytes in buf are immutable while any reference is
// live: per-target fix-ups (PacketID, DUP bit) happen in the transport while
// copying into its own write buffer, never in place. Frames are refcounted
// and pooled — route() creates one with refcount 1, each queue or pending
// entry holds its own reference, and the last release returns the frame to
// the pool for reuse.
type Frame struct {
	buf    []byte
	pidOff int // offset of the 2-byte PacketID region; 0 = QoS-0 frame (no id)

	// Decoded fields kept for transports without a frame fast path and for
	// reconstructing retry packets.
	topic   string
	payload []byte
	qos     byte
	refs    atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// newPublishFrame encodes one PUBLISH at the effective qos into a pooled
// buffer. The returned frame has refcount 1 (the caller's reference).
// payload is aliased, not copied — the frame must not outlive it (broker
// publishes own their payload for the duration of the fan-out).
func newPublishFrame(topic string, payload []byte, qos byte, retain bool) *Frame {
	f := framePool.Get().(*Frame)
	f.topic, f.payload, f.qos = topic, payload, qos
	f.refs.Store(1)
	f.buf, f.pidOff = appendPublish(f.buf[:0], topic, payload, qos, retain, false, 0)
	return f
}

// ref takes an additional reference.
func (f *Frame) ref() { f.refs.Add(1) }

// release drops one reference; the last release recycles the frame.
func (f *Frame) release() {
	if f.refs.Add(-1) == 0 {
		f.topic, f.payload = "", nil
		framePool.Put(f)
	}
}

// appendPatched appends f's wire bytes to dst with the per-target PacketID
// and DUP bit applied. The shared buffer is never written.
func (f *Frame) appendPatched(dst []byte, pid uint16, dup bool) []byte {
	b0 := f.buf[0]
	if dup {
		b0 |= 0x08
	}
	dst = append(dst, b0)
	if f.pidOff == 0 {
		return append(dst, f.buf[1:]...)
	}
	dst = append(dst, f.buf[1:f.pidOff]...)
	dst = append(dst, byte(pid>>8), byte(pid))
	return append(dst, f.buf[f.pidOff+2:]...)
}

// packet reconstructs a standalone Packet equivalent to the frame, for
// transports that do not implement FrameWriter.
func (f *Frame) packet(pid uint16, dup bool) *Packet {
	return &Packet{
		Type:     PUBLISH,
		Topic:    f.topic,
		Payload:  f.payload,
		QoS:      f.qos,
		Dup:      dup,
		PacketID: pid,
		Retain:   f.buf[0]&0x01 != 0,
	}
}

// wireLen is the frame's size on the wire, used for flush-watermark
// accounting.
func (f *Frame) wireLen() int { return len(f.buf) }

// FrameWriter is the optional transport fast path for shared frames: the
// transport copies the frame's wire bytes into its own write path, patching
// the PacketID/DUP header region for this target during the copy. Transports
// that don't implement it receive an equivalent Packet via WritePacket.
type FrameWriter interface {
	WriteFrame(f *Frame, pid uint16, dup bool) error
}

// Flusher is implemented by transports that buffer writes: the session
// writer puts packets in with BufferPacket (which reports their wire size)
// beside the frames, and flushes when its queue drains empty or a byte
// watermark is reached. Transports without it write through on every packet.
type Flusher interface {
	BufferPacket(p *Packet) (wire int, err error)
	Flush() error
}

// wirePool recycles the encode staging buffers a SimTransport hands to its
// link; the receiving side returns them. Buffers travel as *[]byte so that a
// Put boxes nothing, and the emptied boxes wait in boxPool for the next Put.
// Oversized buffers are dropped so one huge payload doesn't pin memory.
var wirePool, boxPool sync.Pool

const maxPooledWire = 64 << 10

func getWire() []byte {
	v := wirePool.Get()
	if v == nil {
		return make([]byte, 0, 512)
	}
	box := v.(*[]byte)
	b := *box
	*box = nil
	boxPool.Put(box)
	return b
}

func putWire(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledWire {
		return
	}
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	wirePool.Put(box)
}
