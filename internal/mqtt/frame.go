package mqtt

import (
	"sync"
	"sync/atomic"
)

// Frame is one PUBLISH packet encoded once and shared by every subscriber of
// a fan-out. The wire bytes in buf are immutable while any reference is
// live: the per-target PacketID is patched in the stream while copying into
// its own write buffer, never in place. Frames are refcounted and pooled —
// route() creates one with refcount 1, each queued delivery holds its own
// reference until it is written, and the last release returns the frame to
// the pool for reuse.
type Frame struct {
	buf    []byte
	pidOff int // offset of the 2-byte PacketID region; 0 = QoS-0 frame (no id)
	refs   atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// newPublishFrame encodes one PUBLISH at the effective qos into a pooled
// buffer. The returned frame has refcount 1 (the caller's reference). The
// encoding copies topic and payload, so the frame does not alias them.
func newPublishFrame(topic string, payload []byte, qos byte, retain bool) *Frame {
	f := framePool.Get().(*Frame)
	f.refs.Store(1)
	f.buf, f.pidOff = appendPublish(f.buf[:0], topic, payload, qos, retain, false, 0)
	return f
}

// ref takes an additional reference.
func (f *Frame) ref() { f.refs.Add(1) }

// release drops one reference; the last release recycles the frame.
func (f *Frame) release() {
	if f.refs.Add(-1) == 0 {
		framePool.Put(f)
	}
}

// appendPatched appends f's wire bytes to dst with the per-target PacketID
// applied. The shared buffer is never written.
func (f *Frame) appendPatched(dst []byte, pid uint16) []byte {
	if f.pidOff == 0 {
		return append(dst, f.buf...)
	}
	dst = append(dst, f.buf[:f.pidOff]...)
	dst = append(dst, byte(pid>>8), byte(pid))
	return append(dst, f.buf[f.pidOff+2:]...)
}

// wireLen is the frame's size on the wire, used for flush-watermark
// accounting.
func (f *Frame) wireLen() int { return len(f.buf) }
