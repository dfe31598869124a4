package mqtt

import (
	"bufio"
	"net"
	"sync"
)

// streamWriteBuf sizes the buffered writer; larger than the default flush
// watermark so the watermark, not bufio, decides when bytes hit the socket.
const streamWriteBuf = 32 << 10

// stream frames MQTT packets over a byte stream: a TCP connection, or one
// end of a net.Pipe for an in-process peer. The broker and the client both
// speak through it, so every peer takes the same write path.
type stream struct {
	conn net.Conn
	r    *bufio.Reader

	wmu sync.Mutex // serialise writers
	w   *bufio.Writer
}

func newStream(conn net.Conn) *stream {
	return &stream{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriterSize(conn, streamWriteBuf)}
}

// writePacket writes one packet and flushes at once. CONNACK (before the
// session writer exists) and the client write this way; the session writer
// uses bufferPacket and writeFrame and flushes per drain.
func (t *stream) writePacket(p *Packet) error {
	if _, err := t.bufferPacket(p); err != nil {
		return err
	}
	return t.flush()
}

// bufferPacket encodes p into the free space the buffered writer lends, so
// only a packet larger than what is free allocates. It reports p's wire size.
func (t *stream) bufferPacket(p *Packet) (int, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	raw, err := p.appendEncode(t.w.AvailableBuffer())
	if err != nil {
		return 0, err
	}
	_, err = t.w.Write(raw)
	return len(raw), err
}

// writeFrame copies the shared frame's bytes into the buffered writer with
// the PacketID patched for this target. No flush — the session writer
// flushes on queue-empty or at its watermark.
func (t *stream) writeFrame(f *Frame, pid uint16) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	_, err := t.w.Write(f.appendPatched(t.w.AvailableBuffer(), pid))
	return err
}

// flush pushes buffered packets to the connection.
func (t *stream) flush() error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.w.Flush()
}

func (t *stream) readPacket() (*Packet, error) { return ReadPacket(t.r) }

// close tears the connection down, unblocking a pending read or write.
func (t *stream) close() error { return t.conn.Close() }
