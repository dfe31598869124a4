package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// ErrConnClosed is returned by a routed call whose peer connection closed.
// It satisfies errors.Is(err, ngsi.ErrUnavailable).
var ErrConnClosed = unavailablef("cluster: connection closed")

// maxFrameBytes bounds one TCP frame; a record can be at most
// wal.MaxRecordBytes, plus envelope.
const maxFrameBytes = 80 << 20

// Conn is one bidirectional message transport between two nodes. Send
// must be safe for concurrent use and must not retain the frame after
// returning (callers reuse encode buffers). Frames received after the
// connection closes are dropped; Recv's channel closes on Close or peer
// loss. A Conn may silently drop frames (a lossy link, queue
// overflow) — the replication protocol detects gaps by position chaining
// and re-syncs, it never assumes reliability.
type Conn interface {
	Send(frame []byte) error
	Recv() <-chan []byte
	Close() error
}

// tcpConn carries length-prefixed frames over a byte stream: a TCP
// connection between swampd processes, or a net.Pipe in tests.
type tcpConn struct {
	c    net.Conn
	wmu  sync.Mutex
	in   chan []byte
	once sync.Once
}

func newTCPConn(c net.Conn) *tcpConn {
	t := &tcpConn{c: c, in: make(chan []byte, 1024)}
	go t.readLoop()
	return t
}

func (t *tcpConn) readLoop() {
	defer close(t.in)
	defer t.c.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(t.c, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > maxFrameBytes {
			return
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(t.c, frame); err != nil {
			return
		}
		t.in <- frame
	}
}

func (t *tcpConn) Send(frame []byte) error {
	if len(frame) > maxFrameBytes {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", len(frame))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if _, err := t.c.Write(hdr[:]); err != nil {
		return err
	}
	_, err := t.c.Write(frame)
	return err
}

func (t *tcpConn) Recv() <-chan []byte { return t.in }

func (t *tcpConn) Close() error {
	var err error
	t.once.Do(func() { err = t.c.Close() })
	return err
}

// DialTCP connects to a peer's replication listener.
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// ListenTCP accepts replication/forwarding connections and hands each to
// serve on its own goroutine. Close the returned listener to stop.
func ListenTCP(addr string, serve func(Conn)) (io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(newTCPConn(c))
		}
	}()
	return ln, nil
}
