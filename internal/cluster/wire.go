package cluster

import (
	"encoding/binary"
	"errors"

	"github.com/swamp-project/swamp/internal/wal"
)

// Wire format: one message per transport frame, first byte the message
// type, the rest uvarint/length-prefixed fields. Records travel with
// their full typed body (type, codec, interned strings, payload) so the
// follower can hand them to the standard decoders unchanged.
const (
	msgHello   byte = iota + 1 // follower → leader: open a session
	msgWelcome                 // leader → follower: granted partitions + mode
	msgSnapRec                 // leader → follower: one bootstrap snapshot record
	msgSnapEnd                 // leader → follower: snapshot done (count, boundary)
	msgRecord                  // leader → follower: one log record (or position-only skip)
	msgAck                     // follower → leader: applied through Pos
	msgFence                   // either → peer: partition has a higher epoch
	msgReq                     // client → node: routed read/write request
	msgResp                    // node → client: reply
)

// Welcome modes.
const (
	modeResume   byte = 1 // catch-up from the hello's resume position
	modeSnapshot byte = 2 // full bootstrap: wipe, install snapshot, then tail
)

// Routed request kinds (msgReq and msgResp bodies are JSON).
const (
	reqQuery byte = iota + 1
	reqGet
	reqUpdateAttrs
	reqBatchUpdate
	reqDelete
	reqAppend
	reqSummary
	reqWindows
)

// recSkip marks a msgRecord that carries only a position: the record was
// filtered out of this session (wrong partition, or a non-replicated
// type such as a subscription), but the position must still advance so
// acks stay comparable across sessions.
const recSkip byte = 1

var errShortFrame = errors.New("cluster: short or corrupt frame")

// partEpoch pairs a partition with its fencing epoch.
type partEpoch struct {
	Part  int
	Epoch uint64
}

type helloMsg struct {
	Node   string
	Resume wal.Pos // last applied position; zero requests a bootstrap
	Parts  []partEpoch
}

type welcomeMsg struct {
	Mode     byte
	Boundary uint64 // snapshot boundary when Mode == modeSnapshot
	Parts    []partEpoch
}

type recordMsg struct {
	Prev wal.Pos // position of the previous record in this session's stream
	Pos  wal.Pos
	Skip bool
	Rec  wal.Record
}

type snapEndMsg struct {
	Count    uint64
	Boundary uint64
}

type ackMsg struct {
	Pos   wal.Pos
	Count uint64 // session-scoped processed-record count, for lag gauges
}

type fenceMsg struct {
	Part  int
	Epoch uint64
}

type reqMsg struct {
	ID   uint64
	Kind byte
	Body []byte
}

type respMsg struct {
	ID   uint64
	Kind byte // the error's sentinel, an index into errKinds; 0 for none
	Err  string
	Body []byte
}

// --- encoding ---

func putUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func putString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func putPos(b []byte, p wal.Pos) []byte {
	b = binary.AppendUvarint(b, p.Seg)
	return binary.AppendUvarint(b, p.Rec)
}

func putParts(b []byte, parts []partEpoch) []byte {
	b = binary.AppendUvarint(b, uint64(len(parts)))
	for _, pe := range parts {
		b = binary.AppendUvarint(b, uint64(pe.Part))
		b = binary.AppendUvarint(b, pe.Epoch)
	}
	return b
}

func putRecord(b []byte, rec wal.Record) []byte {
	b = append(b, byte(rec.Type), byte(rec.Codec))
	b = binary.AppendUvarint(b, uint64(len(rec.Strings)))
	for _, s := range rec.Strings {
		b = putString(b, s)
	}
	return putBytes(b, rec.Payload)
}

func encodeHello(buf []byte, h helloMsg) []byte {
	buf = append(buf[:0], msgHello)
	buf = putString(buf, h.Node)
	buf = putPos(buf, h.Resume)
	return putParts(buf, h.Parts)
}

func encodeWelcome(buf []byte, w welcomeMsg) []byte {
	buf = append(buf[:0], msgWelcome, w.Mode)
	buf = putUvarint(buf, w.Boundary)
	return putParts(buf, w.Parts)
}

func encodeSnapRec(buf []byte, rec wal.Record) []byte {
	return putRecord(append(buf[:0], msgSnapRec), rec)
}

func encodeSnapEnd(buf []byte, e snapEndMsg) []byte {
	buf = append(buf[:0], msgSnapEnd)
	buf = putUvarint(buf, e.Count)
	return putUvarint(buf, e.Boundary)
}

func encodeRecord(buf []byte, r recordMsg) []byte {
	flags := byte(0)
	if r.Skip {
		flags = recSkip
	}
	buf = append(buf[:0], msgRecord, flags)
	buf = putPos(buf, r.Prev)
	buf = putPos(buf, r.Pos)
	if !r.Skip {
		buf = putRecord(buf, r.Rec)
	}
	return buf
}

func encodeAck(buf []byte, a ackMsg) []byte {
	buf = putPos(append(buf[:0], msgAck), a.Pos)
	return putUvarint(buf, a.Count)
}

func encodeFence(buf []byte, f fenceMsg) []byte {
	buf = putUvarint(append(buf[:0], msgFence), uint64(f.Part))
	return putUvarint(buf, f.Epoch)
}

func encodeReq(buf []byte, r reqMsg) []byte {
	buf = putUvarint(append(buf[:0], msgReq), r.ID)
	buf = append(buf, r.Kind)
	return putBytes(buf, r.Body)
}

func encodeResp(buf []byte, r respMsg) []byte {
	buf = putUvarint(append(buf[:0], msgResp), r.ID)
	buf = append(buf, r.Kind)
	buf = putString(buf, r.Err)
	return putBytes(buf, r.Body)
}

// --- decoding ---

// wbuf is a cursor over one frame body; the first decode error sticks
// and every later read returns zero values, so message parsers can read
// field-by-field and check err once.
type wbuf struct {
	b   []byte
	err error
}

func (r *wbuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errShortFrame
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wbuf) byte1() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = errShortFrame
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wbuf) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.err = errShortFrame
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *wbuf) str() string { return string(r.bytes()) }

func (r *wbuf) pos() wal.Pos { return wal.Pos{Seg: r.uvarint(), Rec: r.uvarint()} }

// count reads an element count and rejects one the remaining bytes
// cannot hold at minSize encoded bytes per element, so a peer-supplied
// count never sizes an allocation the frame does not back.
func (r *wbuf) count(minSize int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/minSize) {
		r.err = errShortFrame
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *wbuf) parts() []partEpoch {
	n := r.count(2) // a partEpoch is two uvarints
	if r.err != nil {
		return nil
	}
	out := make([]partEpoch, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, partEpoch{Part: int(r.uvarint()), Epoch: r.uvarint()})
	}
	return out
}

func (r *wbuf) record() wal.Record {
	rec := wal.Record{Type: wal.Type(r.byte1()), Codec: wal.Codec(r.byte1())}
	n := r.count(1) // a string is at least its length byte
	if r.err != nil {
		return wal.Record{}
	}
	if n > 0 {
		rec.Strings = make([]string, 0, n)
		for i := 0; i < n; i++ {
			rec.Strings = append(rec.Strings, r.str())
		}
	}
	rec.Payload = r.bytes()
	return rec
}

func decodeHello(b []byte) (helloMsg, error) {
	r := wbuf{b: b}
	h := helloMsg{Node: r.str(), Resume: r.pos(), Parts: r.parts()}
	return h, r.err
}

func decodeWelcome(b []byte) (welcomeMsg, error) {
	r := wbuf{b: b}
	w := welcomeMsg{Mode: r.byte1(), Boundary: r.uvarint(), Parts: r.parts()}
	return w, r.err
}

func decodeSnapRec(b []byte) (wal.Record, error) {
	r := wbuf{b: b}
	rec := r.record()
	return rec, r.err
}

func decodeSnapEnd(b []byte) (snapEndMsg, error) {
	r := wbuf{b: b}
	e := snapEndMsg{Count: r.uvarint(), Boundary: r.uvarint()}
	return e, r.err
}

func decodeRecord(b []byte) (recordMsg, error) {
	r := wbuf{b: b}
	m := recordMsg{}
	flags := r.byte1()
	m.Prev = r.pos()
	m.Pos = r.pos()
	m.Skip = flags&recSkip != 0
	if !m.Skip {
		m.Rec = r.record()
	}
	return m, r.err
}

func decodeAck(b []byte) (ackMsg, error) {
	r := wbuf{b: b}
	a := ackMsg{Pos: r.pos(), Count: r.uvarint()}
	return a, r.err
}

func decodeFence(b []byte) (fenceMsg, error) {
	r := wbuf{b: b}
	f := fenceMsg{Part: int(r.uvarint()), Epoch: r.uvarint()}
	return f, r.err
}

func decodeReq(b []byte) (reqMsg, error) {
	r := wbuf{b: b}
	m := reqMsg{ID: r.uvarint(), Kind: r.byte1(), Body: r.bytes()}
	return m, r.err
}

func decodeResp(b []byte) (respMsg, error) {
	r := wbuf{b: b}
	m := respMsg{ID: r.uvarint(), Kind: r.byte1(), Err: r.str(), Body: r.bytes()}
	return m, r.err
}

func frameType(frame []byte) (byte, []byte, error) {
	if len(frame) < 1 {
		return 0, nil, errShortFrame
	}
	return frame[0], frame[1:], nil
}
