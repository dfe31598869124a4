package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Type tags a Record's payload so recovery knows which store a record
// belongs to and how to decode it. The values are part of the on-disk
// format: never renumber, only append.
type Type uint8

// Record types. Context-plane records replay through the NGSI broker,
// telemetry records through the time-series store.
const (
	// TypeEntityUpsert carries a full entity replacement (ngsi.Entity).
	TypeEntityUpsert Type = iota + 1
	// TypeEntityMerge carries one shard's slice of an attribute-merge
	// batch, with timestamps already resolved.
	TypeEntityMerge
	// TypeEntityDelete carries the id of a deleted entity.
	TypeEntityDelete
	// TypeSubscriptionPut carries a durable (webhook) subscription.
	TypeSubscriptionPut
	// TypeSubscriptionDelete carries the id of a removed subscription.
	TypeSubscriptionDelete
	// TypeTelemetry carries a batch of time-series points.
	TypeTelemetry
)

// Codec tags how a Record's payload bytes are encoded. The values are
// part of the on-disk format: never renumber, only append.
type Codec uint8

const (
	// CodecJSON is the v1 payload encoding. It is the zero value so a
	// Record built by hand (tests, tools) still means what it meant
	// before codec v2 existed.
	CodecJSON Codec = iota
	// CodecBinary is the v2 payload encoding: varint-framed fields,
	// record-local string indexes into Strings, delta-encoded telemetry
	// timestamps, float64 bit packing. The typed codecs fall back to
	// CodecJSON per record for shapes the binary form cannot carry
	// (e.g. timestamps outside the unix-nano range).
	CodecBinary
)

// Record is one durable unit: a typed payload. In a v1 segment the log
// frames it as [len uint32][crc32 uint32][type uint8][payload], CRC over
// type+payload, so a torn tail write is detected and replay stops there.
// A v2 segment (marked by segMagic) frames the same outer
// [len][crc] envelope around [type u8][codec u8][nstr uvarint][string
// refs][payload]: Strings lists the record's distinct names, written
// either as a back-reference into the per-segment intern table or as an
// inline definition that extends it, and the payload refers to them by
// record-local index.
type Record struct {
	Type    Type
	Payload []byte
	// Codec says how Payload is encoded. Zero (CodecJSON) keeps
	// hand-built records meaning the same thing they did in v1.
	Codec Codec
	// Strings is the record-local string table used by CodecBinary
	// payloads. Entries are interned per segment on disk.
	Strings []string
}

const (
	frameHeader = 8 // uint32 body length + uint32 CRC
	// MaxRecordBytes bounds one record's body so a corrupt length field
	// cannot drive an absurd allocation during replay.
	MaxRecordBytes = 64 << 20
)

// segMagic opens every v2 segment and snapshot file. The first four
// bytes read as a little-endian uint32 far above MaxRecordBytes, so a v1
// reader that misparses the header as a frame length fails safe with
// ErrTorn instead of replaying garbage.
var segMagic = [8]byte{'S', 'W', 'A', 'L', '2', 0xF7, '\r', '\n'}

// ErrTorn marks a truncated or corrupt record — the expected shape of the
// final record after a crash mid-write. Replay stops at the first one.
var ErrTorn = errors.New("wal: torn record")

// errCorruptFrame marks a frame whose CRC passed but whose v2 body
// structure is invalid (bad varint, string reference out of range).
// Unlike ErrTorn this is not a crash artifact — the bytes were written
// that way — so replay fails loudly instead of silently truncating.
var errCorruptFrame = errors.New("wal: corrupt v2 frame body")

// appendFrame appends rec's v1 wire encoding to buf and returns the
// result. Codec v2 writers use segEncoder instead; this survives for the
// snapshot/segment format of v1 directories and for tests that fabricate
// them.
func appendFrame(buf []byte, rec Record) []byte {
	n := 1 + len(rec.Payload)
	off := len(buf)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	buf = append(buf, hdr[:]...)
	buf = append(buf, byte(rec.Type))
	buf = append(buf, rec.Payload...)
	crc := crc32.ChecksumIEEE(buf[off+frameHeader:])
	binary.LittleEndian.PutUint32(buf[off+4:off+8], crc)
	return buf
}

// readBody reads one frame envelope and returns its CRC-validated body.
// io.EOF means a clean end of the stream; ErrTorn means a partial or
// corrupt frame (stop replaying). Only truncation maps to ErrTorn — a
// real I/O error propagates, so recovery fails loudly instead of
// mistaking a bad read mid-segment for a crash tail and silently
// dropping the acknowledged records after it.
func readBody(r io.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, ErrTorn // partial header
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > MaxRecordBytes {
		return nil, ErrTorn
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrTorn // partial body
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrTorn
	}
	return body, nil
}

// readRecord reads one v1 frame. See readBody for the error contract.
func readRecord(r io.Reader) (Record, error) {
	body, err := readBody(r)
	if err != nil {
		return Record{}, err
	}
	return Record{Type: Type(body[0]), Payload: body[1:]}, nil
}

// segEncoder frames records for one v2 segment, owning its string intern
// table. It is not concurrency-safe: exactly one lives inside the
// committer goroutine per active segment (reset on rotation), and each
// snapshot file gets a private one.
type segEncoder struct {
	ids map[string]uint32
}

func newSegEncoder() *segEncoder { return &segEncoder{ids: make(map[string]uint32)} }

func (e *segEncoder) reset() { clear(e.ids) }

// appendFrame appends rec's v2 wire encoding to buf, interning rec's
// strings into the segment table as a side effect. Callers must not call
// it for a record that will not be written to the current segment — the
// table and the file advance together.
func (e *segEncoder) appendFrame(buf []byte, rec Record) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = append(buf, byte(rec.Type), byte(rec.Codec))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Strings)))
	for _, s := range rec.Strings {
		if id, ok := e.ids[s]; ok {
			buf = binary.AppendUvarint(buf, uint64(id)+1)
		} else {
			e.ids[s] = uint32(len(e.ids))
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	buf = append(buf, rec.Payload...)
	n := len(buf) - off - frameHeader
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(n))
	crc := crc32.ChecksumIEEE(buf[off+frameHeader:])
	binary.LittleEndian.PutUint32(buf[off+4:off+8], crc)
	return buf
}

// maxBodyBytes over-estimates rec's v2 body size assuming every string
// needs an inline definition — the bound used for the MaxRecordBytes
// guard and for the segment-roll decision, which must happen before
// encoding (encoding interns into the segment the frame lands in).
func maxBodyBytes(rec Record) int {
	n := 2 + binary.MaxVarintLen64 + len(rec.Payload)
	for _, s := range rec.Strings {
		n += 1 + binary.MaxVarintLen64 + len(s)
	}
	return n
}

// segDecoder reads one v2 file, rebuilding the intern table in the order
// the encoder grew it.
type segDecoder struct {
	strs []string
}

func newSegDecoder() *segDecoder { return &segDecoder{} }

// readRecord reads one v2 frame. Torn/EOF semantics match readBody; a
// CRC-valid body that fails structural parsing returns errCorruptFrame.
func (d *segDecoder) readRecord(r io.Reader) (Record, error) {
	body, err := readBody(r)
	if err != nil {
		return Record{}, err
	}
	if len(body) < 2 {
		return Record{}, fmt.Errorf("%w: %d-byte body", errCorruptFrame, len(body))
	}
	rec := Record{Type: Type(body[0]), Codec: Codec(body[1])}
	p := body[2:]
	nstr, n := binary.Uvarint(p)
	// Each string takes at least its one-byte reference: a count larger
	// than the bytes behind it is corrupt, and must not size the
	// allocation below.
	if n <= 0 || nstr > uint64(len(p)-n) {
		return Record{}, fmt.Errorf("%w: string count", errCorruptFrame)
	}
	p = p[n:]
	if nstr > 0 {
		rec.Strings = make([]string, nstr)
		for i := range rec.Strings {
			ref, n := binary.Uvarint(p)
			if n <= 0 {
				return Record{}, fmt.Errorf("%w: string ref", errCorruptFrame)
			}
			p = p[n:]
			if ref == 0 { // inline definition, extends the segment table
				ln, n := binary.Uvarint(p)
				if n <= 0 || ln > uint64(len(p)-n) {
					return Record{}, fmt.Errorf("%w: string definition", errCorruptFrame)
				}
				p = p[n:]
				s := string(p[:ln])
				p = p[ln:]
				d.strs = append(d.strs, s)
				rec.Strings[i] = s
			} else {
				if ref-1 >= uint64(len(d.strs)) {
					return Record{}, fmt.Errorf("%w: string ref %d of %d", errCorruptFrame, ref-1, len(d.strs))
				}
				rec.Strings[i] = d.strs[ref-1]
			}
		}
	}
	rec.Payload = p
	return rec, nil
}

// isV2Header reports whether b opens with the v2 segment magic.
func isV2Header(b []byte) bool { return bytes.Equal(b, segMagic[:]) }
