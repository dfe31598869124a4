package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// fuzzSource hands out values drawn from fuzz input; past its end every
// draw is zero, so any input builds a well-formed record.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) u8() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *fuzzSource) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], s.b)
	s.b = s.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// str draws a string of up to 15 raw bytes (not necessarily UTF-8: the
// binary codec carries bytes), or one of a few shared names, so records
// reuse the segment's intern table.
func (s *fuzzSource) str() string {
	n := int(s.u8())
	if n&0x10 != 0 {
		return [...]string{"urn:swamp:probe:1", "soilMoisture", "Number", "dev-1"}[n&3]
	}
	n &= 0x0f
	n = min(n, len(s.b))
	v := string(s.b[:n])
	s.b = s.b[n:]
	return v
}

func (s *fuzzSource) float() float64 {
	f := math.Float64frombits(s.u64())
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0 // the codecs refuse non-finite values, as encoding/json does
	}
	return f
}

// time draws a non-zero instant in the binary codec's range, in UTC or a
// fixed zone, as the decoder builds them.
func (s *fuzzSource) time() time.Time {
	t := time.Unix(0, int64(s.u64()|1))
	if off := [...]int{0, 3600, -10800, 19800}[s.u8()&3]; off != 0 {
		return t.In(time.FixedZone("", off))
	}
	return t.UTC()
}

func (s *fuzzSource) attrs() map[string]ngsi.Attribute {
	n := int(s.u8() % 5)
	if n == 0 {
		return nil
	}
	m := make(map[string]ngsi.Attribute, n-1)
	for i := 1; i < n; i++ {
		a := ngsi.Attribute{Type: s.str()}
		if s.u8()&1 == 1 {
			a.At = s.time()
		}
		if k := int(s.u8() % 3); k > 0 {
			a.Metadata = make(map[string]string, k)
			for j := 0; j < k; j++ {
				a.Metadata[s.str()] = s.str()
			}
		}
		switch s.u8() % 6 {
		case 1:
			a.Value = s.float()
		case 2:
			a.Value = s.str()
		case 3:
			a.Value = true
		case 4:
			a.Value = false
		case 5:
			a.Value = []any{s.float(), "x"}
		}
		m[s.str()] = a
	}
	return m
}

func (s *fuzzSource) strs() []string {
	n := int(s.u8() % 3)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = s.str()
	}
	return out
}

// fuzzRecords builds one typed value of every record type from data and
// encodes each. want[i] is what decoding records[i] must give back.
func fuzzRecords(t *testing.T, data []byte) (records []Record, want []any) {
	s := &fuzzSource{b: data}
	add := func(v any, rec Record, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		records, want = append(records, rec), append(want, v)
	}
	e := &ngsi.Entity{ID: s.str(), Type: s.str(), Attrs: s.attrs()}
	rec, err := EncodeEntityUpsert(e)
	add(e, rec, err)

	merge := make([]ngsi.MergeEntry, s.u8()%3)
	for i := range merge {
		merge[i] = ngsi.MergeEntry{ID: s.str(), Type: s.str(), Attrs: s.attrs()}
	}
	rec, err = EncodeEntityMerge(merge)
	add(merge, rec, err)

	id := s.str()
	rec, err = EncodeEntityDelete(id)
	add(id, rec, err)

	batch := make([]timeseries.BatchPoint, s.u8()%4)
	for i := range batch {
		batch[i] = timeseries.BatchPoint{
			Key:   timeseries.SeriesKey{Device: s.str(), Quantity: s.str()},
			Point: timeseries.Point{At: s.time(), Value: s.float()},
		}
	}
	rec, err = EncodeTelemetry(batch)
	add(batch, rec, err)

	sr := SubscriptionRecord{
		ID: s.str(), EntityIDPattern: s.str(), EntityType: s.str(),
		ConditionAttrs: s.strs(), NotifyAttrs: s.strs(),
		Throttling: time.Duration(s.u64()), Owner: s.str(), Endpoint: s.str(),
	}
	rec, err = EncodeSubscriptionPut(sr)
	add(sr, rec, err)

	sid := s.str()
	rec, err = EncodeSubscriptionDelete(sid)
	add(sid, rec, err)
	return records, want
}

// decodeTyped decodes rec with the typed decoder its Type names.
func decodeTyped(rec Record) (any, error) {
	switch rec.Type {
	case TypeEntityUpsert:
		return DecodeEntityUpsert(rec)
	case TypeEntityMerge:
		return DecodeEntityMerge(rec)
	case TypeEntityDelete, TypeSubscriptionDelete:
		return DecodeID(rec)
	case TypeSubscriptionPut:
		return DecodeSubscriptionPut(rec)
	case TypeTelemetry:
		return DecodeTelemetry(rec)
	}
	return nil, errors.New("unknown record type")
}

// FuzzWALSegment checks the v2 segment frame codec two ways. Typed
// records of every kind built from the input come back equal through
// segEncoder.appendFrame, segDecoder.readRecord and the Decode*
// functions, all in one segment (so later records reference strings
// earlier ones defined). And the input itself, read as the bytes behind
// a segment's magic, ends in records, io.EOF, ErrTorn or errCorruptFrame
// without a panic, whatever the typed decoders make of what it yields.
func FuzzWALSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		records, want := fuzzRecords(t, data)
		enc := newSegEncoder()
		var seg []byte
		for _, rec := range records {
			seg = enc.appendFrame(seg, rec)
		}
		dec := newSegDecoder()
		r := bytes.NewReader(seg)
		for i, w := range want {
			rec, err := dec.readRecord(r)
			if err != nil {
				t.Fatalf("record %d (%T): %v", i, w, err)
			}
			got, err := decodeTyped(rec)
			if err != nil {
				t.Fatalf("record %d (%T): %v", i, w, err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("record %d round trip changed it:\n got %#v\nwant %#v", i, got, w)
			}
		}
		if _, err := dec.readRecord(r); err != io.EOF {
			t.Fatalf("after the last record: %v, want io.EOF", err)
		}

		dec, r = newSegDecoder(), bytes.NewReader(data)
		for {
			rec, err := dec.readRecord(r)
			if err != nil {
				if err != io.EOF && err != ErrTorn && !errors.Is(err, errCorruptFrame) {
					t.Fatalf("arbitrary segment bytes ended in %v", err)
				}
				return
			}
			_, _ = decodeTyped(rec)
		}
	})
}

// frame wraps body in a CRC-valid v2 frame envelope.
func frame(body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// TestSegmentStringCountBoundedByFrame: a CRC-valid body whose string
// count is larger than the bytes behind it can back is refused before
// the count sizes an allocation. The body is 1 MiB of zeros (each string
// an empty inline definition, two bytes) behind a count of one string
// per body byte; decoding it allocates little more than the body.
func TestSegmentStringCountBoundedByFrame(t *testing.T) {
	const size = 1 << 20
	body := append([]byte{byte(TypeEntityDelete), byte(CodecBinary)}, binary.AppendUvarint(nil, size)...)
	body = append(body, make([]byte, size-len(body))...)
	raw := frame(body)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := newSegDecoder().readRecord(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errCorruptFrame) {
		t.Fatalf("decoding an unbacked string count: %v, want errCorruptFrame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*size {
		t.Fatalf("decoding a %d-byte body allocated %d bytes", len(body), got)
	}
}
