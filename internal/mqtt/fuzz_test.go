package mqtt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// fuzzVectors are the packets packet_test.go round-trips, the seeds of
// FuzzReadPacket and of the committed corpus under testdata/fuzz.
var fuzzVectors = []Packet{
	{Type: CONNECT, ClientID: "dev-1", KeepAliveSec: 30, CleanSession: true},
	{Type: CONNECT, ClientID: "dev-2", Username: "u", Password: "p"},
	{Type: CONNECT, ClientID: "dev-3", Username: "only-user"},
	{Type: CONNACK, ReturnCode: ConnRefusedBadAuth, SessionPresent: true},
	{Type: PUBLISH, Topic: "swamp/farm1/soil", Payload: []byte("m|0.23")},
	{Type: PUBLISH, Topic: "a/b/c", QoS: 1, PacketID: 77, Retain: true},
	{Type: PUBLISH, Topic: "x", Payload: bytes.Repeat([]byte{0xAB}, 300), QoS: 1, PacketID: 1, Dup: true},
	{Type: PUBLISH, Topic: "a/b", Payload: []byte("xyz"), QoS: 1, PacketID: 5},
	{Type: PUBACK, PacketID: 55},
	{Type: SUBSCRIBE, PacketID: 9, Filters: []Subscription{{Filter: "swamp/+/soil", QoS: 1}, {Filter: "swamp/#"}}},
	{Type: SUBACK, PacketID: 3, GrantedQoS: []byte{1, 0x80}},
	{Type: UNSUBSCRIBE, PacketID: 4, Filters: []Subscription{{Filter: "a/b"}}},
	{Type: UNSUBACK, PacketID: 4},
	{Type: PINGREQ}, {Type: PINGRESP}, {Type: DISCONNECT},
}

// samePacket compares two decoded packets field by field; an empty slice
// and a nil one are the same payload.
func samePacket(a, b *Packet) bool {
	x, y := *a, *b
	if !bytes.Equal(x.Payload, y.Payload) || !bytes.Equal(x.GrantedQoS, y.GrantedQoS) {
		return false
	}
	x.Payload, y.Payload, x.GrantedQoS, y.GrantedQoS = nil, nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// FuzzReadPacket: on any input the decoder does not panic, allocates no more
// than a small multiple of the input's length plus a constant (a length
// field alone buys nothing), agrees with the previous decoder on accept or
// reject and on every field, hands out a payload an append cannot extend
// into the body, and every packet it accepts that Encode will encode decodes
// back to itself.
func FuzzReadPacket(f *testing.F) {
	for i := range fuzzVectors {
		raw, err := fuzzVectors[i].Encode()
		if err != nil {
			f.Fatal(err)
		}
		for n := 1; n <= len(raw); n++ {
			f.Add(raw[:n])
		}
		f.Add(append(raw[:len(raw):len(raw)], 0))
	}
	f.Add([]byte{0x30, 0xff, 0xff, 0xff, 0x7f})       // 256 MiB claimed, nothing sent
	f.Add([]byte{0x30, 0xff, 0xff, 0xff, 0xff, 0x01}) // remaining length overflow
	f.Add([]byte{0x34, 0x03, 0x00, 0x01, 'a'})        // QoS 2
	f.Add([]byte{0xf0, 0x00})                         // unknown type

	f.Fuzz(func(t *testing.T, in []byte) {
		before := totalAlloc()
		got, err := ReadPacket(bytes.NewReader(in))
		if grew, bound := totalAlloc()-before, uint64(4*len(in)+2*bodyChunk); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(in), grew, bound)
		}

		want, werr := oracleReadPacket(bytes.NewReader(in))
		if (err == nil) != (werr == nil) {
			t.Fatalf("decoder says %v, oracle says %v", err, werr)
		}
		if err != nil {
			if len(in) > 0 && !errors.Is(err, ErrMalformed) {
				t.Fatalf("rejected with %v, not ErrMalformed", err)
			}
			return
		}
		if !samePacket(got, want) {
			t.Fatalf("decoder %+v\n oracle %+v", got, want)
		}
		if cap(got.Payload) != len(got.Payload) || cap(got.GrantedQoS) != len(got.GrantedQoS) {
			t.Fatalf("aliased field has spare capacity: payload %d/%d, granted %d/%d",
				len(got.Payload), cap(got.Payload), len(got.GrantedQoS), cap(got.GrantedQoS))
		}
		raw, err := got.Encode()
		if err != nil {
			return // decodable but not encodable: a wildcard topic, no filters
		}
		again, err := Decode(raw)
		if err != nil {
			t.Fatalf("re-decoding the encoding of %+v: %v", got, err)
		}
		if !samePacket(got, again) {
			t.Fatalf("round trip changed %+v\n into %+v", got, again)
		}
	})
}

// oracleReadPacket is the decoder as it stood before it parsed by index —
// header bytes through io.ReadFull, the body through a bytes.Reader, payload
// and strings copied out — kept as the reference FuzzReadPacket compares
// against. Its one departure: a body longer than the input is refused before
// it is allocated (the original allocated first, which is the bug
// TestReadPacketBoundsBodyAlloc covers).
func oracleReadPacket(r *bytes.Reader) (*Packet, error) {
	var hdr [1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // propagate io.EOF for clean shutdown detection
	}
	pt := PacketType(hdr[0] >> 4)
	flags := hdr[0] & 0x0f

	rl, err := oracleRemainingLength(r)
	if err != nil {
		return nil, err
	}
	if rl > r.Len() {
		return nil, fmt.Errorf("%w: short body", ErrMalformed)
	}
	body := make([]byte, rl)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: short body: %v", ErrMalformed, err)
	}
	return oracleDecodeBody(pt, flags, body)
}

func oracleDecodeBody(pt PacketType, flags byte, body []byte) (*Packet, error) {
	p := &Packet{Type: pt}
	buf := bytes.NewReader(body)

	switch pt {
	case CONNECT:
		name, err := oracleString(buf)
		if err != nil {
			return nil, err
		}
		if name != protocolName {
			return nil, fmt.Errorf("%w: protocol name %q", ErrMalformed, name)
		}
		level, err := buf.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: missing protocol level", ErrMalformed)
		}
		if level != protocolLevel {
			return nil, fmt.Errorf("%w: protocol level %d", ErrMalformed, level)
		}
		cf, err := buf.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: missing connect flags", ErrMalformed)
		}
		p.CleanSession = cf&0x02 != 0
		ka, err := oracleUint16(buf)
		if err != nil {
			return nil, err
		}
		p.KeepAliveSec = ka
		if p.ClientID, err = oracleString(buf); err != nil {
			return nil, err
		}
		if cf&0x80 != 0 {
			if p.Username, err = oracleString(buf); err != nil {
				return nil, err
			}
		}
		if cf&0x40 != 0 {
			if p.Password, err = oracleString(buf); err != nil {
				return nil, err
			}
		}

	case CONNACK:
		if len(body) != 2 {
			return nil, fmt.Errorf("%w: CONNACK body %d bytes", ErrMalformed, len(body))
		}
		p.SessionPresent = body[0]&1 != 0
		p.ReturnCode = body[1]

	case PUBLISH:
		p.Dup = flags&0x08 != 0
		p.QoS = (flags >> 1) & 0x03
		p.Retain = flags&0x01 != 0
		if p.QoS > 1 {
			return nil, fmt.Errorf("%w: QoS %d unsupported", ErrMalformed, p.QoS)
		}
		topic, err := oracleString(buf)
		if err != nil {
			return nil, err
		}
		p.Topic = topic
		if p.QoS > 0 {
			if p.PacketID, err = oracleUint16(buf); err != nil {
				return nil, err
			}
		}
		p.Payload = make([]byte, buf.Len())
		if _, err := io.ReadFull(buf, p.Payload); err != nil {
			return nil, fmt.Errorf("%w: payload: %v", ErrMalformed, err)
		}

	case PUBACK, UNSUBACK:
		id, err := oracleUint16(buf)
		if err != nil {
			return nil, err
		}
		p.PacketID = id

	case SUBSCRIBE:
		id, err := oracleUint16(buf)
		if err != nil {
			return nil, err
		}
		p.PacketID = id
		for buf.Len() > 0 {
			f, err := oracleString(buf)
			if err != nil {
				return nil, err
			}
			q, err := buf.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: missing subscribe QoS", ErrMalformed)
			}
			p.Filters = append(p.Filters, Subscription{Filter: f, QoS: q})
		}
		if len(p.Filters) == 0 {
			return nil, fmt.Errorf("%w: SUBSCRIBE with no filters", ErrMalformed)
		}

	case SUBACK:
		id, err := oracleUint16(buf)
		if err != nil {
			return nil, err
		}
		p.PacketID = id
		p.GrantedQoS = make([]byte, buf.Len())
		if _, err := io.ReadFull(buf, p.GrantedQoS); err != nil {
			return nil, fmt.Errorf("%w: SUBACK codes: %v", ErrMalformed, err)
		}

	case UNSUBSCRIBE:
		id, err := oracleUint16(buf)
		if err != nil {
			return nil, err
		}
		p.PacketID = id
		for buf.Len() > 0 {
			f, err := oracleString(buf)
			if err != nil {
				return nil, err
			}
			p.Filters = append(p.Filters, Subscription{Filter: f})
		}

	case PINGREQ, PINGRESP, DISCONNECT:
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: %v with body", ErrMalformed, pt)
		}

	default:
		return nil, fmt.Errorf("%w: unknown packet type %d", ErrMalformed, pt)
	}
	return p, nil
}

func oracleUint16(r *bytes.Reader) (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("%w: short uint16", ErrMalformed)
	}
	return uint16(b[0])<<8 | uint16(b[1]), nil
}

func oracleString(r *bytes.Reader) (string, error) {
	n, err := oracleUint16(r)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("%w: short string", ErrMalformed)
	}
	return string(b), nil
}

func oracleRemainingLength(r io.Reader) (int, error) {
	mult := 1
	val := 0
	var b [1]byte
	for i := 0; i < 4; i++ {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, fmt.Errorf("%w: short remaining length", ErrMalformed)
		}
		val += int(b[0]&0x7f) * mult
		if b[0]&0x80 == 0 {
			return val, nil
		}
		mult *= 128
	}
	return 0, fmt.Errorf("%w: remaining length overflow", ErrMalformed)
}
