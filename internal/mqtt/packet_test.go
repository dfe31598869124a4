package mqtt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	raw, err := p.Encode()
	if err != nil {
		t.Fatalf("encode %v: %v", p.Type, err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode %v: %v", p.Type, err)
	}
	return got
}

func TestPacketRoundTripConnect(t *testing.T) {
	tests := []Packet{
		{Type: CONNECT, ClientID: "dev-1", KeepAliveSec: 30, CleanSession: true},
		{Type: CONNECT, ClientID: "dev-2", Username: "u", Password: "p", KeepAliveSec: 0},
		{Type: CONNECT, ClientID: "dev-3", Username: "only-user"},
	}
	for _, tc := range tests {
		got := roundTrip(t, &tc)
		if got.ClientID != tc.ClientID || got.Username != tc.Username ||
			got.Password != tc.Password || got.KeepAliveSec != tc.KeepAliveSec ||
			got.CleanSession != tc.CleanSession {
			t.Errorf("CONNECT round trip: got %+v want %+v", got, tc)
		}
	}
}

func TestPacketRoundTripPublish(t *testing.T) {
	tests := []Packet{
		{Type: PUBLISH, Topic: "swamp/farm1/soil", Payload: []byte("m|0.23"), QoS: 0},
		{Type: PUBLISH, Topic: "a/b/c", Payload: nil, QoS: 1, PacketID: 77, Retain: true},
		{Type: PUBLISH, Topic: "x", Payload: bytes.Repeat([]byte{0xAB}, 300), QoS: 1, PacketID: 1, Dup: true},
	}
	for _, tc := range tests {
		got := roundTrip(t, &tc)
		if got.Topic != tc.Topic || !bytes.Equal(got.Payload, tc.Payload) ||
			got.QoS != tc.QoS || got.Retain != tc.Retain || got.Dup != tc.Dup {
			t.Errorf("PUBLISH round trip: got %+v want %+v", got, tc)
		}
		if tc.QoS > 0 && got.PacketID != tc.PacketID {
			t.Errorf("PUBLISH packet id: got %d want %d", got.PacketID, tc.PacketID)
		}
	}
}

func TestPacketRoundTripSubscribe(t *testing.T) {
	p := Packet{Type: SUBSCRIBE, PacketID: 9, Filters: []Subscription{
		{Filter: "swamp/+/soil", QoS: 1},
		{Filter: "swamp/#", QoS: 0},
	}}
	got := roundTrip(t, &p)
	if got.PacketID != 9 || !reflect.DeepEqual(got.Filters, p.Filters) {
		t.Errorf("SUBSCRIBE round trip: got %+v want %+v", got, p)
	}
}

func TestPacketRoundTripControl(t *testing.T) {
	for _, typ := range []PacketType{PINGREQ, PINGRESP, DISCONNECT} {
		p := Packet{Type: typ}
		got := roundTrip(t, &p)
		if got.Type != typ {
			t.Errorf("round trip %v: got %v", typ, got.Type)
		}
	}
	ack := Packet{Type: CONNACK, ReturnCode: ConnRefusedBadAuth, SessionPresent: true}
	got := roundTrip(t, &ack)
	if got.ReturnCode != ConnRefusedBadAuth || !got.SessionPresent {
		t.Errorf("CONNACK round trip: got %+v", got)
	}
	pa := Packet{Type: PUBACK, PacketID: 55}
	if got := roundTrip(t, &pa); got.PacketID != 55 {
		t.Errorf("PUBACK round trip: got %+v", got)
	}
	sa := Packet{Type: SUBACK, PacketID: 3, GrantedQoS: []byte{1, 0x80}}
	got = roundTrip(t, &sa)
	if got.PacketID != 3 || !bytes.Equal(got.GrantedQoS, sa.GrantedQoS) {
		t.Errorf("SUBACK round trip: got %+v", got)
	}
	ua := Packet{Type: UNSUBSCRIBE, PacketID: 4, Filters: []Subscription{{Filter: "a/b"}}}
	got = roundTrip(t, &ua)
	if got.PacketID != 4 || len(got.Filters) != 1 || got.Filters[0].Filter != "a/b" {
		t.Errorf("UNSUBSCRIBE round trip: got %+v", got)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	bad := []Packet{
		{Type: PUBLISH, Topic: "has/+/wildcard", QoS: 0},
		{Type: PUBLISH, Topic: "", QoS: 0},
		{Type: PUBLISH, Topic: "t", QoS: 2},
		{Type: SUBSCRIBE, PacketID: 1},
		{Type: SUBSCRIBE, PacketID: 1, Filters: []Subscription{{Filter: "a/#/b"}}},
		{Type: PacketType(0)},
	}
	for i, p := range bad {
		if _, err := p.Encode(); err == nil {
			t.Errorf("case %d: encode of invalid packet succeeded", i)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	good, err := (&Packet{Type: PUBLISH, Topic: "a/b", Payload: []byte("xyz"), QoS: 1, PacketID: 5}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(good); n++ {
		if _, err := Decode(good[:n]); err == nil {
			t.Errorf("decode of %d/%d-byte prefix succeeded", n, len(good))
		}
	}
	// Trailing garbage must also fail.
	if _, err := Decode(append(append([]byte{}, good...), 0x00)); err == nil {
		t.Error("decode with trailing byte succeeded")
	}
}

// TestPublishRoundTripProperty drives the PUBLISH codec with random topics
// and payloads.
func TestPublishRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(payload []byte, id uint16, qosBit, retain bool) bool {
		topicLevels := 1 + rng.Intn(4)
		topic := ""
		for i := 0; i < topicLevels; i++ {
			if i > 0 {
				topic += "/"
			}
			topic += string(rune('a' + rng.Intn(26)))
		}
		var qos byte
		if qosBit {
			qos = 1
		}
		if id == 0 {
			id = 1
		}
		p := Packet{Type: PUBLISH, Topic: topic, Payload: payload, QoS: qos, PacketID: id, Retain: retain}
		raw, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		if err != nil {
			return false
		}
		if got.Topic != topic || got.QoS != qos || got.Retain != retain {
			return false
		}
		if len(payload) == 0 {
			return len(got.Payload) == 0
		}
		return bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRemainingLengthBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 2_097_151, 2_097_152} {
		var buf bytes.Buffer
		writeRemainingLength(&buf, n)
		got, err := readRemainingLength(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got != n {
			t.Errorf("remaining length %d: got %d", n, got)
		}
	}
}

// totalAlloc reads the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestReadPacketBoundsBodyAlloc: a remaining length is a claim any peer can
// make before CONNECT is parsed, so the body's buffer grows with the bytes
// that arrive, not with the claim — the 256 MiB header followed by nothing
// costs under 1 MiB whether the peer hangs up or stalls — while a packet
// that is that large in fact still decodes.
func TestReadPacketBoundsBodyAlloc(t *testing.T) {
	claim := []byte{byte(PUBLISH) << 4, 0xff, 0xff, 0xff, 0x7f}
	const bound = 1 << 20

	before := totalAlloc()
	_, err := ReadPacket(bytes.NewReader(claim))
	if grew := totalAlloc() - before; grew >= bound {
		t.Errorf("header then EOF: allocated %d bytes", grew)
	}
	if !errors.Is(err, ErrMalformed) {
		t.Errorf("header then EOF: err = %v, want ErrMalformed", err)
	}

	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	before = totalAlloc()
	go func() {
		_, err := newStream(server).readPacket()
		done <- err
	}()
	if _, err := client.Write(claim); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("read returned %v while the peer still holds the connection", err)
	case <-time.After(50 * time.Millisecond):
	}
	if grew := totalAlloc() - before; grew >= bound {
		t.Errorf("header then a stalled peer: allocated %d bytes", grew)
	}
	client.Close()
	if err := <-done; !errors.Is(err, ErrMalformed) {
		t.Errorf("header then hang-up: err = %v, want ErrMalformed", err)
	}

	big := &Packet{Type: PUBLISH, Topic: "big", Payload: bytes.Repeat([]byte("0123456789abcdef"), 1<<16), QoS: 1, PacketID: 9}
	raw, err := big.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Through a reader with no ReadByte of its own, in small pieces.
	got, err := ReadPacket(smallReads{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Topic != big.Topic || got.PacketID != 9 || !bytes.Equal(got.Payload, big.Payload) {
		t.Errorf("1 MiB publish came back as topic %q id %d with %d payload bytes", got.Topic, got.PacketID, len(got.Payload))
	}
}

// smallReads hands out at most 1000 bytes a Read, as a socket would.
type smallReads struct{ r io.Reader }

func (i smallReads) Read(p []byte) (int, error) { return i.r.Read(p[:min(len(p), 1000)]) }

// TestPublishPayloadAliasesOnlyItsBody: Payload points into the buffer
// ReadPacket allocated for this packet's body — not into the reader's, which
// the next packet overwrites — and has no spare capacity, so an append cannot
// write over anything.
func TestPublishPayloadAliasesOnlyItsBody(t *testing.T) {
	raw, err := (&Packet{Type: PUBLISH, Topic: "a/b", Payload: []byte("xyz"), QoS: 1, PacketID: 5}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	src := append([]byte(nil), raw...)
	p, err := Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 0xee
	}
	if string(p.Payload) != "xyz" || p.Topic != "a/b" {
		t.Errorf("decoded packet changed with its source: topic %q payload %q", p.Topic, p.Payload)
	}
	if cap(p.Payload) != len(p.Payload) {
		t.Errorf("payload has %d bytes of capacity beyond its %d", cap(p.Payload)-len(p.Payload), len(p.Payload))
	}
}
