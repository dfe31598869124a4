package mqtt

import (
	"errors"
	"net"
	"os"
	"testing"
	"testing/quick"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
)

// TestBrokerKeepaliveExpiry: a client that stops talking past 1.5× its
// keepalive is dropped by the broker's watchdog.
func TestBrokerKeepaliveExpiry(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	b := NewBroker(BrokerConfig{Clock: sim})
	defer b.Close()
	// Hand-roll the connect so no ping loop runs; the CONNECT advertises 1
	// second, so the broker expects traffic.
	if _, code := dialRaw(t, b, &Packet{Type: CONNECT, ClientID: "quiet", KeepAliveSec: 1}); code != ConnAccepted {
		t.Fatalf("handshake refused: 0x%02x", code)
	}
	waitFor(t, time.Second, func() bool { return b.SessionCount() == 1 })
	// One tick is not yet 1.5× the keepalive; silence past it is.
	waitFor(t, time.Second, func() bool { return sim.PendingWaiters() == 1 })
	sim.Advance(keepaliveTick)
	waitFor(t, time.Second, func() bool { return sim.PendingWaiters() == 1 })
	if b.SessionCount() != 1 {
		t.Fatal("session dropped after one second of silence")
	}
	advanceUntil(t, sim, func() bool { return b.SessionCount() == 0 })
}

// TestBrokerSurvivesGarbage: random byte blobs thrown at the broker as
// "first packets" must be rejected without panicking or leaking sessions.
func TestBrokerSurvivesGarbage(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	f := func(blob []byte) bool {
		client, server := net.Pipe()
		defer client.Close()
		b.AttachConn(server)
		_, _ = client.Write(blob) // raw bytes, bypassing the codec; the broker may hang up first
		time.Sleep(time.Millisecond)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := b.SessionCount(); n != 0 {
		t.Errorf("%d sessions leaked from garbage connects", n)
	}
}

// TestBrokerRejectsNonConnectFirst: the first packet must be CONNECT.
func TestBrokerRejectsNonConnectFirst(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	p := attachRaw(t, b)
	p.send(&Packet{Type: PUBLISH, Topic: "x", Payload: []byte("y")})
	// The broker must close the connection; the next read fails.
	if err := p.conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if pkt, err := ReadPacket(p.r); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("broker kept a session that never sent CONNECT: read %+v, %v", pkt, err)
	}
}

// TestBrokerRejectsEmptyClientID per MQTT 3.1.1 with clean-session
// identifiers required in this implementation.
func TestBrokerRejectsEmptyClientID(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	if _, code := dialRaw(t, b, &Packet{Type: CONNECT, ClientID: ""}); code != ConnRefusedIdentifier {
		t.Errorf("empty client id answered CONNACK code %d", code)
	}
	waitFor(t, time.Second, func() bool { return b.SessionCount() == 0 })
}

// TestDecodeFuzzNoPanic feeds random blobs to the packet decoder.
func TestDecodeFuzzNoPanic(t *testing.T) {
	f := func(blob []byte) bool {
		_, _ = Decode(blob) // must not panic; errors are fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRetainedReplacedNotDuplicated: re-publishing a retained topic keeps
// exactly one retained message with the newest payload.
func TestRetainedReplacedNotDuplicated(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	pub := newTestPair(t, b, "r-pub")
	for i := 0; i < 5; i++ {
		if err := pub.Publish("cfg/x", []byte{byte('0' + i)}, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return b.RetainedCount() == 1 })
	sub := newTestPair(t, b, "r-sub")
	got := make(chan Message, 4)
	if _, err := sub.Subscribe("cfg/x", 0, func(m Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Payload) != "4" {
			t.Errorf("retained payload %q, want newest \"4\"", m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("no retained delivery")
	}
	select {
	case m := <-got:
		t.Fatalf("duplicate retained delivery: %q", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestManyClientsFanOut: one publish reaches dozens of subscribers.
func TestManyClientsFanOut(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	const n = 40
	got := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		c := newTestPair(t, b, "fan-sub-"+string(rune('a'+i%26))+string(rune('0'+i/26)))
		if _, err := c.Subscribe("fan/#", 0, func(Message) { got <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
	}
	pub := newTestPair(t, b, "fan-pub")
	if err := pub.Publish("fan/x", []byte("v"), 0, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d/%d subscribers reached", i, n)
		}
	}
}
