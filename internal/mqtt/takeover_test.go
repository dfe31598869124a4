package mqtt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestSessionTakeoverNoDeliveryToDisplaced: after a reconnect with the same
// client id, the displaced transport must receive no further publishes and
// the broker must track exactly the new session.
func TestSessionTakeoverNoDeliveryToDisplaced(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()

	old := attachScripted(t, b, "dev", "tk/#", 0)
	pub := newTestPair(t, b, "pub")
	if err := pub.Publish("tk/x", []byte("before"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return old.publishCount() == 1 })

	// Reconnect with the same id displaces the old transport.
	fresh := attachScripted(t, b, "dev", "tk/#", 0)
	waitFor(t, time.Second, func() bool {
		select {
		case <-old.closed:
			return true
		default:
			return false
		}
	})
	if b.SessionCount() != 2 { // dev + pub
		t.Errorf("session count = %d, want 2", b.SessionCount())
	}

	for i := 0; i < 5; i++ {
		if err := pub.Publish("tk/x", []byte(fmt.Sprintf("after%d", i)), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return fresh.publishCount() == 5 })
	if got := old.publishCount(); got != 1 {
		t.Errorf("displaced transport received %d publishes, want only the pre-takeover 1", got)
	}
}

// TestSessionTakeoverStorm: reconnects with the same client id racing a
// live QoS 1 publish stream. Run under -race; asserts the broker converges
// to one live session for the id and that its pending map drains (no
// per-displacement leak).
func TestSessionTakeoverStorm(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()

	pub := newTestPair(t, b, "storm-pub")
	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// AckTimeout failures are fine mid-storm; keep publishing.
			_ = pub.Publish("storm/x", []byte{byte(i)}, 1, false)
		}
	}()

	var delivered atomic.Int32
	for i := 0; i < 25; i++ {
		c := newTestPairCfg(t, b, ClientConfig{ClientID: "dev", AckTimeout: 500 * time.Millisecond})
		// The subscribe can lose the race with the next takeover; that is
		// the point of the storm.
		_, _ = c.Subscribe("storm/#", 1, func(Message) { delivered.Add(1) })
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	<-pubDone

	waitFor(t, 2*time.Second, func() bool { return b.SessionCount() == 2 }) // storm-pub + last dev
	b.sessMu.RLock()
	s := b.sessions["dev"]
	b.sessMu.RUnlock()
	if s == nil {
		t.Fatal("no surviving dev session")
	}
	// The survivor's pending map must drain: the client acks every
	// delivery written to it.
	waitFor(t, 3*time.Second, func() bool {
		s.mu.Lock()
		n := len(s.pending)
		s.mu.Unlock()
		return n == 0
	})
}
