package oauth

import (
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
)

// waitWaiters blocks until the sim clock has n registered timers — the
// only reliable way to know the purge loop has (re-)armed its After.
func waitWaiters(t *testing.T, sim *clock.Sim, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sim.PendingWaiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("purge loop never armed %d timer(s)", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPurgeLoopReclaimsOnSimClock(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	s := NewServer(newIDM(t), Config{Clock: sim})
	defer s.Close()
	s.StartPurge(30 * time.Second)
	waitWaiters(t, sim, 1)

	tok, err := s.GrantPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	tok2, err := s.GrantPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if s.LiveTokens() != 2 {
		t.Fatalf("live = %d, want 2", s.LiveTokens())
	}

	// One interval: nothing has expired, nothing is reclaimed.
	sim.Advance(31 * time.Second)
	waitWaiters(t, sim, 1) // loop re-armed => purge pass finished
	if s.LiveTokens() != 2 {
		t.Fatalf("live after first pass = %d, want 2", s.LiveTokens())
	}

	// Revoke one; the next pass reclaims it while the other stays.
	if err := s.Revoke(tok2.Value); err != nil {
		t.Fatal(err)
	}
	sim.Advance(31 * time.Second)
	waitWaiters(t, sim, 1)
	if s.LiveTokens() != 1 {
		t.Fatalf("live after revoke pass = %d, want 1", s.LiveTokens())
	}

	// Past the TTL the remaining token is expired and reclaimed too.
	sim.Advance(tokenTTL + time.Minute)
	waitWaiters(t, sim, 1)
	if s.LiveTokens() != 0 {
		t.Fatalf("live after expiry pass = %d, want 0", s.LiveTokens())
	}
	if _, err := s.Introspect(tok.Value); err != ErrInvalidToken {
		t.Fatalf("purged token introspects as %v, want ErrInvalidToken", err)
	}

	// Close stops the loop; further advances must not panic or purge.
	s.Close()
}

func TestPurgeLoopZeroIntervalIsNoop(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	s := NewServer(newIDM(t), Config{Clock: sim})
	s.StartPurge(0)
	if sim.PendingWaiters() != 0 {
		t.Fatal("zero interval should not start a loop")
	}
	s.Close() // must not hang
}
