package timeseries

import (
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
)

// TestSetMaxAgeEnablesRetentionLate covers the reload path: a store built
// without retention (no eviction loop) gains a retention window at
// runtime, and the lazily-started loop evicts.
func TestSetMaxAgeEnablesRetentionLate(t *testing.T) {
	sim := clock.NewSim(t0)
	s := New(WithChunkSize(4), WithClock(sim))
	defer s.Close()
	k := key()
	for i := 0; i < 8; i++ {
		s.Append(k, Point{At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
	}
	if dropped := s.EvictExpired(); dropped != 0 {
		t.Fatalf("retention disabled but evicted %d points", dropped)
	}

	s.SetMaxAge(10 * time.Minute)
	if got := s.MaxAge(); got != 10*time.Minute {
		t.Fatalf("MaxAge = %v", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sim.PendingWaiters() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sim.Advance(time.Hour)
	for time.Now().Before(deadline) && s.Len(k) > 0 {
		time.Sleep(time.Millisecond)
	}
	if got := s.Len(k); got != 0 {
		t.Fatalf("late-enabled retention left %d points", got)
	}
}

// TestSetMaxAgeDisable pins that setting retention to 0 stops expiry
// without stopping the store.
func TestSetMaxAgeDisable(t *testing.T) {
	sim := clock.NewSim(t0.Add(30 * time.Minute))
	s := New(WithChunkSize(4), WithMaxAge(10*time.Minute), WithClock(sim))
	defer s.Close()
	k := key()
	for i := 0; i < 4; i++ {
		s.Append(k, Point{At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
	}
	s.SetMaxAge(0)
	if dropped := s.EvictExpired(); dropped != 0 {
		t.Fatalf("disabled retention still evicted %d points", dropped)
	}
	if got := s.Len(k); got != 4 {
		t.Fatalf("points lost after disable: %d", got)
	}
}

// TestShortRetentionEvictsEveryWindow: a retention window under a minute
// sets the eviction cadence itself, so an expired point is gone one window
// later rather than up to a minute later.
func TestShortRetentionEvictsEveryWindow(t *testing.T) {
	sim := clock.NewSim(t0)
	s := New(WithMaxAge(10*time.Second), WithClock(sim))
	defer s.Close()
	k := key()
	s.Append(k, Point{At: t0, Value: 1})
	deadline := time.Now().Add(2 * time.Second)
	for sim.PendingWaiters() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sim.Advance(11 * time.Second)
	for time.Now().Before(deadline) && s.Len(k) > 0 {
		time.Sleep(time.Millisecond)
	}
	if got := s.Len(k); got != 0 {
		t.Fatalf("%d points outlived a 10s retention by one window", got)
	}
}
