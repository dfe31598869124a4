package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
)

// verifySeries checks the full-series invariants through the public API:
// sorted order, completeness, and summary agreement with a naive recompute.
func verifySeries(t *testing.T, s *Store, k SeriesKey, wantN int) {
	t.Helper()
	pts := s.Range(k, time.Time{}, t0.Add(1000*time.Hour))
	if len(pts) != wantN {
		t.Fatalf("Range returned %d points, want %d", len(pts), wantN)
	}
	if s.Len(k) != wantN {
		t.Fatalf("Len = %d, want %d", s.Len(k), wantN)
	}
	agg := Aggregate{Min: math.Inf(1), Max: math.Inf(-1)}
	for i, p := range pts {
		if i > 0 && p.At.Before(pts[i-1].At) {
			t.Fatalf("points out of order at %d", i)
		}
		agg.addPoint(p.Value)
	}
	agg.finalize()
	got := s.Summarize(k, time.Time{}, t0.Add(1000*time.Hour))
	if got.Count != agg.Count || got.Min != agg.Min || got.Max != agg.Max ||
		math.Abs(got.Sum-agg.Sum) > 1e-9*(1+math.Abs(agg.Sum)) {
		t.Fatalf("Summarize = %+v, recompute = %+v", got, agg)
	}
}

// Out-of-order appends that land inside already-sealed chunks must rebuild
// the covering chunk (keeping it immutable for concurrent snapshots) and
// keep summaries exact.
func TestOutOfOrderAcrossChunkBoundaries(t *testing.T) {
	s := New(WithChunkSize(4), WithShards(2))
	k := key()
	// 16 in-order points → 4 sealed chunks, empty head.
	for i := 0; i < 16; i++ {
		if err := s.Append(k, Point{At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SealedChunks != 4 {
		t.Fatalf("sealed chunks = %d, want 4", st.SealedChunks)
	}
	// Late arrivals into chunk 0 (before everything), chunk 1 interior, and
	// the last chunk's interior.
	late := []time.Duration{-30 * time.Second, 4*time.Minute + 30*time.Second, 14*time.Minute + 30*time.Second}
	for _, d := range late {
		if err := s.Append(k, Point{At: t0.Add(d), Value: 100}); err != nil {
			t.Fatal(err)
		}
	}
	verifySeries(t, s, k, 19)
	// The earliest point must now be the backfilled one.
	pts := s.Range(k, t0.Add(-time.Hour), t0.Add(time.Hour))
	if pts[0].Value != 100 || !pts[0].At.Equal(t0.Add(-30*time.Second)) {
		t.Errorf("first point = %+v", pts[0])
	}
}

// Sustained backfill into one sealed region must split oversized chunks so
// edge scans stay bounded.
func TestHeavyBackfillSplitsChunks(t *testing.T) {
	s := New(WithChunkSize(4))
	k := key()
	for i := 0; i < 8; i++ {
		s.Append(k, Point{At: t0.Add(time.Duration(i) * time.Hour), Value: float64(i)})
	}
	// 40 points squeezed between hour 0 and hour 1 — all land in chunk 0.
	for i := 0; i < 40; i++ {
		s.Append(k, Point{At: t0.Add(time.Duration(i+1) * time.Minute), Value: float64(i)})
	}
	verifySeries(t, s, k, 48)
	st := s.Stats()
	if st.SealedChunks < 5 {
		t.Errorf("sealed chunks = %d; backfilled chunk never split", st.SealedChunks)
	}
}

// Count-based retention over sealed chunks is chunk-granular: the oldest
// chunk drops once it is entirely over the cap, so the series oscillates
// between the cap and cap+chunkSize — and steady-state appends stay O(1)
// instead of rebuilding the oldest chunk per point.
func TestRetentionAcrossChunks(t *testing.T) {
	const cap, chunkSize = 10, 4
	s := New(WithChunkSize(chunkSize), WithMaxPointsPerSeries(cap))
	k := key()
	for i := 0; i < 25; i++ {
		s.Append(k, Point{At: t0.Add(time.Duration(i) * time.Second), Value: float64(i)})
		if got := s.Len(k); got > cap+chunkSize {
			t.Fatalf("append %d: cap overshoot, %d points", i, got)
		}
	}
	// 25 in-order appends, seal every 4, drop chunk 0 whenever over ≥ 4:
	// chunks [0-3],[4-7],[8-11] drop along the way, leaving [12..24].
	if got := s.Len(k); got != 13 {
		t.Fatalf("retention kept %d points, want 13", got)
	}
	pts := s.Range(k, t0, t0.Add(time.Hour))
	if pts[0].Value != 12 || pts[len(pts)-1].Value != 24 {
		t.Errorf("survivors [%g..%g], want [12..24]", pts[0].Value, pts[len(pts)-1].Value)
	}
}

// Retention and out-of-order appends together: backfilled points land in
// sealed territory while the cap keeps dropping oldest chunks. The series
// must stay sorted, self-consistent, and bounded within one chunk of the
// cap after every single append.
func TestRetentionWithBackfill(t *testing.T) {
	const cap, chunkSize = 8, 4
	s := New(WithChunkSize(chunkSize), WithMaxPointsPerSeries(cap))
	k := key()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(rng.Intn(500)) * time.Second)
		if err := s.Append(k, Point{At: at, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
		n := s.Len(k)
		// Chunk-granular slack: backfill-rebuilt chunks may hold up to
		// 2×chunkSize points (the split threshold), so the cap overshoot
		// is bounded by one such chunk.
		if n > cap+2*chunkSize-1 {
			t.Fatalf("append %d: cap overshoot, %d points", i, n)
		}
		if i >= cap && n < cap {
			t.Fatalf("append %d: dropped below the cap, %d points", i, n)
		}
	}
	verifySeries(t, s, k, s.Len(k))
	pts := s.Range(k, time.Time{}, t0.Add(time.Hour))
	for i := 1; i < len(pts); i++ {
		if pts[i].At.Before(pts[i-1].At) {
			t.Fatalf("points out of order at %d", i)
		}
	}
}

// DeleteBefore must drop series it empties — churned devices must not leak
// map entries forever.
func TestDeleteBeforeDropsEmptiedSeries(t *testing.T) {
	s := New(WithChunkSize(4))
	kOld := SeriesKey{Device: "retired", Quantity: "x"}
	kLive := SeriesKey{Device: "live", Quantity: "x"}
	for i := 0; i < 10; i++ {
		s.Append(kOld, Point{At: t0.Add(time.Duration(i) * time.Second), Value: 1})
		s.Append(kLive, Point{At: t0.Add(time.Duration(i) * time.Hour), Value: 1})
	}
	dropped := s.DeleteBefore(t0.Add(5 * time.Hour))
	if dropped != 15 { // all 10 of retired + 5 of live
		t.Errorf("dropped %d, want 15", dropped)
	}
	keys := s.Keys()
	if len(keys) != 1 || keys[0] != kLive {
		t.Errorf("keys after delete = %v, want only %v", keys, kLive)
	}
	if st := s.Stats(); st.Series != 1 {
		t.Errorf("stats series = %d", st.Series)
	}
	// Deleting everything empties the store completely.
	s.DeleteBefore(t0.Add(1000 * time.Hour))
	if len(s.Keys()) != 0 {
		t.Errorf("keys not emptied: %v", s.Keys())
	}
}

// Age-based retention through the background eviction loop, driven by the
// simulated clock.
func TestMaxAgeBackgroundEviction(t *testing.T) {
	sim := clock.NewSim(t0)
	s := New(
		WithChunkSize(4),
		WithMaxAge(10*time.Minute),
		WithClock(sim),
	)
	defer s.Close()
	k := key()
	for i := 0; i < 8; i++ {
		s.Append(k, Point{At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
	}
	// Wait for the eviction loop to arm its timer, then jump far past the
	// retention horizon.
	deadline := time.Now().Add(2 * time.Second)
	for sim.PendingWaiters() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sim.Advance(time.Hour)
	for time.Now().Before(deadline) && s.Len(k) > 0 {
		time.Sleep(time.Millisecond)
	}
	if got := s.Len(k); got != 0 {
		t.Fatalf("eviction left %d points", got)
	}
	if len(s.Keys()) != 0 {
		t.Errorf("emptied series not dropped: %v", s.Keys())
	}
}

// EvictExpired is the synchronous arm of age-based retention.
func TestEvictExpiredManual(t *testing.T) {
	sim := clock.NewSim(t0.Add(30 * time.Minute))
	s := New(WithChunkSize(4), WithMaxAge(10*time.Minute), WithClock(sim))
	defer s.Close()
	k := key()
	for i := 0; i < 12; i++ {
		s.Append(k, Point{At: t0.Add(time.Duration(i*3) * time.Minute), Value: float64(i)})
	}
	// now = t0+30m, horizon = t0+20m → points at 0,3,...,18 minutes drop.
	dropped := s.EvictExpired()
	if dropped != 7 {
		t.Errorf("dropped %d, want 7", dropped)
	}
	if got := s.Len(k); got != 5 {
		t.Errorf("kept %d, want 5", got)
	}
}

// Summarize over sealed chunks must not allocate: the pushdown path reads
// summaries and scans edge chunks in place.
func TestSummarizeAllocFreeOnSealed(t *testing.T) {
	s := New(WithChunkSize(8))
	k := key()
	for i := 0; i < 64; i++ { // exactly 8 sealed chunks, empty head
		s.Append(k, Point{At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
	}
	from, to := t0.Add(5*time.Minute), t0.Add(60*time.Minute)
	allocs := testing.AllocsPerRun(100, func() {
		agg := s.Summarize(k, from, to)
		if agg.Count != 55 {
			t.Fatalf("count = %d", agg.Count)
		}
	})
	if allocs != 0 {
		t.Errorf("Summarize allocated %.1f objects/op, want 0", allocs)
	}
}

// AggregateWindows must agree with a naive per-window recompute, including
// when whole chunks collapse into summaries.
func TestAggregateWindowsPushdown(t *testing.T) {
	s := New(WithChunkSize(4))
	k := key()
	for i := 0; i < 24; i++ {
		s.Append(k, Point{At: t0.Add(time.Duration(i) * 5 * time.Minute), Value: float64(i)})
	}
	wins, err := s.AggregateWindows(k, t0, t0.Add(2*time.Hour), 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 6 {
		t.Fatalf("windows = %d, want 6", len(wins))
	}
	for i, w := range wins {
		if !w.Start.Equal(t0.Add(time.Duration(i) * 20 * time.Minute)) {
			t.Errorf("window %d start = %v", i, w.Start)
		}
		if w.Count != 4 {
			t.Errorf("window %d count = %d", i, w.Count)
		}
		wantMean := float64(4*i) + 1.5
		if math.Abs(w.Mean-wantMean) > 1e-12 {
			t.Errorf("window %d mean = %g, want %g", i, w.Mean, wantMean)
		}
	}
	if _, err := s.AggregateWindows(k, t0, t0.Add(time.Hour), 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestAppendBatchOneLockPerShard(t *testing.T) {
	s := New(WithShards(4))
	batch := make([]BatchPoint, 0, 40)
	for i := 0; i < 40; i++ {
		batch = append(batch, BatchPoint{
			Key:   SeriesKey{Device: string(rune('a' + i%8)), Quantity: "m"},
			Point: Point{At: t0.Add(time.Duration(i) * time.Second), Value: float64(i)},
		})
	}
	// Poison two entries: they must be skipped, not fail the batch.
	batch[3].Key = SeriesKey{}
	batch[17].Point.Value = math.NaN()
	accepted, rejected, err := s.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 38 || rejected != 2 {
		t.Fatalf("accepted=%d rejected=%d, want 38/2", accepted, rejected)
	}
	if st := s.Stats(); st.Points != 38 {
		t.Errorf("stored %d points", st.Points)
	}
	if a, r, _ := s.AppendBatch(nil); a != 0 || r != 0 {
		t.Errorf("empty batch: %d/%d", a, r)
	}
}

func TestIterEarlyStopAndReentrancy(t *testing.T) {
	s := New(WithChunkSize(4))
	k := key()
	for i := 0; i < 10; i++ {
		s.Append(k, Point{At: t0.Add(time.Duration(i) * time.Second), Value: float64(i)})
	}
	var seen int
	s.Iter(k, t0, t0.Add(time.Hour), func(p Point) bool {
		seen++
		// Iter runs outside the store locks, so callbacks may query.
		_ = s.Len(k)
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("early stop after %d points, want 3", seen)
	}
}

func TestForEachLatest(t *testing.T) {
	s := New(WithShards(4), WithChunkSize(4))
	for d := 0; d < 6; d++ {
		k := SeriesKey{Device: string(rune('a' + d)), Quantity: "m"}
		for i := 0; i <= d; i++ {
			s.Append(k, Point{At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
		}
	}
	got := map[SeriesKey]Point{}
	s.ForEachLatest(func(k SeriesKey, p Point) { got[k] = p })
	if len(got) != 6 {
		t.Fatalf("visited %d series, want 6", len(got))
	}
	for d := 0; d < 6; d++ {
		k := SeriesKey{Device: string(rune('a' + d)), Quantity: "m"}
		if got[k].Value != float64(d) {
			t.Errorf("latest for %v = %g, want %d", k, got[k].Value, d)
		}
	}
}

// Concurrent appenders and aggregate readers across many series: run under
// -race this exercises the lock-free sealed snapshots against COW rewrites.
func TestConcurrentAppendAndQuery(t *testing.T) {
	s := New(WithShards(4), WithChunkSize(16))
	keys := []SeriesKey{
		{Device: "p1", Quantity: "m"}, {Device: "p2", Quantity: "m"},
		{Device: "p3", Quantity: "m"}, {Device: "p4", Quantity: "m"},
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				k := keys[rng.Intn(len(keys))]
				// Mostly in-order with occasional backfill.
				off := time.Duration(i) * time.Second
				if i%17 == 0 {
					off -= 3 * time.Minute
				}
				s.Append(k, Point{At: t0.Add(off), Value: float64(i)})
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 300; i++ {
				k := keys[i%len(keys)]
				s.Summarize(k, t0.Add(-time.Hour), t0.Add(time.Hour))
				s.AggregateWindows(k, t0, t0.Add(time.Hour), time.Minute)
				s.Latest(k)
				if i%50 == 0 {
					s.DeleteBefore(t0.Add(-30 * time.Minute))
				}
			}
		}(r)
	}
	for i := 0; i < 6; i++ {
		<-done
	}
	// Post-hoc invariant: everything still sorted and self-consistent.
	for _, k := range keys {
		pts := s.Range(k, time.Time{}, t0.Add(1000*time.Hour))
		for i := 1; i < len(pts); i++ {
			if pts[i].At.Before(pts[i-1].At) {
				t.Fatalf("series %v out of order at %d", k, i)
			}
		}
		if len(pts) != s.Len(k) {
			t.Fatalf("series %v: Range %d vs Len %d", k, len(pts), s.Len(k))
		}
	}
}
