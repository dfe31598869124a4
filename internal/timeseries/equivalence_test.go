package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The chunked engine must answer every query exactly like the flat-slice
// engine it replaced. These tests drive both with identical random
// workloads — in-order and out-of-order appends plus DeleteBefore churn —
// and compare Range, Len, Latest, Summarize and Downsample over random
// windows. Sums and means get a tiny float tolerance (the chunked engine
// groups additions per chunk).

const floatTol = 1e-9

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= floatTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// flatStore is the pre-chunking engine, kept as the oracle: flat slices
// sorted by At, every query a scan of the point range.
type flatStore map[SeriesKey][]Point

func (s flatStore) Append(key SeriesKey, p Point) error {
	if err := ValidatePoint(key, p); err != nil {
		return err
	}
	pts := s[key]
	n := len(pts)
	if n == 0 || !p.At.Before(pts[n-1].At) {
		pts = append(pts, p)
	} else {
		i := sort.Search(n, func(i int) bool { return pts[i].At.After(p.At) })
		pts = append(pts, Point{})
		copy(pts[i+1:], pts[i:])
		pts[i] = p
	}
	s[key] = pts
	return nil
}

func (s flatStore) Len(key SeriesKey) int { return len(s[key]) }

func (s flatStore) Range(key SeriesKey, from, to time.Time) []Point {
	pts := s[key]
	lo := sort.Search(len(pts), func(i int) bool { return !pts[i].At.Before(from) })
	hi := sort.Search(len(pts), func(i int) bool { return !pts[i].At.Before(to) })
	if lo >= hi {
		return nil
	}
	return pts[lo:hi]
}

func (s flatStore) Latest(key SeriesKey) (Point, bool) {
	pts := s[key]
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[len(pts)-1], true
}

func (s flatStore) Summarize(key SeriesKey, from, to time.Time) Aggregate {
	agg := Aggregate{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, p := range s.Range(key, from, to) {
		agg.Count++
		agg.Sum += p.Value
		agg.Min = math.Min(agg.Min, p.Value)
		agg.Max = math.Max(agg.Max, p.Value)
	}
	if agg.Count > 0 {
		agg.Mean = agg.Sum / float64(agg.Count)
	} else {
		agg.Min, agg.Max = 0, 0
	}
	return agg
}

// Downsample returns one mean point per non-empty window of [from, to),
// stamped at the window start.
func (s flatStore) Downsample(key SeriesKey, from, to time.Time, window time.Duration) ([]Point, error) {
	if window <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive downsample window %v", window)
	}
	var out []Point
	wStart := from
	var sum float64
	var n int
	flush := func() {
		if n > 0 {
			out = append(out, Point{At: wStart, Value: sum / float64(n)})
		}
		sum, n = 0, 0
	}
	for _, p := range s.Range(key, from, to) {
		for !p.At.Before(wStart.Add(window)) {
			flush()
			wStart = wStart.Add(window)
		}
		sum += p.Value
		n++
	}
	flush()
	return out, nil
}

// DeleteBefore drops every point older than cutoff and returns how many.
// Emptied series stay in the map; only point counts are compared.
func (s flatStore) DeleteBefore(cutoff time.Time) int {
	dropped := 0
	for k, pts := range s {
		i := sort.Search(len(pts), func(i int) bool { return !pts[i].At.Before(cutoff) })
		dropped += i
		s[k] = pts[i:]
	}
	return dropped
}

func compareEngines(t *testing.T, trial int, s *Store, leg flatStore, keys []SeriesKey, rng *rand.Rand) {
	t.Helper()
	for _, k := range keys {
		if s.Len(k) != leg.Len(k) {
			t.Fatalf("trial %d %v: Len %d vs legacy %d", trial, k, s.Len(k), leg.Len(k))
		}
		gp, gok := s.Latest(k)
		lp, lok := leg.Latest(k)
		if gok != lok || (gok && (!gp.At.Equal(lp.At) || gp.Value != lp.Value)) {
			t.Fatalf("trial %d %v: Latest %+v/%v vs legacy %+v/%v", trial, k, gp, gok, lp, lok)
		}
		for q := 0; q < 8; q++ {
			from := t0.Add(time.Duration(rng.Intn(4000)-500) * time.Second)
			to := from.Add(time.Duration(rng.Intn(3000)) * time.Second)

			gr := s.Range(k, from, to)
			lr := leg.Range(k, from, to)
			if len(gr) != len(lr) {
				t.Fatalf("trial %d %v [%v,%v): Range %d vs legacy %d", trial, k, from, to, len(gr), len(lr))
			}
			for i := range gr {
				if !gr[i].At.Equal(lr[i].At) || gr[i].Value != lr[i].Value {
					t.Fatalf("trial %d %v: Range point %d %+v vs %+v", trial, k, i, gr[i], lr[i])
				}
			}

			ga := s.Summarize(k, from, to)
			la := leg.Summarize(k, from, to)
			if ga.Count != la.Count || ga.Min != la.Min || ga.Max != la.Max ||
				!closeEnough(ga.Sum, la.Sum) || !closeEnough(ga.Mean, la.Mean) {
				t.Fatalf("trial %d %v [%v,%v): Summarize %+v vs legacy %+v", trial, k, from, to, ga, la)
			}

			window := time.Duration(1+rng.Intn(600)) * time.Second
			gd, gerr := s.Downsample(k, from, to, window)
			ld, lerr := leg.Downsample(k, from, to, window)
			if (gerr == nil) != (lerr == nil) {
				t.Fatalf("trial %d %v: Downsample err %v vs %v", trial, k, gerr, lerr)
			}
			if len(gd) != len(ld) {
				t.Fatalf("trial %d %v window %v: Downsample %d vs legacy %d windows", trial, k, window, len(gd), len(ld))
			}
			for i := range gd {
				if !gd[i].At.Equal(ld[i].At) || !closeEnough(gd[i].Value, ld[i].Value) {
					t.Fatalf("trial %d %v: window %d = %+v vs legacy %+v", trial, k, i, gd[i], ld[i])
				}
			}
		}
	}
}

func TestEngineEquivalenceRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 12; trial++ {
		chunkSize := 2 + rng.Intn(15)
		shards := 1 + rng.Intn(5)
		// No point cap here: count-based retention is intentionally
		// chunk-granular in the new engine (see TestRetentionAcrossChunks),
		// so capped engines diverge by design. Query semantics — what this
		// suite proves — are compared on identical retained data.
		s := New(WithChunkSize(chunkSize), WithShards(shards))
		leg := flatStore{}

		keys := []SeriesKey{
			{Device: "dev-a", Quantity: "m"},
			{Device: "dev-b", Quantity: "m"},
			{Device: "dev-b", Quantity: "t"},
		}
		n := 200 + rng.Intn(600)
		var wall time.Duration // advancing frontier for mostly-in-order load
		for i := 0; i < n; i++ {
			k := keys[rng.Intn(len(keys))]
			wall += time.Duration(rng.Intn(10)) * time.Second
			at := t0.Add(wall)
			if rng.Intn(10) == 0 { // occasional backfill, possibly deep
				at = t0.Add(wall - time.Duration(rng.Intn(2000))*time.Second)
			}
			p := Point{At: at, Value: rng.NormFloat64() * 10}
			if err := s.Append(k, p); err != nil {
				t.Fatal(err)
			}
			if err := leg.Append(k, p); err != nil {
				t.Fatal(err)
			}
			if i > 0 && i%137 == 0 { // retention churn mid-stream
				cutoff := t0.Add(time.Duration(rng.Intn(int(wall/time.Second)+1)) * time.Second)
				// Legacy keeps emptied series; only point counts must agree.
				if gd, ld := s.DeleteBefore(cutoff), leg.DeleteBefore(cutoff); gd != ld {
					t.Fatalf("trial %d: DeleteBefore dropped %d vs legacy %d", trial, gd, ld)
				}
			}
		}
		compareEngines(t, trial, s, leg, keys, rng)
	}
}

// Batched appends must land exactly the same state as the equivalent
// sequence of single appends.
func TestAppendBatchMatchesSingleAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	batched := New(WithChunkSize(8), WithShards(4))
	single := New(WithChunkSize(8), WithShards(4))
	keys := []SeriesKey{{Device: "a", Quantity: "m"}, {Device: "b", Quantity: "m"}}

	for round := 0; round < 20; round++ {
		batch := make([]BatchPoint, 0, 32)
		for i := 0; i < 32; i++ {
			k := keys[rng.Intn(len(keys))]
			at := t0.Add(time.Duration(round*1000+rng.Intn(900)) * time.Millisecond)
			batch = append(batch, BatchPoint{Key: k, Point: Point{At: at, Value: rng.Float64()}})
		}
		accepted, rejected, err := batched.AppendBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if accepted != len(batch) || rejected != 0 {
			t.Fatalf("round %d: accepted %d rejected %d", round, accepted, rejected)
		}
		for _, bp := range batch {
			if err := single.Append(bp.Key, bp.Point); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range keys {
		bp := batched.Range(k, time.Time{}, t0.Add(time.Hour))
		sp := single.Range(k, time.Time{}, t0.Add(time.Hour))
		if len(bp) != len(sp) {
			t.Fatalf("%v: %d vs %d points", k, len(bp), len(sp))
		}
		for i := range bp {
			if !bp[i].At.Equal(sp[i].At) || bp[i].Value != sp[i].Value {
				t.Fatalf("%v point %d: %+v vs %+v", k, i, bp[i], sp[i])
			}
		}
	}
}
