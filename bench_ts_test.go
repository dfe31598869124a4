// Benchmarks for the chunked, sharded time-series engine (DESIGN.md §3):
// aggregate pushdown queries, and batched vs individual appends. Summarize
// over sealed chunks is expected allocation-free (allocs/op).
package swamp_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/timeseries"
)

const tsBenchPoints = 100_000

var tsBenchT0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

func tsBenchKey() timeseries.SeriesKey {
	return timeseries.SeriesKey{Device: "bench-probe", Quantity: "soilMoisture_d20"}
}

func fillChunked(b *testing.B, n int) *timeseries.Store {
	b.Helper()
	s := timeseries.New()
	k := tsBenchKey()
	for i := 0; i < n; i++ {
		if err := s.Append(k, timeseries.Point{
			At: tsBenchT0.Add(time.Duration(i) * time.Second), Value: 0.2 + float64(i%100)/1000,
		}); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkTSSummarize measures the aggregate query over a 100k-point
// series: the engine folds precomputed chunk summaries and scans at most
// two edge chunks in place.
func BenchmarkTSSummarize(b *testing.B) {
	k := tsBenchKey()
	from := tsBenchT0.Add(30 * time.Second)
	to := tsBenchT0.Add(time.Duration(tsBenchPoints-30) * time.Second)

	b.Run("chunked-pushdown", func(b *testing.B) {
		s := fillChunked(b, tsBenchPoints)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if agg := s.Summarize(k, from, to); agg.Count == 0 {
				b.Fatal("empty aggregate")
			}
		}
	})
}

// BenchmarkTSDownsample measures windowed aggregation (the dashboard
// series query) over a 100k-point series at 1h windows.
func BenchmarkTSDownsample(b *testing.B) {
	k := tsBenchKey()
	from := tsBenchT0
	to := tsBenchT0.Add(time.Duration(tsBenchPoints) * time.Second)

	b.Run("chunked-pushdown", func(b *testing.B) {
		s := fillChunked(b, tsBenchPoints)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pts, err := s.Downsample(k, from, to, time.Hour); err != nil || len(pts) == 0 {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTSAppend measures the ingest path per point: individual appends
// (one shard lock each) vs AppendBatch (one shard lock per batch), spread
// over a fleet of devices the way the cloud ingestor sees them.
func BenchmarkTSAppend(b *testing.B) {
	const fleet = 512
	keys := make([]timeseries.SeriesKey, fleet)
	for i := range keys {
		keys[i] = timeseries.SeriesKey{Device: fmt.Sprintf("probe-%03d", i), Quantity: "soilMoisture_d20"}
	}

	b.Run("single", func(b *testing.B) {
		s := timeseries.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%fleet]
			p := timeseries.Point{At: tsBenchT0.Add(time.Duration(i/fleet) * time.Second), Value: 0.25}
			if err := s.Append(k, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-256", func(b *testing.B) {
		s := timeseries.New()
		batch := make([]timeseries.BatchPoint, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(batch) {
			for j := range batch {
				n := i + j
				batch[j] = timeseries.BatchPoint{
					Key:   keys[n%fleet],
					Point: timeseries.Point{At: tsBenchT0.Add(time.Duration(n/fleet) * time.Second), Value: 0.25},
				}
			}
			if accepted, rejected, err := s.AppendBatch(batch); accepted != len(batch) || rejected != 0 || err != nil {
				b.Fatalf("accepted %d rejected %d err %v", accepted, rejected, err)
			}
		}
	})
}

// BenchmarkTSConcurrentMixed drives appends and pushdown queries at the
// same time — the realistic telemetry-plane load where dashboards query
// while the fleet ingests.
func BenchmarkTSConcurrentMixed(b *testing.B) {
	s := fillChunked(b, tsBenchPoints)
	k := tsBenchKey()
	from, to := tsBenchT0, tsBenchT0.Add(time.Duration(tsBenchPoints)*time.Second)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if i%4 == 0 {
				p := timeseries.Point{At: to.Add(time.Duration(seq.Add(1)) * time.Millisecond), Value: 0.25}
				if err := s.Append(k, p); err != nil {
					b.Fatal(err)
				}
			} else {
				if agg := s.Summarize(k, from, to); agg.Count == 0 {
					b.Fatal("empty aggregate")
				}
			}
		}
	})
}
