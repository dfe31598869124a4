// Package cloud implements the SWAMP cloud services: telemetry ingestion
// into the historical time-series store, the analytics queries the
// irrigation optimizer and dashboards consume. In FIWARE terms this is
// the STH-Comet/QuantumLeap + application-services tier.
//
// Ingestion rides the store's batched append path (one shard lock per
// batch, however many series it spans) and analytics ride the aggregate
// pushdown path (chunk summaries, no point copying).
package cloud

import (
	"errors"
	"log"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// Ingestor persists readings through the platform's writer.
type Ingestor struct {
	dst ngsi.Writer
	reg *metrics.Registry

	// Logf receives diagnostics; nil means log.Printf.
	Logf func(format string, args ...any)

	// lastJournalLog throttles durability-failure logging (UnixNano of
	// the last line): a latched WAL failure would otherwise turn every
	// ingested batch into a log line.
	lastJournalLog atomic.Int64

	// Hot-path counters, resolved once so ingest never touches the
	// registry map.
	cReadings, cInvalid, cBatches *metrics.Counter
	cJournalErr, cRouteErr        *metrics.Counter
}

// NewIngestor builds an ingestor over dst. metricsReg may be nil.
func NewIngestor(dst ngsi.Writer, metricsReg *metrics.Registry) *Ingestor {
	if metricsReg == nil {
		metricsReg = metrics.NewRegistry()
	}
	return &Ingestor{
		dst:         dst,
		reg:         metricsReg,
		cReadings:   metricsReg.Counter("cloud.ingest.readings"),
		cInvalid:    metricsReg.Counter("cloud.ingest.invalid"),
		cBatches:    metricsReg.Counter("cloud.ingest.batches"),
		cJournalErr: metricsReg.Counter("cloud.ingest.journal_errors"),
		cRouteErr:   metricsReg.Counter("cloud.ingest.route_errors"),
	}
}

// Metrics returns the ingestor's registry.
func (i *Ingestor) Metrics() *metrics.Registry { return i.reg }

func (i *Ingestor) logf(format string, args ...any) {
	if i.Logf != nil {
		i.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// journalLogThrottle bounds how often ingest-path append failures are
// logged.
const journalLogThrottle = 10 * time.Second

// noteAppendErr counts a failed append — a durability failure as a
// journal error, anything else (on a cluster, an owner out of reach) as
// a route error — and logs it at most once per window.
func (i *Ingestor) noteAppendErr(err error) {
	c := i.cRouteErr
	if errors.Is(err, ngsi.ErrDurability) {
		c = i.cJournalErr
	}
	c.Inc()
	now := time.Now().UnixNano()
	last := i.lastJournalLog.Load()
	if now-last >= int64(journalLogThrottle) && i.lastJournalLog.CompareAndSwap(last, now) {
		i.logf("cloud: reading batch not stored, left to the sender's retry: %v", err)
	}
}

// IngestReadings appends a batch of device readings as one AppendBatch
// (on a store: one shard lock per batch). Invalid readings are
// skipped-and-counted (`cloud.ingest.invalid`), never an error: a
// validation failure is a data-quality fact about the reading, not a
// transport failure, and returning one would make the fog node's
// store-and-forward loop treat the batch as retryable — wedging its
// queue head on a deterministically poisoned batch forever. Accepted
// readings are counted exactly, even for mixed batches.
func (i *Ingestor) IngestReadings(batch []model.Reading) error {
	if len(batch) == 0 {
		return nil
	}
	pts := make([]timeseries.BatchPoint, 0, len(batch))
	invalid := 0
	for _, r := range batch {
		if err := r.Validate(); err != nil {
			invalid++
			continue
		}
		pts = append(pts, timeseries.BatchPoint{
			Key:   timeseries.SeriesKey{Device: string(r.Device), Quantity: quantityKey(r)},
			Point: timeseries.Point{At: r.At, Value: r.Value},
		})
	}
	accepted, rejected, err := i.dst.AppendBatch(pts)
	invalid += rejected
	i.cBatches.Inc()
	if accepted > 0 {
		i.cReadings.Add(uint64(accepted))
	}
	if invalid > 0 {
		i.cInvalid.Add(uint64(invalid))
	}
	if err != nil {
		// The store rolled the unjournaled batch back, so the fog
		// node's store-and-forward copy is the only surviving one:
		// surface the error so it redelivers. While the WAL stays
		// latched each retry fails cleanly (rolled back again, no
		// duplicates); after the restart that clears it, the retry
		// lands durably. On a cluster a batch is all-or-nothing per
		// owner only, so a retry may repeat the legs that landed.
		i.noteAppendErr(err)
		return err
	}
	return nil
}

// quantityKey is the store's quantity name for a reading: the quantity,
// suffixed "_d<depth in cm>" for readings taken at a depth.
func quantityKey(r model.Reading) string {
	if r.Depth > 0 {
		var buf [48]byte
		b := append(buf[:0], r.Quantity...)
		b = append(b, "_d"...)
		b = strconv.AppendInt(b, int64(r.Depth*100+0.5), 10)
		return string(b)
	}
	return string(r.Quantity)
}

// Analytics answers the queries the optimizer and dashboards need. All
// aggregate queries use the store's pushdown path over chunk summaries.
type Analytics struct {
	store *timeseries.Store
}

// NewAnalytics builds an analytics facade over store.
func NewAnalytics(store *timeseries.Store) *Analytics {
	return &Analytics{store: store}
}

// Summary aggregates one series over [from, to).
func (a *Analytics) Summary(device, quantity string, from, to time.Time) timeseries.Aggregate {
	return a.store.Summarize(timeseries.SeriesKey{Device: device, Quantity: quantity}, from, to)
}

// Windows returns fixed-window aggregates (count/min/max/mean) for a
// series — the downsampled range the dashboard series endpoint serves.
func (a *Analytics) Windows(device, quantity string, from, to time.Time, window time.Duration) ([]timeseries.WindowAggregate, error) {
	return a.store.AggregateWindows(timeseries.SeriesKey{Device: device, Quantity: quantity}, from, to, window)
}
