package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

var t0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

func TestIngestReadings(t *testing.T) {
	store := timeseries.New()
	ing := NewIngestor(ngsi.Local{Store: store}, nil)
	batch := []model.Reading{
		{Device: "p1", Quantity: model.QSoilMoisture, Value: 0.2, Depth: 0.2, At: t0},
		{Device: "p1", Quantity: model.QSoilMoisture, Value: 0.3, Depth: 0.5, At: t0},
		{Device: "d1", Quantity: model.QNDVI, Value: 0.7, At: t0},
	}
	if err := ing.IngestReadings(batch, nil); err != nil {
		t.Fatal(err)
	}
	// Depth separates series.
	if got := store.Len(timeseries.SeriesKey{Device: "p1", Quantity: "soilMoisture_d20"}); got != 1 {
		t.Errorf("d20 points = %d", got)
	}
	if got := store.Len(timeseries.SeriesKey{Device: "p1", Quantity: "soilMoisture_d50"}); got != 1 {
		t.Errorf("d50 points = %d", got)
	}
	// An all-invalid batch is not an error (it must not look like a
	// transport failure to the fog retry loop) — it is skipped and counted.
	if err := ing.IngestReadings([]model.Reading{{}}, nil); err != nil {
		t.Errorf("all-invalid batch returned error: %v", err)
	}
	if ing.Metrics().Counter("cloud.ingest.invalid").Value() != 1 {
		t.Error("invalid counter wrong")
	}
	if ing.Metrics().Counter("cloud.ingest.readings").Value() != 3 {
		t.Error("ingest counter wrong")
	}
}

// TestQuantityKeyMatchesSprintf: the hand-built key is byte-identical to the
// formatted one it replaced, so series recovered from older WALs still match.
func TestQuantityKeyMatchesSprintf(t *testing.T) {
	for _, depth := range []float64{0, 0.05, 0.2, 0.5, 1.234} {
		r := model.Reading{Device: "p1", Quantity: model.QSoilMoisture, Depth: depth}
		want := string(r.Quantity)
		if depth > 0 {
			want = fmt.Sprintf("%s_d%d", r.Quantity, int(depth*100+0.5))
		}
		if got := quantityKey(r); got != want {
			t.Errorf("depth %g: quantityKey = %q, want %q", depth, got, want)
		}
	}
}

// A mixed batch must not abort on the invalid reading: valid readings land
// and are counted, invalid ones are skipped and counted.
func TestIngestSkipsInvalidMidBatch(t *testing.T) {
	store := timeseries.New()
	ing := NewIngestor(ngsi.Local{Store: store}, nil)
	batch := []model.Reading{
		{Device: "p1", Quantity: model.QSoilMoisture, Value: 0.2, At: t0},
		{}, // invalid: must be skipped, not fail the batch
		{Device: "p2", Quantity: model.QSoilMoisture, Value: 0.3, At: t0},
	}
	if err := ing.IngestReadings(batch, nil); err != nil {
		t.Fatalf("mixed batch rejected: %v", err)
	}
	if got := store.Len(timeseries.SeriesKey{Device: "p1", Quantity: "soilMoisture"}); got != 1 {
		t.Errorf("p1 points = %d", got)
	}
	if got := store.Len(timeseries.SeriesKey{Device: "p2", Quantity: "soilMoisture"}); got != 1 {
		t.Errorf("p2 points = %d", got)
	}
	if got := ing.Metrics().Counter("cloud.ingest.readings").Value(); got != 2 {
		t.Errorf("accepted counter = %d, want 2", got)
	}
	if got := ing.Metrics().Counter("cloud.ingest.invalid").Value(); got != 1 {
		t.Errorf("invalid counter = %d, want 1", got)
	}
}

func seedStore(t *testing.T) *timeseries.Store {
	t.Helper()
	store := timeseries.New()
	ing := NewIngestor(ngsi.Local{Store: store}, nil)
	for day := 0; day < 3; day++ {
		for h := 0; h < 24; h++ {
			at := t0.Add(time.Duration(day*24+h) * time.Hour)
			err := ing.IngestReadings([]model.Reading{
				{Device: "farm1-p1", Quantity: model.QSoilMoisture, Value: 0.2 + float64(day)*0.01, At: at},
				{Device: "farm1-d1", Quantity: model.QNDVI, Value: 0.7, At: at},
				{Device: "farm2-p9", Quantity: model.QSoilMoisture, Value: 0.4, At: at},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

func TestAnalyticsQueries(t *testing.T) {
	store := seedStore(t)
	a := NewAnalytics(store)

	agg := a.Summary("farm1-p1", "soilMoisture", t0, t0.Add(72*time.Hour))
	if agg.Count != 72 {
		t.Errorf("summary count = %d", agg.Count)
	}
	wins, err := a.Windows("farm1-p1", "soilMoisture", t0, t0.Add(72*time.Hour), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 6 {
		t.Fatalf("12h windows = %d, want 6", len(wins))
	}
	if wins[0].Count != 12 || !wins[0].Start.Equal(t0) {
		t.Errorf("window 0 = %+v", wins[0])
	}
	if _, err := a.Windows("farm1-p1", "soilMoisture", t0, t0.Add(time.Hour), 0); err == nil {
		t.Error("zero window accepted")
	}
}

// failingWriter is an ngsi.Writer whose telemetry append fails with err.
type failingWriter struct {
	ngsi.Writer
	err error
}

func (w failingWriter) AppendBatch([]timeseries.BatchPoint) (int, int, error) { return 0, 0, w.err }

// failingJournal refuses every record, as a latched WAL does.
type failingJournal struct{}

func (failingJournal) PointsAppended([]timeseries.BatchPoint) timeseries.JournalAck {
	return failingJournal{}
}
func (failingJournal) Wait() error { return errors.New("wal: closed") }

// TestIngestAppendErrorsCountedByKind: a failed append counts as a
// journal error only when it is a durability failure — a single node's
// own journal included; any other failure (an owner out of reach, a
// cluster that cannot serve) counts as a route error. Either way the
// error reaches the sender, whose retry redelivers.
func TestIngestAppendErrorsCountedByKind(t *testing.T) {
	latched := timeseries.New()
	latched.SetJournal(failingJournal{})
	unavailable := fmt.Errorf("%w: partition 3", ngsi.ErrUnavailable)
	unreachable := errors.New("cluster: dial n2: connection refused")
	for _, tc := range []struct {
		name           string
		w              ngsi.Writer
		want           error
		journal, route uint64
	}{
		{"local journal", ngsi.Local{Store: latched}, ngsi.ErrDurability, 1, 0},
		{"remote journal", failingWriter{err: fmt.Errorf("%w: wal: closed", ngsi.ErrDurability)}, ngsi.ErrDurability, 1, 0},
		{"unavailable", failingWriter{err: unavailable}, ngsi.ErrUnavailable, 0, 1},
		{"unreachable owner", failingWriter{err: unreachable}, unreachable, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ing := NewIngestor(tc.w, nil)
			err := ing.IngestReadings([]model.Reading{{Device: "p1", Quantity: model.QSoilMoisture, Value: 0.2, At: t0}}, nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("IngestReadings = %v, want %v", err, tc.want)
			}
			reg := ing.Metrics()
			if got := reg.Counter("cloud.ingest.journal_errors").Value(); got != tc.journal {
				t.Errorf("journal_errors = %d, want %d", got, tc.journal)
			}
			if got := reg.Counter("cloud.ingest.route_errors").Value(); got != tc.route {
				t.Errorf("route_errors = %d, want %d", got, tc.route)
			}
		})
	}
}

// TestRefusedBatchLogsError: a batch the journal refused is an operator
// matter, so it logs at Error and survives a Warn threshold — once per
// throttle window, however many batches the latched journal refuses.
func TestRefusedBatchLogsError(t *testing.T) {
	var out bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&out, &slog.HandlerOptions{Level: slog.LevelWarn})))
	t.Cleanup(func() { slog.SetDefault(prev) })

	latched := timeseries.New()
	latched.SetJournal(failingJournal{})
	ing := NewIngestor(ngsi.Local{Store: latched}, nil)
	for i := 0; i < 3; i++ {
		err := ing.IngestReadings([]model.Reading{{Device: "p1", Quantity: model.QSoilMoisture, Value: 0.2, At: t0}}, nil)
		if !errors.Is(err, ngsi.ErrDurability) {
			t.Fatalf("IngestReadings = %v, want ngsi.ErrDurability", err)
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "level=ERROR") || !strings.Contains(lines[0], "not stored") {
		t.Errorf("log at Warn threshold after 3 refused batches:\n%s", out.String())
	}
}
