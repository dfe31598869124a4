package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/config"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/tenant"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// durablePair builds a fresh broker+store+pool over dir. snapIntv < 0
// disables periodic snapshots.
func durablePair(t *testing.T, dir string, snapIntv time.Duration) (*ngsi.Broker, *timeseries.Store, *ngsi.WebhookPool, *Durability) {
	t.Helper()
	reg := metrics.NewRegistry()
	broker := ngsi.NewBroker(ngsi.BrokerConfig{Metrics: reg})
	store := timeseries.New()
	pool := ngsi.NewWebhookPool(ngsi.WebhookConfig{
		Metrics:  reg,
		OnStatus: ngsi.StatusUpdater(broker),
	})
	d, err := OpenDurability(DurabilityConfig{
		Dir:              dir,
		SnapshotInterval: snapIntv,
		Metrics:          reg,
	}, broker, store, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		broker.Close()
		pool.Close()
		store.Close()
		_ = d.Close()
	})
	return broker, store, pool, d
}

func TestDurabilityRecoversContextAndTelemetry(t *testing.T) {
	dir := t.TempDir()
	broker, store, _, d := durablePair(t, dir, -1)

	// Context mutations: upsert, merge, delete.
	if err := broker.UpsertEntity(&ngsi.Entity{
		ID: "urn:test:a", Type: "SoilProbe",
		Attrs: map[string]ngsi.Attribute{"m": {Type: "Number", Value: 0.25}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := broker.UpdateAttrs("urn:test:a", "SoilProbe", map[string]ngsi.Attribute{
		"m2": {Type: "Number", Value: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := broker.BatchUpdate(map[string]ngsi.BatchEntry{
		"urn:test:b": {Type: "SoilProbe", Attrs: map[string]ngsi.Attribute{"m": {Type: "Number", Value: 1.0}}},
		"urn:test:c": {Type: "SoilProbe", Attrs: map[string]ngsi.Attribute{"m": {Type: "Number", Value: 2.0}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := broker.DeleteEntity("urn:test:c"); err != nil {
		t.Fatal(err)
	}

	// Telemetry: single and batch.
	key := timeseries.SeriesKey{Device: "dev-1", Quantity: "m"}
	base := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := store.Append(key, timeseries.Point{At: base, Value: 1}); err != nil {
		t.Fatal(err)
	}
	batch := make([]timeseries.BatchPoint, 50)
	for i := range batch {
		batch[i] = timeseries.BatchPoint{Key: key, Point: timeseries.Point{
			At: base.Add(time.Duration(i+1) * time.Second), Value: float64(i),
		}}
	}
	if _, _, err := store.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}

	broker.Close()
	store.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh stores over the same dir: everything must come back.
	broker2, store2, _, d2 := durablePair(t, dir, -1)
	if d2.Recovered.TailRecords == 0 {
		t.Fatalf("nothing replayed: %+v", d2.Recovered)
	}
	if n := broker2.EntityCount(); n != 2 {
		t.Fatalf("recovered %d entities, want 2 (a, b — c was deleted)", n)
	}
	a, err := broker2.GetEntity("urn:test:a")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Attrs["m"].Float(); v != 0.25 {
		t.Fatalf("a.m = %v", a.Attrs["m"].Value)
	}
	if v, _ := a.Attrs["m2"].Float(); v != 0.5 {
		t.Fatalf("a.m2 = %v", a.Attrs["m2"].Value)
	}
	if _, err := broker2.GetEntity("urn:test:c"); err == nil {
		t.Fatal("deleted entity resurrected")
	}
	if n := store2.Len(key); n != 51 {
		t.Fatalf("recovered %d points, want 51", n)
	}
	latest, ok := store2.Latest(key)
	if !ok || !latest.At.Equal(base.Add(50*time.Second)) {
		t.Fatalf("latest = %+v", latest)
	}
}

func TestDurabilityRecoversAcrossSnapshot(t *testing.T) {
	dir := t.TempDir()
	broker, store, _, d := durablePair(t, dir, -1)

	key := timeseries.SeriesKey{Device: "dev-1", Quantity: "m"}
	base := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		if err := store.Append(key, timeseries.Point{At: base.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := broker.UpsertEntity(&ngsi.Entity{
		ID: "urn:test:a", Type: "SoilProbe",
		Attrs: map[string]ngsi.Attribute{"m": {Type: "Number", Value: 0.25}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail.
	for i := 40; i < 55; i++ {
		if err := store.Append(key, timeseries.Point{At: base.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := broker.UpdateAttrs("urn:test:a", "SoilProbe", map[string]ngsi.Attribute{
		"m": {Type: "Number", Value: 0.75},
	}); err != nil {
		t.Fatal(err)
	}
	broker.Close()
	store.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	broker2, store2, _, d2 := durablePair(t, dir, -1)
	if d2.Recovered.SnapshotRecords == 0 || d2.Recovered.TailRecords == 0 {
		t.Fatalf("expected snapshot + tail replay: %+v", d2.Recovered)
	}
	if n := store2.Len(key); n != 55 {
		t.Fatalf("recovered %d points, want 55 (snapshot 40 + tail 15, no duplicates)", n)
	}
	a, err := broker2.GetEntity("urn:test:a")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Attrs["m"].Float(); v != 0.75 {
		t.Fatalf("tail update lost: m = %v", a.Attrs["m"].Value)
	}
}

// TestDurabilityExactCountsUnderConcurrentSnapshots is the core
// correctness property: with appends racing snapshots (rotation +
// DumpFrozen + truncation), recovery must reproduce exactly the
// acknowledged point count — no duplicates from the snapshot/tail
// overlap, no losses from truncation.
func TestDurabilityExactCountsUnderConcurrentSnapshots(t *testing.T) {
	dir := t.TempDir()
	broker, store, _, d := durablePair(t, dir, -1)

	const workers = 4
	const perWorker = 300
	base := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	var acked atomic.Uint64
	var appenders sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		appenders.Add(1)
		go func(w int) {
			defer appenders.Done()
			key := timeseries.SeriesKey{Device: fmt.Sprintf("dev-%d", w), Quantity: "m"}
			for i := 0; i < perWorker; i++ {
				batch := []timeseries.BatchPoint{
					{Key: key, Point: timeseries.Point{At: base.Add(time.Duration(2*i) * time.Millisecond), Value: 1}},
					{Key: key, Point: timeseries.Point{At: base.Add(time.Duration(2*i+1) * time.Millisecond), Value: 2}},
				}
				if _, _, err := store.AppendBatch(batch); err != nil {
					errs <- err
					return
				}
				acked.Add(2)
			}
		}(w)
	}
	// Snapshot storm concurrent with the appends.
	stop := make(chan struct{})
	var snapper sync.WaitGroup
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := d.Snapshot(); err != nil {
					errs <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	appenders.Wait()
	close(stop)
	snapper.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	total := int(acked.Load())
	broker.Close()
	store.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	_, store2, _, _ := durablePair(t, dir, -1)
	if got := store2.Stats().Points; got != total {
		t.Fatalf("recovered %d points, want exactly %d acked", got, total)
	}
}

func TestDurabilityWebhookSubscriptionRecovery(t *testing.T) {
	dir := t.TempDir()

	var received atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		received.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	broker, store, pool, d := durablePair(t, dir, -1)
	if _, err := pool.Subscribe(broker, ngsi.Subscription{
		ID:              "urn:swamp:subscription:000007",
		EntityIDPattern: "urn:test:*",
		NotifyAttrs:     []string{"m"},
		Owner:           "tenant-1",
		URL:             srv.URL,
	}); err != nil {
		t.Fatal(err)
	}
	// A second durable subscription that gets deleted: must stay deleted.
	if _, err := pool.Subscribe(broker, ngsi.Subscription{
		ID: "urn:swamp:subscription:000008", EntityIDPattern: "*", URL: srv.URL,
	}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unsubscribe(broker, "urn:swamp:subscription:000008"); err != nil {
		t.Fatal(err)
	}
	// An in-process subscription: must NOT be journaled.
	if _, err := broker.Subscribe(ngsi.Subscription{
		EntityIDPattern: "*", Notifier: ngsi.Callback(func(ngsi.Notification) {}),
	}); err != nil {
		t.Fatal(err)
	}
	broker.Close()
	pool.Close()
	store.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	broker2, _, _, _ := durablePair(t, dir, -1)
	subs := broker2.Subscriptions()
	if len(subs) != 1 || subs[0].ID != "urn:swamp:subscription:000007" {
		t.Fatalf("recovered subscriptions: %+v", subs)
	}
	if subs[0].Owner != "tenant-1" || subs[0].EntityIDPattern != "urn:test:*" {
		t.Fatalf("subscription fields lost: %+v", subs[0])
	}
	if subs[0].URL != srv.URL {
		t.Fatalf("webhook URL not restored: %q", subs[0].URL)
	}
	// And it still delivers: an update must reach the endpoint.
	if err := broker2.UpsertEntity(&ngsi.Entity{
		ID: "urn:test:x", Type: "SoilProbe",
		Attrs: map[string]ngsi.Attribute{"m": {Type: "Number", Value: 0.1}},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if received.Load() == 0 {
		t.Fatal("recovered webhook subscription never delivered")
	}
}

func TestPlatformWALRecovery(t *testing.T) {
	cfg := config.Default()
	cfg.WAL.Dir = t.TempDir()
	// Disable periodic snapshots: this test exercises pure tail replay
	// through the full platform wiring.
	cfg.WAL.SnapshotInterval = -1
	opts := Options{Pilot: PilotIntercrop, Mode: ModeFarmFog, Config: cfg}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Context.UpsertEntity(&ngsi.Entity{
		ID: "urn:test:persist", Type: "Marker",
		Attrs: map[string]ngsi.Attribute{"v": {Type: "Number", Value: 42.0}},
	}); err != nil {
		p.Close()
		t.Fatal(err)
	}
	key := timeseries.SeriesKey{Device: "dev-p", Quantity: "m"}
	if err := p.Store.Append(key, timeseries.Point{At: time.Now(), Value: 7}); err != nil {
		p.Close()
		t.Fatal(err)
	}
	entities := p.Context.EntityCount()
	p.Close()

	p2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Durable == nil {
		t.Fatal("platform did not open durability plane")
	}
	if got := p2.Context.EntityCount(); got < entities {
		t.Fatalf("recovered %d entities, want >= %d", got, entities)
	}
	e, err := p2.Context.GetEntity("urn:test:persist")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Attrs["v"].Float(); v != 42.0 {
		t.Fatalf("v = %v", e.Attrs["v"].Value)
	}
	if n := p2.Store.Len(key); n != 1 {
		t.Fatalf("recovered %d points for %s, want 1", n, key)
	}
}

// WAL-recovered subscriptions must restore their tenant's subscription
// slots: without pairing, post-restart slot usage restarts at zero
// while the subscriptions live on, and a later delete would release a
// slot held by a post-restart subscription of the same tenant.
func TestDurabilityRestoresSubscriptionSlots(t *testing.T) {
	dir := t.TempDir()
	newAdm := func() *tenant.Admission {
		return tenant.NewAdmission(tenant.Config{
			Enabled: true,
			Limits:  tenant.Limits{Default: tenant.Quota{MsgsPerSec: 100, Subscriptions: 2}},
		})
	}
	open := func(adm *tenant.Admission) (*ngsi.Broker, *ngsi.WebhookPool, *Durability) {
		reg := metrics.NewRegistry()
		broker := ngsi.NewBroker(ngsi.BrokerConfig{Metrics: reg})
		store := timeseries.New()
		pool := ngsi.NewWebhookPool(ngsi.WebhookConfig{Metrics: reg, OnStatus: ngsi.StatusUpdater(broker), Admission: adm})
		d, err := OpenDurability(DurabilityConfig{
			Dir: dir, SnapshotInterval: -1, Metrics: reg,
		}, broker, store, pool)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			broker.Close()
			pool.Close()
			store.Close()
			_ = d.Close()
		})
		return broker, pool, d
	}
	subscribe := func(broker *ngsi.Broker, pool *ngsi.WebhookPool) error {
		_, err := pool.Subscribe(broker, ngsi.Subscription{
			EntityIDPattern: "urn:test:*", Owner: "tenant-1", URL: "http://127.0.0.1:1/hook",
		})
		return err
	}

	broker, pool, d := open(newAdm())
	for i := 0; i < 2; i++ {
		if err := subscribe(broker, pool); err != nil {
			t.Fatal(err)
		}
	}
	broker.Close()
	pool.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh admission over the same dir: replay must restore both slots,
	// so the quota of 2 is already exhausted.
	broker2, pool2, _ := open(newAdm())
	if len(broker2.Subscriptions()) != 2 {
		t.Fatalf("recovered %d subscriptions, want 2", len(broker2.Subscriptions()))
	}
	if err := subscribe(broker2, pool2); !errors.Is(err, tenant.ErrSubscriptionQuota) {
		t.Fatalf("third subscription = %v: recovered subscriptions did not occupy their quota slots", err)
	}
	// Deleting a recovered subscription frees exactly one slot.
	if err := pool2.Unsubscribe(broker2, "urn:swamp:subscription:000001"); err != nil {
		t.Fatal(err)
	}
	if err := subscribe(broker2, pool2); err != nil {
		t.Fatalf("released slot not reusable: %v", err)
	}
	if err := subscribe(broker2, pool2); !errors.Is(err, tenant.ErrSubscriptionQuota) {
		t.Fatalf("slot accounting drifted: quota 2 admitted a third subscription (%v)", err)
	}
}

// dumpIDs returns the id sequence DumpEntities emits.
func dumpIDs(t *testing.T, b *ngsi.Broker) []string {
	t.Helper()
	var ids []string
	if err := b.DumpEntities(func(e *ngsi.Entity) error {
		ids = append(ids, e.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestSnapshotDumpOrderIsDeterministic: the snapshot dump walks each
// shard in id order, so two dumps of one state emit one sequence, and a
// broker recovered from the snapshot — which saw the entities arrive in a
// different order than the original did — dumps that same sequence again.
func TestSnapshotDumpOrderIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	broker, store, _, d := durablePair(t, dir, -1)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("urn:test:probe:%03d", i*37%200) // not in id order
		if err := broker.UpdateAttrs(id, "SoilProbe", map[string]ngsi.Attribute{
			"m": {Type: "Number", Value: float64(i) / 200},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := broker.DeleteEntity("urn:test:probe:100"); err != nil {
		t.Fatal(err)
	}
	want := dumpIDs(t, broker)
	if got := dumpIDs(t, broker); len(want) != 199 || !slices.Equal(got, want) {
		t.Fatalf("two dumps of one state differ: %d and %d ids", len(want), len(got))
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	broker.Close()
	store.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	broker2, _, _, d2 := durablePair(t, dir, -1)
	if d2.Recovered.SnapshotRecords == 0 {
		t.Fatalf("expected a snapshot replay: %+v", d2.Recovered)
	}
	if got := dumpIDs(t, broker2); !slices.Equal(got, want) {
		t.Fatalf("dump after recovery differs from the dump before the snapshot:\n got %v\nwant %v", got, want)
	}
}

// crashChildEnv marks the re-executed test binary as the crash producer;
// its value is the directory the producer writes under.
const crashChildEnv = "SWAMP_CRASH_PRODUCER_ROOT"

// crashManifest is a lower bound on the writes acknowledged before the
// kill. The producer publishes it only after acks.
type crashManifest struct {
	Entities int `json:"entities"`
	Points   int `json:"points"`
}

// TestCrashRecoveryAfterKill9 re-executes this test binary as a producer
// of sustained acked entity + telemetry ingest with frequent snapshots,
// SIGKILLs it once a snapshot and a tail exist, and recovers the WAL
// directory: every write the manifest acknowledged must be back. The
// second round kills a producer that itself started from the recovered
// directory, so recovery runs over a recovered snapshot + tail.
func TestCrashRecoveryAfterKill9(t *testing.T) {
	if root := os.Getenv(crashChildEnv); root != "" {
		crashProducer(t, root)
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	root := t.TempDir()
	for round := 1; round <= 2; round++ {
		acked := killProducerMidWrite(t, root)

		reg := metrics.NewRegistry()
		broker := ngsi.NewBroker(ngsi.BrokerConfig{Metrics: reg})
		store := timeseries.New()
		d, err := OpenDurability(DurabilityConfig{
			Dir: filepath.Join(root, "wal"), SnapshotInterval: -1, Metrics: reg,
		}, broker, store, nil)
		if err != nil {
			t.Fatalf("round %d: recovery: %v", round, err)
		}
		entities, points := broker.EntityCount(), store.Stats().Points
		rec := d.Recovered
		broker.Close()
		store.Close()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("round %d: recovered %d snapshot + %d tail records: entities %d (acked %d), points %d (acked %d)",
			round, rec.SnapshotRecords, rec.TailRecords, entities, acked.Entities, points, acked.Points)
		if rec.SnapshotRecords == 0 || rec.TailRecords == 0 {
			t.Fatalf("round %d: recovery replayed no snapshot or no tail: %+v", round, rec)
		}
		if entities < acked.Entities || points < acked.Points {
			t.Fatalf("round %d: acked writes lost: entities %d < %d or points %d < %d",
				round, entities, acked.Entities, points, acked.Points)
		}
	}
}

// killProducerMidWrite starts the producer on root, waits until it has
// written a new snapshot and acked more writes after it, SIGKILLs it and
// returns the last manifest it published.
func killProducerMidWrite(t *testing.T, root string) crashManifest {
	t.Helper()
	snaps := func() []string {
		names, _ := filepath.Glob(filepath.Join(root, "wal", "snapshot-*.snap"))
		return names
	}
	before := snaps()
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecoveryAfterKill9$", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+root)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	kill := func() {
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		<-exited
	}

	afterSnap := -1 // acked points when a new snapshot was first seen
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-exited:
			t.Fatalf("producer exited before the kill (%v):\n%s", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
		m, ok := readCrashManifest(root)
		if ok && afterSnap < 0 && len(snaps()) > 0 && !slices.Equal(snaps(), before) {
			afterSnap = m.Points
		}
		if ok && afterSnap >= 0 && m.Points > afterSnap {
			break
		}
		if time.Now().After(deadline) {
			kill()
			t.Fatalf("producer wrote no new snapshot and tail in 30s:\n%s", out.String())
		}
	}
	kill()
	m, _ := readCrashManifest(root)
	return m
}

func readCrashManifest(root string) (crashManifest, bool) {
	var m crashManifest
	data, err := os.ReadFile(filepath.Join(root, "acked.json"))
	return m, err == nil && json.Unmarshal(data, &m) == nil && m.Points > 0
}

// crashProducer is the child side: sustained acked ingest through
// OpenDurability until the parent kills it, publishing the acked counts
// every few milliseconds. It returns only on failure.
func crashProducer(t *testing.T, root string) {
	const workers, devicesPer, batch = 8, 16, 8
	reg := metrics.NewRegistry()
	broker := ngsi.NewBroker(ngsi.BrokerConfig{Metrics: reg})
	store := timeseries.New()
	if _, err := OpenDurability(DurabilityConfig{
		Dir: filepath.Join(root, "wal"), SnapshotInterval: 50 * time.Millisecond, Metrics: reg,
	}, broker, store, nil); err != nil {
		t.Fatal(err)
	}
	// Recovered state is acked state too: it seeds the manifest, so the
	// second kill still accounts for the first run's writes.
	recEntities, recPoints := broker.EntityCount(), store.Stats().Points
	var points atomic.Int64
	points.Store(int64(recPoints))
	// A run's per-series timestamps advance 1 ms per point, so starting
	// recPoints seconds in lands past everything an earlier run wrote.
	base := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(recPoints) * time.Second)

	iters := make([]atomic.Int64, workers) // acked iterations per worker
	for w := range workers {
		go func() {
			pts := make([]timeseries.BatchPoint, batch)
			for iter := 0; ; iter++ {
				dev := fmt.Sprintf("urn:crash:dev:%03d", w*devicesPer+iter%devicesPer)
				if err := broker.UpdateAttrs(dev, "SoilProbe", map[string]ngsi.Attribute{
					"soilMoisture": {Type: "Number", Value: float64(iter % 100)},
				}); err != nil {
					t.Error(err)
					return
				}
				key := timeseries.SeriesKey{Device: dev, Quantity: "soilMoisture"}
				for j := range pts {
					at := base.Add(time.Duration(iter*batch+j) * time.Millisecond)
					pts[j] = timeseries.BatchPoint{Key: key, Point: timeseries.Point{At: at, Value: float64(j)}}
				}
				if _, _, err := store.AppendBatch(pts); err != nil {
					t.Error(err)
					return
				}
				iters[w].Add(1)
				points.Add(batch)
			}
		}()
	}

	manifest := filepath.Join(root, "acked.json")
	for !t.Failed() {
		time.Sleep(5 * time.Millisecond)
		m := crashManifest{Points: int(points.Load())}
		for w := range iters {
			m.Entities += int(min(iters[w].Load(), devicesPer))
		}
		m.Entities = max(m.Entities, recEntities)
		data, _ := json.Marshal(m) // two ints: cannot fail
		if err := os.WriteFile(manifest+".partial", data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(manifest+".partial", manifest); err != nil {
			t.Fatal(err)
		}
	}
}
