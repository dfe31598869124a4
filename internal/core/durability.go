package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
	"github.com/swamp-project/swamp/internal/wal"
)

// DefaultSnapshotInterval is the periodic snapshot cadence when
// DurabilityConfig.SnapshotInterval is zero.
const DefaultSnapshotInterval = 5 * time.Minute

// DurabilityConfig configures the durability plane of one deployment.
type DurabilityConfig struct {
	// Dir is the WAL directory. Required.
	Dir string
	// SnapshotInterval is the periodic snapshot + truncation cadence
	// (0 → DefaultSnapshotInterval; negative disables periodic snapshots
	// — Snapshot can still be called manually).
	SnapshotInterval time.Duration
	// Metrics receives the wal.* counters; nil allocates one.
	Metrics *metrics.Registry
}

// Durability wires one WAL manager under a context broker and a
// time-series store (plus, optionally, a webhook pool for recovering
// HTTP subscriptions): the composition the Platform uses and
// TestCrashRecoveryAfterKill9 kills mid-write.
//
// Recovery semantics: every mutation acknowledged before a crash is
// recovered. Entity records replay convergently (attribute writes are
// absolute assignments, so replaying a tail record already reflected in
// the snapshot is a no-op); telemetry records are exact-once — the
// snapshot dump freezes the store across the WAL rotation boundary, so
// snapshot state and tail records partition the acknowledged points.
// Notifications replayed from the tail may redeliver to webhook
// endpoints: durability is at-least-once at the notification layer.
type Durability struct {
	WAL      *wal.Manager
	Context  *ngsi.Broker
	Store    *timeseries.Store
	Webhooks *ngsi.WebhookPool
	// Recovered reports what the opening recovery replayed.
	Recovered wal.RecoverStats
}

// OpenDurability opens (or creates) the WAL directory, replays its
// snapshot + tail into the given broker, store and webhook pool — all of
// which must be freshly constructed and not yet serving traffic — then
// attaches the journals so every subsequent mutation is logged, and
// starts the periodic snapshotter. Close the Durability after the stores
// have stopped writing.
func OpenDurability(cfg DurabilityConfig, ctx *ngsi.Broker, store *timeseries.Store, hooks *ngsi.WebhookPool) (*Durability, error) {
	if ctx == nil || store == nil {
		return nil, fmt.Errorf("core: durability needs a context broker and a store")
	}
	m, err := wal.Open(wal.Config{Dir: cfg.Dir, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	d := &Durability{WAL: m, Context: ctx, Store: store, Webhooks: hooks}
	replay := &wal.Applier{Context: ctx, Store: store}
	stats, err := m.Recover(func(rec wal.Record) error { return d.apply(replay, rec) })
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("core: WAL recovery: %w", err)
	}
	d.Recovered = stats
	ctx.SetJournal(m.ContextJournal())
	store.SetJournal(m.TelemetryJournal())
	// The snapshot loop always starts — parked when the interval is
	// negative — so a reload can enable or retune periodic snapshots via
	// SetSnapshotInterval without a restart.
	interval := cfg.SnapshotInterval
	if interval == 0 {
		interval = DefaultSnapshotInterval
	}
	m.StartSnapshots(interval, d.dump)
	return d, nil
}

// Close stops the snapshotter and flushes + closes the log. Call it after
// every writer (broker, store, webhook pool) has stopped.
func (d *Durability) Close() error { return d.WAL.Close() }

// Snapshot takes one snapshot now and truncates covered segments.
func (d *Durability) Snapshot() error { return d.WAL.Snapshot(d.dump) }

// apply replays one record during recovery and flushes it before the
// next. Subscription records go to the webhook pool, which rebuilds their
// lanes and quota slots; every other record goes to the store applier.
// The journals are not yet attached, so nothing replayed is re-logged.
func (d *Durability) apply(replay *wal.Applier, rec wal.Record) error {
	switch rec.Type {
	case wal.TypeSubscriptionPut:
		sr, err := wal.DecodeSubscriptionPut(rec)
		if err != nil || d.Webhooks == nil { // no pool to rebuild lanes in
			return err
		}
		return d.Webhooks.Restore(d.Context, sr.Subscription())
	case wal.TypeSubscriptionDelete:
		id, err := wal.DecodeID(rec)
		if err != nil || d.Webhooks == nil {
			return err
		}
		if err = d.Webhooks.Unsubscribe(d.Context, id); errors.Is(err, ngsi.ErrNotFound) {
			return nil // never restored, or already deleted
		}
		return err
	default:
		return replay.Apply(rec)
	}
}

// dump streams the platform state as a snapshot: the stores through
// wal.DumpStores (telemetry frozen across the rotation, then entities),
// then webhook subscriptions, last so replaying the snapshot's entities
// never fires recovered subscriptions.
func (d *Durability) dump(rotate func() error, sink func(wal.Record) error) error {
	if err := wal.DumpStores(d.Context, d.Store, rotate, sink); err != nil {
		return err
	}
	for _, v := range d.Context.Subscriptions() {
		if v.URL == "" {
			continue // in-process wiring: rebuilt on startup, not persisted
		}
		rec, err := wal.EncodeSubscriptionPut(wal.NewSubscriptionRecord(v))
		if err != nil {
			return err
		}
		if err := sink(rec); err != nil {
			return err
		}
	}
	return nil
}
