package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/tenant"
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
	// Admission, when set, has a subscription slot restored for every
	// owned subscription recovered during replay (and released again when
	// a tail delete removes one), so post-restart slot accounting matches
	// the live subscriptions instead of restarting at zero.
	Admission *tenant.Admission
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
	WAL       *wal.Manager
	Context   *ngsi.Broker
	Store     *timeseries.Store
	Webhooks  *ngsi.WebhookPool
	Admission *tenant.Admission
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
	d := &Durability{WAL: m, Context: ctx, Store: store, Webhooks: hooks, Admission: cfg.Admission}
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
// next. Subscription records rebuild webhook lanes and quota slots here;
// every other record goes to the store applier. The journals are not yet
// attached, so nothing replayed is re-logged.
func (d *Durability) apply(replay *wal.Applier, rec wal.Record) error {
	switch rec.Type {
	case wal.TypeSubscriptionPut:
		sr, err := wal.DecodeSubscriptionPut(rec)
		if err != nil {
			return err
		}
		if d.Webhooks == nil {
			return nil // no pool to rebuild delivery workers in
		}
		// Replay idempotently: a subscription present in both the
		// snapshot and the tail replaces itself — releasing the slot the
		// earlier apply restored, so the pairing survives re-puts.
		if prev, err := d.Context.Subscription(sr.ID); err == nil {
			_ = d.Context.Unsubscribe(sr.ID)
			d.Admission.ReleaseSubscription(prev.Owner)
		}
		d.Webhooks.Remove(sr.ID)
		notifier, err := d.Webhooks.Notifier(sr.ID, sr.Endpoint)
		if err != nil {
			return err
		}
		notifier.SetOwner(tenant.ID(sr.Owner))
		_, err = d.Context.Subscribe(ngsi.Subscription{
			ID:              sr.ID,
			EntityIDPattern: sr.EntityIDPattern,
			EntityType:      sr.EntityType,
			ConditionAttrs:  sr.ConditionAttrs,
			NotifyAttrs:     sr.NotifyAttrs,
			Throttling:      sr.Throttling,
			Owner:           tenant.ID(sr.Owner),
			Notifier:        notifier,
		})
		if err != nil {
			d.Webhooks.Remove(sr.ID)
			return err
		}
		// Restore the recovered subscription's quota slot (bypassing the
		// quota bound — it was enforced at create time) so a post-restart
		// delete releases a slot this subscription actually holds.
		d.Admission.RestoreSubscription(tenant.ID(sr.Owner))
		return nil
	case wal.TypeSubscriptionDelete:
		id, err := wal.DecodeID(rec)
		if err != nil {
			return err
		}
		// A tail delete removes a subscription an earlier apply restored
		// a slot for; release it so the pairing holds through replay.
		if sub, err := d.Context.Subscription(id); err == nil {
			d.Admission.ReleaseSubscription(sub.Owner)
		}
		if err := d.Context.Unsubscribe(id); err != nil && !errors.Is(err, ngsi.ErrNotFound) {
			return err
		}
		if d.Webhooks != nil {
			d.Webhooks.Remove(id)
		}
		return nil
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
	if d.Webhooks == nil {
		return nil
	}
	for _, v := range d.Context.Subscriptions() {
		url, ok := d.Webhooks.URL(v.ID)
		if !ok {
			continue // in-process wiring: rebuilt on startup, not persisted
		}
		rec, err := wal.EncodeSubscriptionPut(wal.NewSubscriptionRecord(v, url))
		if err != nil {
			return err
		}
		if err := sink(rec); err != nil {
			return err
		}
	}
	return nil
}
