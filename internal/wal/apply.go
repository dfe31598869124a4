package wal

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// Applier is the one place that says what an entity or telemetry record
// does to the stores. Crash recovery, a cluster follower and the test
// harnesses all replay through it; subscription records stay with the
// caller, which owns the webhook lanes and quota slots they rebuild.
//
// Add decodes a record and queues its elements: attribute merges
// coalesce into one BatchUpdate and points into one AppendBatch, both
// applied by Flush. An upsert or a delete applies at once, after the
// merges queued before it, so record order is apply order on the entity
// plane. The telemetry plane is a separate store and applies at Flush.
type Applier struct {
	Context *ngsi.Broker
	Store   *timeseries.Store
	// Keep, when set, drops the elements whose key it rejects: an
	// entity's id, a series' device.
	Keep func(key string) bool
	// SkipRepeats drops a point its series already holds at the same
	// time with the same value. A follower sets it: resuming from a
	// trailing offset sidecar re-sends records it has applied, and their
	// points are the only repeats a leader's stream carries. Recovery
	// leaves it off, because the snapshot and the tail split the acked
	// points exactly.
	SkipRepeats bool

	merges map[string]ngsi.BatchEntry
	pts    []timeseries.BatchPoint
}

func (a *Applier) keep(key string) bool { return a.Keep == nil || a.Keep(key) }

// Add decodes rec and queues the elements Keep passes; an upsert or a
// delete applies at once. A record that does not decode, or whose type
// does not apply to the stores, is an error.
func (a *Applier) Add(rec Record) error {
	switch rec.Type {
	case TypeEntityUpsert:
		e, err := DecodeEntityUpsert(rec)
		if err != nil || !a.keep(e.ID) {
			return err
		}
		if err := a.flushMerges(); err != nil {
			return err
		}
		return a.Context.UpsertEntity(e)
	case TypeEntityMerge:
		entries, err := DecodeEntityMerge(rec)
		if err != nil {
			return err
		}
		for _, en := range entries {
			if !a.keep(en.ID) {
				continue
			}
			if a.merges == nil {
				a.merges = make(map[string]ngsi.BatchEntry)
			}
			// The decoded maps are the applier's own (BatchUpdate copies
			// what it stores), so a later merge of the same entity
			// writes into the first one's map.
			if be, ok := a.merges[en.ID]; ok {
				maps.Copy(be.Attrs, en.Attrs)
			} else {
				a.merges[en.ID] = ngsi.BatchEntry{Type: en.Type, Attrs: en.Attrs}
			}
		}
		return nil
	case TypeEntityDelete:
		id, err := DecodeID(rec)
		if err != nil || !a.keep(id) {
			return err
		}
		if err := a.flushMerges(); err != nil {
			return err
		}
		// The snapshot, or a follower's wipe, may already lack it.
		if err := a.Context.DeleteEntity(id); err != nil && !errors.Is(err, ngsi.ErrNotFound) {
			return err
		}
		return nil
	case TypeTelemetry:
		pts, err := DecodeTelemetry(rec)
		if err != nil {
			return err
		}
		for _, bp := range pts {
			if a.keep(bp.Key.Device) {
				a.pts = append(a.pts, bp)
			}
		}
		return nil
	}
	return fmt.Errorf("wal: record type %d does not apply to the stores", rec.Type)
}

// Flush applies the queued merges and points and returns how many points
// landed.
func (a *Applier) Flush() (int, error) {
	if err := a.flushMerges(); err != nil {
		return 0, err
	}
	pts := a.pts
	a.pts = a.pts[:0]
	if a.SkipRepeats {
		pts = a.dropRepeats(pts)
	}
	if len(pts) == 0 {
		return 0, nil
	}
	accepted, rejected, err := a.Store.AppendBatch(pts)
	if err == nil && rejected > 0 {
		err = fmt.Errorf("wal: replay rejected %d telemetry points", rejected)
	}
	return accepted, err
}

// Apply is Add then Flush: one record applied before the next.
func (a *Applier) Apply(rec Record) error {
	if err := a.Add(rec); err != nil {
		return err
	}
	_, err := a.Flush()
	return err
}

func (a *Applier) flushMerges() error {
	if len(a.merges) == 0 {
		return nil
	}
	err := a.Context.BatchUpdate(a.merges)
	clear(a.merges)
	return err
}

// dropRepeats keeps, in order, the points their series does not already
// hold at the same time with the same value. A point newer than its
// series' latest cannot be held, so only older ones are looked up.
func (a *Applier) dropRepeats(pts []timeseries.BatchPoint) []timeseries.BatchPoint {
	latest := make(map[timeseries.SeriesKey]time.Time)
	kept := pts[:0]
	for _, bp := range pts {
		last, seen := latest[bp.Key]
		if !seen {
			if p, ok := a.Store.Latest(bp.Key); ok {
				last = p.At
			}
			latest[bp.Key] = last
		}
		if !bp.Point.At.After(last) && a.holds(bp) {
			continue
		}
		kept = append(kept, bp)
	}
	return kept
}

func (a *Applier) holds(bp timeseries.BatchPoint) bool {
	found := false
	a.Store.Iter(bp.Key, bp.Point.At, bp.Point.At.Add(1), func(p timeseries.Point) bool {
		found = p.Value == bp.Point.Value
		return !found
	})
	return found
}

// Keys returns the keys of a record's elements, an entity's id or a
// series' device, repeats included. It returns nil for a record that
// does not apply to the stores or does not decode.
func Keys(rec Record) []string {
	switch rec.Type {
	case TypeEntityUpsert:
		if e, err := DecodeEntityUpsert(rec); err == nil {
			return []string{e.ID}
		}
	case TypeEntityMerge:
		entries, _ := DecodeEntityMerge(rec)
		keys := make([]string, len(entries))
		for i, en := range entries {
			keys[i] = en.ID
		}
		return keys
	case TypeEntityDelete:
		if id, err := DecodeID(rec); err == nil {
			return []string{id}
		}
	case TypeTelemetry:
		pts, _ := DecodeTelemetry(rec)
		keys := make([]string, len(pts))
		for i, bp := range pts {
			keys[i] = bp.Key.Device
		}
		return keys
	}
	return nil
}

// telemetrySnapshotChunk bounds the points per snapshot record so one
// huge series cannot produce an oversized record.
const telemetrySnapshotChunk = 2048

// DumpStores writes the store half of a snapshot. Order matters:
//
//  1. telemetry first, under DumpFrozen: the store is frozen while the
//     WAL rotates, which is what makes point recovery exact-count;
//  2. then entities, after the rotation, so any concurrent update is in
//     the tail too; replaying it on top of the snapshot converges
//     because attribute writes are absolute.
//
// A caller with webhook subscriptions writes them after this returns, so
// replaying the snapshot's entities never fires them.
func DumpStores(ctx *ngsi.Broker, store *timeseries.Store, rotate func() error, sink func(Record) error) error {
	err := store.DumpFrozen(rotate, func(key timeseries.SeriesKey, pts []timeseries.Point) error {
		for start := 0; start < len(pts); start += telemetrySnapshotChunk {
			end := min(start+telemetrySnapshotChunk, len(pts))
			batch := make([]timeseries.BatchPoint, end-start)
			for i := range batch {
				batch[i] = timeseries.BatchPoint{Key: key, Point: pts[start+i]}
			}
			rec, err := EncodeTelemetry(batch)
			if err != nil {
				return err
			}
			if err := sink(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return ctx.DumpEntities(func(e *ngsi.Entity) error {
		rec, err := EncodeEntityUpsert(e)
		if err != nil {
			return err
		}
		return sink(rec)
	})
}
