package wal

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/tenant"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// Typed record codecs. Encoders emit the compact CodecBinary bodies
// (see binary.go) and fall back to the v1 JSON payloads per record for
// the shapes binary cannot carry — timestamps outside the unix-nano
// range, zero telemetry stamps. Decoders dispatch on Record.Codec, so
// v1 segments and snapshots replay unchanged. One caveat is shared by
// both codecs: integer attribute values round-trip as float64, which
// ngsi.Attribute.Float already treats as equivalent.

// SubscriptionRecord is the declarative, durable slice of a webhook
// subscription: everything needed to rebuild it on recovery, including
// its callback URL (Endpoint). In-process subscriptions (fog sync, cloud
// ingest, anomaly feed) are platform wiring re-created on startup and
// are never journaled.
type SubscriptionRecord struct {
	ID              string        `json:"id"`
	EntityIDPattern string        `json:"pattern"`
	EntityType      string        `json:"entityType,omitempty"`
	ConditionAttrs  []string      `json:"conditionAttrs,omitempty"`
	NotifyAttrs     []string      `json:"notifyAttrs,omitempty"`
	Throttling      time.Duration `json:"throttling,omitempty"`
	Owner           string        `json:"owner,omitempty"`
	Endpoint        string        `json:"endpoint"`
}

type mergePayload struct {
	Entries []mergeEntry `json:"entries"`
}

type mergeEntry struct {
	ID    string                    `json:"id"`
	Type  string                    `json:"type"`
	Attrs map[string]ngsi.Attribute `json:"attrs"`
}

type idPayload struct {
	ID string `json:"id"`
}

type telemetryPayload struct {
	Points []timeseries.BatchPoint `json:"points"`
}

func encode(t Type, v any) (Record, error) {
	p, err := json.Marshal(v)
	if err != nil {
		return Record{}, fmt.Errorf("wal: encode type %d: %w", t, err)
	}
	return Record{Type: t, Payload: p}, nil
}

// EncodeEntityUpsert records a full entity replacement.
func EncodeEntityUpsert(e *ngsi.Entity) (Record, error) {
	if rec, ok, err := binEncodeEntityUpsert(e); err != nil {
		return Record{}, fmt.Errorf("wal: encode type %d: %w", TypeEntityUpsert, err)
	} else if ok {
		return rec, nil
	}
	return encode(TypeEntityUpsert, e)
}

// DecodeEntityUpsert inverts EncodeEntityUpsert.
func DecodeEntityUpsert(rec Record) (*ngsi.Entity, error) {
	if rec.Codec == CodecBinary {
		return binDecodeEntityUpsert(rec)
	}
	var e ngsi.Entity
	if err := json.Unmarshal(rec.Payload, &e); err != nil {
		return nil, fmt.Errorf("wal: entity upsert payload: %w", err)
	}
	return &e, nil
}

// EncodeEntityMerge records one shard's resolved attribute-merge batch.
func EncodeEntityMerge(entries []ngsi.MergeEntry) (Record, error) {
	if rec, ok, err := binEncodeEntityMerge(entries); err != nil {
		return Record{}, fmt.Errorf("wal: encode type %d: %w", TypeEntityMerge, err)
	} else if ok {
		return rec, nil
	}
	p := mergePayload{Entries: make([]mergeEntry, len(entries))}
	for i, e := range entries {
		p.Entries[i] = mergeEntry{ID: e.ID, Type: e.Type, Attrs: e.Attrs}
	}
	return encode(TypeEntityMerge, p)
}

// DecodeEntityMerge inverts EncodeEntityMerge.
func DecodeEntityMerge(rec Record) ([]ngsi.MergeEntry, error) {
	if rec.Codec == CodecBinary {
		return binDecodeEntityMerge(rec)
	}
	var p mergePayload
	if err := json.Unmarshal(rec.Payload, &p); err != nil {
		return nil, fmt.Errorf("wal: entity merge payload: %w", err)
	}
	out := make([]ngsi.MergeEntry, len(p.Entries))
	for i, e := range p.Entries {
		out[i] = ngsi.MergeEntry{ID: e.ID, Type: e.Type, Attrs: e.Attrs}
	}
	return out, nil
}

// EncodeEntityDelete records an entity deletion.
func EncodeEntityDelete(id string) (Record, error) {
	return binEncodeID(TypeEntityDelete, id), nil
}

// EncodeSubscriptionDelete records a subscription removal.
func EncodeSubscriptionDelete(id string) (Record, error) {
	return binEncodeID(TypeSubscriptionDelete, id), nil
}

// DecodeID inverts EncodeEntityDelete / EncodeSubscriptionDelete.
func DecodeID(rec Record) (string, error) {
	if rec.Codec == CodecBinary {
		return binDecodeID(rec)
	}
	var p idPayload
	if err := json.Unmarshal(rec.Payload, &p); err != nil {
		return "", fmt.Errorf("wal: id payload: %w", err)
	}
	return p.ID, nil
}

// NewSubscriptionRecord builds the durable record for a webhook
// subscription — the single view→record mapping shared by the journal
// hook and the snapshot dump, so the two cannot drift when a field is
// added. Subscription is its inverse.
func NewSubscriptionRecord(v ngsi.SubscriptionView) SubscriptionRecord {
	return SubscriptionRecord{
		ID:              v.ID,
		EntityIDPattern: v.EntityIDPattern,
		EntityType:      v.EntityType,
		ConditionAttrs:  v.ConditionAttrs,
		NotifyAttrs:     v.NotifyAttrs,
		Throttling:      v.Throttling,
		Owner:           string(v.Owner),
		Endpoint:        v.URL,
	}
}

// Subscription is the webhook subscription a record rebuilds on replay.
func (sr SubscriptionRecord) Subscription() ngsi.Subscription {
	return ngsi.Subscription{
		ID:              sr.ID,
		EntityIDPattern: sr.EntityIDPattern,
		EntityType:      sr.EntityType,
		ConditionAttrs:  sr.ConditionAttrs,
		NotifyAttrs:     sr.NotifyAttrs,
		Throttling:      sr.Throttling,
		Owner:           tenant.ID(sr.Owner),
		URL:             sr.Endpoint,
	}
}

// EncodeSubscriptionPut records a durable webhook subscription.
func EncodeSubscriptionPut(sr SubscriptionRecord) (Record, error) {
	return binEncodeSubscriptionPut(sr), nil
}

// DecodeSubscriptionPut inverts EncodeSubscriptionPut.
func DecodeSubscriptionPut(rec Record) (SubscriptionRecord, error) {
	if rec.Codec == CodecBinary {
		return binDecodeSubscriptionPut(rec)
	}
	var sr SubscriptionRecord
	if err := json.Unmarshal(rec.Payload, &sr); err != nil {
		return sr, fmt.Errorf("wal: subscription payload: %w", err)
	}
	return sr, nil
}

// EncodeTelemetry records a batch of time-series points.
func EncodeTelemetry(batch []timeseries.BatchPoint) (Record, error) {
	if rec, ok, err := binEncodeTelemetry(batch); err != nil {
		return Record{}, fmt.Errorf("wal: encode type %d: %w", TypeTelemetry, err)
	} else if ok {
		return rec, nil
	}
	return encode(TypeTelemetry, telemetryPayload{Points: batch})
}

// DecodeTelemetry inverts EncodeTelemetry.
func DecodeTelemetry(rec Record) ([]timeseries.BatchPoint, error) {
	if rec.Codec == CodecBinary {
		return binDecodeTelemetry(rec)
	}
	var p telemetryPayload
	if err := json.Unmarshal(rec.Payload, &p); err != nil {
		return nil, fmt.Errorf("wal: telemetry payload: %w", err)
	}
	return p.Points, nil
}

// erredAck is a pre-failed durability handle for encoding errors.
type erredAck struct{ err error }

func (a erredAck) Wait() error { return a.err }

// ContextJournal adapts the manager to ngsi.Journal: every accepted
// context mutation becomes one appended record. The broker calls these
// hooks while holding the relevant shard (or subscription) lock, which
// is what makes log order match apply order; only the enqueue happens
// under the lock — the fsync wait is the caller's, after unlock.
func (m *Manager) ContextJournal() ngsi.Journal { return ctxJournal{m} }

type ctxJournal struct{ m *Manager }

func (j ctxJournal) EntityUpserted(e *ngsi.Entity) ngsi.JournalAck {
	rec, err := EncodeEntityUpsert(e)
	if err != nil {
		return erredAck{err}
	}
	return j.m.Append(rec)
}

func (j ctxJournal) EntitiesMerged(entries []ngsi.MergeEntry) ngsi.JournalAck {
	rec, err := EncodeEntityMerge(entries)
	if err != nil {
		return erredAck{err}
	}
	return j.m.Append(rec)
}

func (j ctxJournal) EntityDeleted(id string) ngsi.JournalAck {
	rec, err := EncodeEntityDelete(id)
	if err != nil {
		return erredAck{err}
	}
	return j.m.Append(rec)
}

func (j ctxJournal) SubscriptionPut(v ngsi.SubscriptionView) ngsi.JournalAck {
	rec, err := EncodeSubscriptionPut(NewSubscriptionRecord(v))
	if err != nil {
		return erredAck{err}
	}
	return j.m.Append(rec)
}

func (j ctxJournal) SubscriptionDeleted(id string) ngsi.JournalAck {
	rec, err := EncodeSubscriptionDelete(id)
	if err != nil {
		return erredAck{err}
	}
	return j.m.Append(rec)
}

// TelemetryJournal adapts the manager to timeseries.Journal.
func (m *Manager) TelemetryJournal() timeseries.Journal { return tsJournal{m} }

type tsJournal struct{ m *Manager }

func (j tsJournal) PointsAppended(batch []timeseries.BatchPoint) timeseries.JournalAck {
	rec, err := EncodeTelemetry(batch)
	if err != nil {
		return erredAck{err}
	}
	return j.m.Append(rec)
}
