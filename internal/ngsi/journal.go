package ngsi

import (
	"errors"
	"fmt"
)

// ErrDurability marks a mutation that was applied in memory but whose
// journal record could not be made durable (and, where possible, was
// rolled back). Surfaces map it to a server-side status so clients
// retry instead of treating the payload as rejected.
var ErrDurability = errors.New("ngsi: not durable")

// notDurable wraps a journal ack failure in ErrDurability, keeping the
// underlying error in the chain; nil stays nil.
func notDurable(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrDurability, err)
}

// JournalAck is the durability handle a Journal hook returns: Wait blocks
// until the logged mutation is durable (group-committed and fsynced) and
// reports the commit error. Write paths call the hook under the shard (or
// subscription) lock — so log order matches apply order — and Wait after
// releasing it, so an fsync never stalls other writers on the same shard.
type JournalAck interface {
	Wait() error
}

// MergeEntry is one entity's resolved slice of a journaled attribute
// merge: the attributes exactly as applied, timestamps already stamped,
// so replay reproduces the stored state byte for byte.
type MergeEntry struct {
	ID    string               `json:"id"`
	Type  string               `json:"type"`
	Attrs map[string]Attribute `json:"attrs"`
}

// Journal receives every accepted context mutation after it has been
// applied in memory. A mutation is only acknowledged to the caller once
// its ack's Wait returns nil, so "accepted" means "recoverable".
// Subscriptions are journaled only when they have a URL: in-process
// subscriptions are platform wiring re-created on startup.
type Journal interface {
	EntityUpserted(e *Entity) JournalAck
	EntitiesMerged(entries []MergeEntry) JournalAck
	EntityDeleted(id string) JournalAck
	SubscriptionPut(v SubscriptionView) JournalAck
	SubscriptionDeleted(id string) JournalAck
}

// SetJournal attaches a journal to the broker. It must be called before
// the broker receives traffic (i.e. between recovery and serving) — the
// field is read without synchronization on the write paths.
func (b *Broker) SetJournal(j Journal) { b.journal = j }

// waitAcks waits for every non-nil ack and returns the first error.
func waitAcks(acks []JournalAck) error {
	var first error
	for _, a := range acks {
		if a == nil {
			continue
		}
		if err := a.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
