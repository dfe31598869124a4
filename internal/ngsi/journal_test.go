package ngsi

import (
	"errors"
	"sync/atomic"
	"testing"
)

type stubAck struct{ err error }

func (a stubAck) Wait() error { return a.err }

// stubJournal fails the mutations with configured errors and accepts
// everything else.
type stubJournal struct{ putErr, delErr, entityDelErr error }

func (j stubJournal) EntityUpserted(*Entity) JournalAck      { return stubAck{} }
func (j stubJournal) EntitiesMerged([]MergeEntry) JournalAck { return stubAck{} }
func (j stubJournal) EntityDeleted(string) JournalAck        { return stubAck{err: j.entityDelErr} }
func (j stubJournal) SubscriptionPut(SubscriptionView) JournalAck {
	return stubAck{err: j.putErr}
}
func (j stubJournal) SubscriptionDeleted(string) JournalAck { return stubAck{err: j.delErr} }

func TestSubscribeJournalFailureRollsBack(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	werr := errors.New("disk full")
	b.SetJournal(stubJournal{putErr: werr})

	var fired atomic.Int32
	id, err := b.Subscribe(Subscription{
		EntityIDPattern: "*",
		URL:             "http://example.test/hook", // journal-eligible
		Notifier:        Callback(func(Notification) { fired.Add(1) }),
	})
	if !errors.Is(err, werr) {
		t.Fatalf("Subscribe error = %v, want %v", err, werr)
	}
	if id != "" {
		t.Errorf("failed Subscribe returned id %q", id)
	}
	if n := b.SubscriptionCount(); n != 0 {
		t.Fatalf("SubscriptionCount = %d after failed Subscribe", n)
	}

	// The rolled-back subscription must not deliver: Close drains the
	// dispatch queues, so fired is final after it.
	if err := b.UpsertEntity(&Entity{ID: "urn:swamp:plot:1", Type: "AgriParcel", Attrs: map[string]Attribute{
		"soilMoisture": num(0.5),
	}}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if n := fired.Load(); n != 0 {
		t.Fatalf("rolled-back subscription delivered %d notifications", n)
	}
}

func TestUnsubscribeJournalFailureRollsBack(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	werr := errors.New("disk full")
	b.SetJournal(stubJournal{delErr: werr})

	var fired atomic.Int32
	id, err := b.Subscribe(Subscription{
		EntityIDPattern: "*",
		URL:             "http://example.test/hook", // journal-eligible
		Notifier:        Callback(func(Notification) { fired.Add(1) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(id); !errors.Is(err, werr) {
		t.Fatalf("Unsubscribe error = %v, want %v", err, werr)
	}
	// The failed delete must leave the subscription live — it would
	// resurrect on restart anyway (the delete record never became
	// durable).
	if n := b.SubscriptionCount(); n != 1 {
		t.Fatalf("SubscriptionCount = %d after failed Unsubscribe, want 1", n)
	}
	if err := b.UpsertEntity(&Entity{ID: "urn:swamp:plot:1", Type: "AgriParcel", Attrs: map[string]Attribute{
		"soilMoisture": num(0.5),
	}}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if n := fired.Load(); n != 1 {
		t.Fatalf("subscription delivered %d notifications after rolled-back Unsubscribe, want 1", n)
	}
}

func TestDeleteEntityJournalFailureRollsBack(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	if err := b.UpsertEntity(&Entity{ID: "urn:swamp:plot:1", Type: "AgriParcel", Attrs: map[string]Attribute{
		"soilMoisture": num(0.5),
	}}); err != nil {
		t.Fatal(err)
	}
	werr := errors.New("disk full")
	b.SetJournal(stubJournal{entityDelErr: werr})

	err := b.DeleteEntity("urn:swamp:plot:1")
	if !errors.Is(err, werr) || !errors.Is(err, ErrDurability) {
		t.Fatalf("DeleteEntity error = %v, want ErrDurability wrapping %v", err, werr)
	}
	// The failed delete must leave the entity readable — it would
	// resurrect on restart anyway (the delete record never became
	// durable, while the upserts did).
	if _, err := b.GetEntity("urn:swamp:plot:1"); err != nil {
		t.Fatalf("entity gone after rolled-back delete: %v", err)
	}
}
