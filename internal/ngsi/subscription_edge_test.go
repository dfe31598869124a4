package ngsi

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
)

// TestThrottlingIsPerEntity: one throttled subscription watching two
// entities suppresses repeats per entity, not globally.
func TestThrottlingIsPerEntity(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	b := NewBroker(BrokerConfig{Clock: sim})
	defer b.Close()
	var notes atomic.Int32
	if _, err := b.Subscribe(Subscription{
		EntityIDPattern: "urn:x:*",
		Throttling:      time.Minute,
		Notifier:        Callback(func(Notification) { notes.Add(1) }),
	}); err != nil {
		t.Fatal(err)
	}
	// Same instant: each entity gets its first notification through.
	b.UpdateAttrs("urn:x:1", "T", map[string]Attribute{"a": num(1)})
	b.UpdateAttrs("urn:x:2", "T", map[string]Attribute{"a": num(2)})
	waitFor(t, time.Second, func() bool { return notes.Load() == 2 })
	// Repeats inside the window are throttled for both.
	b.UpdateAttrs("urn:x:1", "T", map[string]Attribute{"a": num(3)})
	b.UpdateAttrs("urn:x:2", "T", map[string]Attribute{"a": num(4)})
	time.Sleep(20 * time.Millisecond)
	if notes.Load() != 2 {
		t.Fatalf("throttling not per-entity: %d notifications", notes.Load())
	}
	if c := b.Metrics().Counter("ngsi.notify.throttled").Value(); c != 2 {
		t.Errorf("throttled counter = %d, want 2", c)
	}
	// After the window, both fire again.
	sim.Advance(2 * time.Minute)
	b.UpdateAttrs("urn:x:1", "T", map[string]Attribute{"a": num(5)})
	b.UpdateAttrs("urn:x:2", "T", map[string]Attribute{"a": num(6)})
	waitFor(t, time.Second, func() bool { return notes.Load() == 4 })
}

// TestThrottledSubscriptionStillSeesOtherEntitiesFresh: a throttle refusal
// for one entity must not consume another entity's budget (regression guard
// for the shared lastNotified map across shards).
func TestThrottledSubscriptionStillSeesOtherEntitiesFresh(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	b := NewBroker(BrokerConfig{Clock: sim, Shards: 4})
	defer b.Close()
	var notes atomic.Int32
	b.Subscribe(Subscription{
		EntityIDPattern: "*",
		Throttling:      time.Minute,
		Notifier:        Callback(func(Notification) { notes.Add(1) }),
	})
	b.UpdateAttrs("e1", "T", map[string]Attribute{"a": num(1)})
	b.UpdateAttrs("e1", "T", map[string]Attribute{"a": num(2)}) // throttled
	b.UpdateAttrs("e2", "T", map[string]Attribute{"a": num(3)}) // different entity: fresh
	waitFor(t, time.Second, func() bool { return notes.Load() == 2 })
}

// TestPrefixPatternMatching: '*'-suffixed patterns match by prefix across
// shards; exact and non-matching ids stay silent.
func TestPrefixPatternMatching(t *testing.T) {
	b := NewBroker(BrokerConfig{Shards: 4})
	defer b.Close()
	var farmNotes, allNotes atomic.Int32
	if _, err := b.Subscribe(Subscription{
		EntityIDPattern: "urn:farm:*",
		Notifier:        Callback(func(Notification) { farmNotes.Add(1) }),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(Subscription{
		EntityIDPattern: "*",
		Notifier:        Callback(func(Notification) { allNotes.Add(1) }),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b.UpdateAttrs(fmt.Sprintf("urn:farm:%d", i), "T", map[string]Attribute{"a": num(1)})
	}
	b.UpdateAttrs("urn:other:1", "T", map[string]Attribute{"a": num(1)})
	waitFor(t, time.Second, func() bool { return allNotes.Load() == 5 })
	if farmNotes.Load() != 4 {
		t.Errorf("prefix subscription fired %d times, want 4", farmNotes.Load())
	}
}

// TestWildcardWithTypeRestriction: a "*" pattern plus EntityType only sees
// entities of that type.
func TestWildcardWithTypeRestriction(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var probeNotes atomic.Int32
	b.Subscribe(Subscription{
		EntityIDPattern: "*",
		EntityType:      "SoilProbe",
		Notifier:        Callback(func(Notification) { probeNotes.Add(1) }),
	})
	var allNotes atomic.Int32
	b.Subscribe(Subscription{
		EntityIDPattern: "*",
		Notifier:        Callback(func(Notification) { allNotes.Add(1) }),
	})
	b.UpdateAttrs("p1", "SoilProbe", map[string]Attribute{"a": num(1)})
	b.UpdateAttrs("v1", "Pivot", map[string]Attribute{"a": num(1)})
	waitFor(t, time.Second, func() bool { return allNotes.Load() == 2 })
	if probeNotes.Load() != 1 {
		t.Errorf("typed wildcard fired %d times, want 1", probeNotes.Load())
	}
}

// TestConditionAndNotifyAttrsIntersect: ConditionAttrs gates on the
// changed set while NotifyAttrs filters the delivered snapshot — they are
// independent, so a condition attribute outside NotifyAttrs still fires
// but is not delivered.
func TestConditionAndNotifyAttrsIntersect(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var got atomic.Value
	var notes atomic.Int32
	if _, err := b.Subscribe(Subscription{
		EntityIDPattern: "*",
		ConditionAttrs:  []string{"soilMoisture"},
		NotifyAttrs:     []string{"battery"},
		Notifier: Callback(func(n Notification) {
			got.Store(n)
			notes.Add(1)
		}),
	}); err != nil {
		t.Fatal(err)
	}
	// Change only non-condition attributes: no notification.
	b.UpdateAttrs("e", "T", map[string]Attribute{"battery": num(0.9)})
	time.Sleep(20 * time.Millisecond)
	if notes.Load() != 0 {
		t.Fatal("non-condition change fired the subscription")
	}
	// Change the condition attribute: fires, but delivers only NotifyAttrs.
	b.UpdateAttrs("e", "T", map[string]Attribute{"soilMoisture": num(0.2), "airTemp": num(30)})
	waitFor(t, time.Second, func() bool { return notes.Load() == 1 })
	n := got.Load().(Notification)
	if _, ok := n.Entity.Attrs["battery"]; !ok {
		t.Error("NotifyAttrs attribute missing from snapshot")
	}
	if _, leaked := n.Entity.Attrs["soilMoisture"]; leaked {
		t.Error("attribute outside NotifyAttrs delivered")
	}
	if _, leaked := n.Entity.Attrs["airTemp"]; leaked {
		t.Error("attribute outside NotifyAttrs delivered")
	}
	// A condition attribute alongside unrelated changes still fires
	// (intersection, not equality).
	b.UpdateAttrs("e", "T", map[string]Attribute{"airTemp": num(31), "soilMoisture": num(0.19)})
	waitFor(t, time.Second, func() bool { return notes.Load() == 2 })
}

// TestNoNotificationsAfterClose: updates after Close are rejected with
// ErrClosed and handlers never run again.
func TestNoNotificationsAfterClose(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	var notes atomic.Int32
	if _, err := b.Subscribe(Subscription{
		EntityIDPattern: "*",
		Notifier:        Callback(func(Notification) { notes.Add(1) }),
	}); err != nil {
		t.Fatal(err)
	}
	b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(1)})
	b.Close()
	delivered := notes.Load()
	if delivered != 1 {
		t.Fatalf("queued notification not drained by Close: %d", delivered)
	}
	if err := b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(2)}); err != ErrClosed {
		t.Errorf("update after close = %v, want ErrClosed", err)
	}
	if err := b.BatchUpdate(map[string]BatchEntry{
		"e": {Type: "T", Attrs: map[string]Attribute{"a": num(3)}},
	}); err != ErrClosed {
		t.Errorf("batch update after close = %v, want ErrClosed", err)
	}
	time.Sleep(20 * time.Millisecond)
	if notes.Load() != delivered {
		t.Error("handler ran after Close")
	}
}

// TestUnsubscribeRemovesFromIndex: exact, prefix and wildcard
// subscriptions all stop firing after Unsubscribe (the rebuilt index must
// drop every shape).
func TestUnsubscribeRemovesFromIndex(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var notes atomic.Int32
	h := func(Notification) { notes.Add(1) }
	ids := make([]string, 0, 3)
	for _, pattern := range []string{"urn:a:1", "urn:a:*", "*"} {
		id, err := b.Subscribe(Subscription{EntityIDPattern: pattern, Notifier: Callback(h)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	b.UpdateAttrs("urn:a:1", "T", map[string]Attribute{"a": num(1)})
	waitFor(t, time.Second, func() bool { return notes.Load() == 3 })
	for _, id := range ids {
		if err := b.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	b.UpdateAttrs("urn:a:1", "T", map[string]Attribute{"a": num(2)})
	time.Sleep(20 * time.Millisecond)
	if notes.Load() != 3 {
		t.Errorf("unsubscribed handlers fired: %d total", notes.Load())
	}
	if b.SubscriptionCount() != 0 {
		t.Errorf("subscription count = %d", b.SubscriptionCount())
	}
}

// TestBatchUpdateNotifiesPerEntity: one BatchUpdate fires matching
// subscriptions once per updated entity and is visible atomically per
// shard.
func TestBatchUpdateNotifiesPerEntity(t *testing.T) {
	b := NewBroker(BrokerConfig{Shards: 4})
	defer b.Close()
	var notes atomic.Int32
	b.Subscribe(Subscription{EntityIDPattern: "*", Notifier: Callback(func(Notification) { notes.Add(1) })})
	batch := make(map[string]BatchEntry, 10)
	for i := 0; i < 10; i++ {
		batch[fmt.Sprintf("e%d", i)] = BatchEntry{Type: "T", Attrs: map[string]Attribute{"a": num(float64(i))}}
	}
	if err := b.BatchUpdate(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return notes.Load() == 10 })
	if b.EntityCount() != 10 {
		t.Errorf("entity count = %d", b.EntityCount())
	}
	if got := b.Metrics().Counter("ngsi.batch.entities").Value(); got != 10 {
		t.Errorf("batch entities counter = %d", got)
	}
}

// collectScan is the pre-index behavior the index is pinned to: test every
// subscription with MatchIDPattern.
func collectScan(all []*subState, id, typ string) []*subState {
	var out []*subState
	for _, st := range all {
		if MatchIDPattern(st.sub.EntityIDPattern, id) && st.matchesType(typ) {
			out = append(out, st)
		}
	}
	return out
}

// TestIndexMatchesLinearScan pins the subscription index to
// MatchIDPattern's semantics: for every pattern shape × entity id, the
// indexed collect must select exactly the subscriptions the pre-index
// linear scan (MatchIDPattern over all of them) selects. If the pattern
// language ever grows, this catches the index diverging from the matcher.
func TestIndexMatchesLinearScan(t *testing.T) {
	patterns := []struct{ pattern, typ string }{
		{"", ""}, {"*", ""}, {"*", "SoilProbe"}, {"", "Pivot"},
		{"urn:a:1", ""}, {"urn:a:1", "SoilProbe"}, {"urn:a:*", ""},
		{"urn:a:*", "Pivot"}, {"urn:*", ""}, {"urn:a:10", ""},
	}
	ix := newSubIndex()
	var all []*subState
	for _, p := range patterns {
		st := newSubState(Subscription{
			EntityIDPattern: p.pattern, EntityType: p.typ,
			Notifier: Callback(func(Notification) {}),
		})
		all = append(all, st)
		ix.add(st)
	}
	entities := []struct{ id, typ string }{
		{"urn:a:1", "SoilProbe"}, {"urn:a:1", "Pivot"}, {"urn:a:10", "SoilProbe"},
		{"urn:a:2", "Pivot"}, {"urn:b:1", "SoilProbe"}, {"x", "Thing"},
	}
	key := func(st *subState) string { return st.sub.EntityIDPattern + "|" + st.sub.EntityType }
	for _, e := range entities {
		want := map[string]int{}
		for _, st := range collectScan(all, e.id, e.typ) {
			want[key(st)]++
		}
		got := map[string]int{}
		for _, st := range ix.collect(e.id, e.typ, nil) {
			got[key(st)]++
		}
		if len(got) != len(want) {
			t.Errorf("entity (%q,%q): indexed %v, scan %v", e.id, e.typ, got, want)
			continue
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("entity (%q,%q): pattern %q indexed %d, scan %d", e.id, e.typ, k, got[k], n)
			}
		}
	}
}

// TestBatchUpdateValidatesBeforeApplying: one bad entry fails the whole
// batch and nothing is applied.
func TestBatchUpdateValidatesBeforeApplying(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	err := b.BatchUpdate(map[string]BatchEntry{
		"good": {Type: "T", Attrs: map[string]Attribute{"a": num(1)}},
		"bad":  {Type: "", Attrs: map[string]Attribute{"a": num(2)}},
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if b.EntityCount() != 0 {
		t.Error("partial batch applied despite validation error")
	}
}

// TestSubscribeExplicitIDAdvancesCounter: re-registering a recovered
// generated id must advance the generator so fresh subscriptions never
// collide with recovered ones.
func TestSubscribeExplicitIDAdvancesCounter(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	noop := Callback(func(Notification) {})
	if _, err := b.Subscribe(Subscription{ID: "urn:swamp:subscription:000042", EntityIDPattern: "*", Notifier: noop}); err != nil {
		t.Fatal(err)
	}
	id, err := b.Subscribe(Subscription{EntityIDPattern: "*", Notifier: noop})
	if err != nil {
		t.Fatal(err)
	}
	if want := "urn:swamp:subscription:000043"; id != want {
		t.Fatalf("generated id %q, want %s", id, want)
	}
}
