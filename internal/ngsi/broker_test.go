package ngsi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
)

func num(v float64) Attribute { return Attribute{Type: "Number", Value: v} }

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

func TestUpsertGetDelete(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()

	e := &Entity{ID: "urn:swamp:plot:1", Type: "AgriParcel", Attrs: map[string]Attribute{
		"soilMoisture": num(0.23),
	}}
	if err := b.UpsertEntity(e); err != nil {
		t.Fatal(err)
	}
	got, err := b.GetEntity("urn:swamp:plot:1")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Attrs["soilMoisture"].Float(); !ok || v != 0.23 {
		t.Errorf("soilMoisture = %v", got.Attrs["soilMoisture"].Value)
	}
	if got.Attrs["soilMoisture"].At.IsZero() {
		t.Error("timestamp not stamped")
	}

	if err := b.DeleteEntity("urn:swamp:plot:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.GetEntity("urn:swamp:plot:1"); err == nil {
		t.Error("deleted entity still readable")
	}
	if err := b.DeleteEntity("urn:swamp:plot:1"); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestUpsertValidation(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	for i, e := range []*Entity{
		{ID: "", Type: "T"},
		{ID: "x", Type: ""},
		{ID: "has space", Type: "T"},
	} {
		if err := b.UpsertEntity(e); err == nil {
			t.Errorf("case %d: invalid entity accepted", i)
		}
	}
}

// TestGetReturnsStoredVersion pins GetEntity's read contract: it hands
// out the stored version itself, read-only, as Query does, and a later
// write publishes a new version beside it instead of editing it, so the
// version returned earlier still reads the old value.
func TestGetReturnsStoredVersion(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	b.UpsertEntity(&Entity{ID: "e1", Type: "T", Attrs: map[string]Attribute{"a": num(1)}})
	v1, err := b.GetEntity("e1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Query(Query{IDPattern: "e1"})
	if err != nil || len(res.Entities) != 1 || res.Entities[0] != v1 {
		t.Fatalf("GetEntity and Query disagree on the stored version: %v, %v", res.Entities, err)
	}
	if again, _ := b.GetEntity("e1"); again != v1 {
		t.Fatal("two reads of an unchanged entity returned different versions")
	}
	if err := b.UpdateAttrs("e1", "T", map[string]Attribute{"a": num(2)}); err != nil {
		t.Fatal(err)
	}
	v2, _ := b.GetEntity("e1")
	if v2 == v1 {
		t.Fatal("a write edited the stored version in place")
	}
	if a, _ := v1.Attrs["a"].Float(); a != 1 {
		t.Errorf("the version returned before the write reads a=%v, want 1", a)
	}
	if a, _ := v2.Attrs["a"].Float(); a != 2 {
		t.Errorf("the new version reads a=%v, want 2", a)
	}
}

func TestUpdateAttrsMergesAndCreates(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	// Creates on first update (IoT-agent path).
	if err := b.UpdateAttrs("e1", "Device", map[string]Attribute{"t": num(20)}); err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateAttrs("e1", "Device", map[string]Attribute{"h": num(0.5)}); err != nil {
		t.Fatal(err)
	}
	e, err := b.GetEntity("e1")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Attrs) != 2 {
		t.Errorf("attrs = %v", e.AttrNames())
	}
	if err := b.UpdateAttrs("e1", "Device", nil); err == nil {
		t.Error("empty update accepted")
	}
}

// queryByID lists every entity matching the id pattern and type, sorted
// by id.
func queryByID(t *testing.T, b *Broker, idPattern, entityType string) []*Entity {
	t.Helper()
	res, err := b.Query(Query{IDPattern: idPattern, Type: entityType, OrderBy: OrderByID})
	if err != nil {
		t.Error(err)
	}
	return res.Entities
}

func TestQueryEntities(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	for i := 0; i < 5; i++ {
		b.UpsertEntity(&Entity{ID: fmt.Sprintf("urn:probe:%d", i), Type: "SoilProbe"})
	}
	b.UpsertEntity(&Entity{ID: "urn:pivot:1", Type: "Pivot"})

	if got := queryByID(t, b, "urn:probe:*", ""); len(got) != 5 {
		t.Errorf("prefix query returned %d", len(got))
	}
	if got := queryByID(t, b, "*", "Pivot"); len(got) != 1 {
		t.Errorf("type query returned %d", len(got))
	}
	if got := queryByID(t, b, "", ""); len(got) != 6 {
		t.Errorf("match-all returned %d", len(got))
	}
	got := queryByID(t, b, "urn:probe:*", "")
	for i := 1; i < len(got); i++ {
		if got[i-1].ID >= got[i].ID {
			t.Error("query result not sorted")
		}
	}
}

func TestSubscriptionFires(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var notes atomic.Int32
	var last atomic.Value
	_, err := b.Subscribe(Subscription{
		EntityIDPattern: "urn:plot:*",
		ConditionAttrs:  []string{"soilMoisture"},
		Notifier: Callback(func(n Notification) {
			last.Store(n) // before the count the test waits on
			notes.Add(1)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Non-matching attr change: no notification.
	b.UpdateAttrs("urn:plot:1", "AgriParcel", map[string]Attribute{"airTemp": num(30)})
	// Matching change: notify.
	b.UpdateAttrs("urn:plot:1", "AgriParcel", map[string]Attribute{"soilMoisture": num(0.19)})
	waitFor(t, time.Second, func() bool { return notes.Load() == 1 })

	n := last.Load().(Notification)
	if n.Entity.ID != "urn:plot:1" {
		t.Errorf("notified entity %q", n.Entity.ID)
	}
	// Entity outside the pattern: no notification.
	b.UpdateAttrs("urn:pivot:9", "Pivot", map[string]Attribute{"soilMoisture": num(0.5)})
	time.Sleep(20 * time.Millisecond)
	if notes.Load() != 1 {
		t.Errorf("notes = %d, want 1", notes.Load())
	}
}

func TestSubscriptionNotifyAttrsFilter(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var got atomic.Value
	b.Subscribe(Subscription{
		EntityIDPattern: "*",
		NotifyAttrs:     []string{"soilMoisture"},
		Notifier:        Callback(func(n Notification) { got.Store(n) }),
	})
	b.UpsertEntity(&Entity{ID: "e", Type: "T", Attrs: map[string]Attribute{
		"soilMoisture": num(0.3), "secret": num(42),
	}})
	waitFor(t, time.Second, func() bool { return got.Load() != nil })
	n := got.Load().(Notification)
	if _, leaked := n.Entity.Attrs["secret"]; leaked {
		t.Error("NotifyAttrs filter leaked attribute")
	}
	if _, ok := n.Entity.Attrs["soilMoisture"]; !ok {
		t.Error("requested attribute missing")
	}
}

func TestSubscriptionThrottling(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	b := NewBroker(BrokerConfig{Clock: sim})
	defer b.Close()
	var notes atomic.Int32
	b.Subscribe(Subscription{
		EntityIDPattern: "*",
		Throttling:      time.Minute,
		Notifier:        Callback(func(Notification) { notes.Add(1) }),
	})
	for i := 0; i < 5; i++ {
		b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(float64(i))})
	}
	waitFor(t, time.Second, func() bool { return notes.Load() >= 1 })
	time.Sleep(20 * time.Millisecond)
	if notes.Load() != 1 {
		t.Fatalf("throttling allowed %d notifications in one instant", notes.Load())
	}
	sim.Advance(2 * time.Minute)
	b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(99)})
	waitFor(t, time.Second, func() bool { return notes.Load() == 2 })
	if c := b.Metrics().Counter("ngsi.notify.throttled").Value(); c != 4 {
		t.Errorf("throttled counter = %d, want 4", c)
	}
}

func TestUnsubscribe(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var notes atomic.Int32
	id, _ := b.Subscribe(Subscription{EntityIDPattern: "*", Notifier: Callback(func(Notification) { notes.Add(1) })})
	if err := b.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(id); err == nil {
		t.Error("double unsubscribe succeeded")
	}
	b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(1)})
	time.Sleep(20 * time.Millisecond)
	if notes.Load() != 0 {
		t.Error("unsubscribed handler still invoked")
	}
}

func TestSubscribeValidation(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	if _, err := b.Subscribe(Subscription{EntityIDPattern: "*"}); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := b.Subscribe(Subscription{ID: "s1", EntityIDPattern: "*", Notifier: Callback(func(Notification) {})}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(Subscription{ID: "s1", EntityIDPattern: "*", Notifier: Callback(func(Notification) {})}); err == nil {
		t.Error("duplicate subscription id accepted")
	}
}

func TestMatchIDPattern(t *testing.T) {
	tests := []struct {
		pattern, id string
		want        bool
	}{
		{"*", "anything", true},
		{"", "anything", true},
		{"urn:a:1", "urn:a:1", true},
		{"urn:a:1", "urn:a:2", false},
		{"urn:a:*", "urn:a:7", true},
		{"urn:a:*", "urn:b:7", false},
	}
	for _, tc := range tests {
		if got := MatchIDPattern(tc.pattern, tc.id); got != tc.want {
			t.Errorf("MatchIDPattern(%q,%q) = %v", tc.pattern, tc.id, got)
		}
	}
}

func TestBatchUpdate(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	updates := map[string]struct {
		Type  string
		Attrs map[string]Attribute
	}{
		"e1": {Type: "T", Attrs: map[string]Attribute{"a": num(1)}},
		"e2": {Type: "T", Attrs: map[string]Attribute{"a": num(2)}},
		"e3": {Type: "T", Attrs: map[string]Attribute{"a": num(3)}},
	}
	if err := b.BatchUpdate(updates); err != nil {
		t.Fatal(err)
	}
	if b.EntityCount() != 3 {
		t.Errorf("entity count = %d", b.EntityCount())
	}
}

func TestClosedBrokerRejects(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	b.Close()
	b.Close() // idempotent
	if err := b.UpsertEntity(&Entity{ID: "e", Type: "T"}); err != ErrClosed {
		t.Errorf("upsert after close = %v", err)
	}
	if _, err := b.Subscribe(Subscription{EntityIDPattern: "*", Notifier: Callback(func(Notification) {})}); err != ErrClosed {
		t.Errorf("subscribe after close = %v", err)
	}
}

func TestConcurrentUpdatesAndQueries(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("e%d", w)
				b.UpdateAttrs(id, "T", map[string]Attribute{"v": num(float64(i))})
				queryByID(t, b, "e*", "")
				b.GetEntity(id)
			}
		}(w)
	}
	wg.Wait()
	if b.EntityCount() != 8 {
		t.Errorf("entity count = %d", b.EntityCount())
	}
}

// Property: after any sequence of attribute updates, the stored value for
// each attribute equals the last value written.
func TestLastWriteWinsProperty(t *testing.T) {
	f := func(values []float64) bool {
		if len(values) == 0 {
			return true
		}
		b := NewBroker(BrokerConfig{})
		defer b.Close()
		for _, v := range values {
			if v != v { // skip NaN inputs
				continue
			}
			b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(v)})
		}
		e, err := b.GetEntity("e")
		if err != nil {
			return true // all inputs were NaN
		}
		got, _ := e.Attrs["a"].Float()
		var want float64
		found := false
		for _, v := range values {
			if v == v {
				want = v
				found = true
			}
		}
		return !found || got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
