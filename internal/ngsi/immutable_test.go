package ngsi

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyDeleteJournal fails every other entity delete, so DeleteEntity's
// rollback (which re-publishes the version it removed) runs beside the
// other writers.
type flakyDeleteJournal struct {
	stubJournal
	deletes atomic.Int64
}

func (j *flakyDeleteJournal) EntityDeleted(string) JournalAck {
	if j.deletes.Add(1)%2 == 0 {
		return stubAck{err: errors.New("disk full")}
	}
	return stubAck{}
}

// heldVersions records entities a reader was handed, with a rendering of
// each taken at that moment.
type heldVersions struct {
	mu   sync.Mutex
	seen map[*Entity]string
}

// hold renders e and remembers it; an entity seen before must still
// render the same. Rendering reads every attribute, Metadata map and
// timestamp, so under -race a writer editing a published version in
// place is reported here as well.
func (h *heldVersions) hold(t *testing.T, e *Entity) {
	now := fmt.Sprintf("%+v", *e)
	h.mu.Lock()
	defer h.mu.Unlock()
	if before, ok := h.seen[e]; ok && before != now {
		t.Errorf("version of %s changed while held:\n was %s\n now %s", e.ID, before, now)
	}
	if len(h.seen) < 100_000 {
		h.seen[e] = now
	}
}

// TestVersionsAreImmutable runs every kind of writer against readers that
// keep what Query and notifications hand them — four that reuse and rewrite
// their maps between public calls, which copy, and one that feeds a Batcher,
// which does not and is handed a map of its own per Add. After the writers
// finish,
// no held entity may have changed, no two versions may share an attribute
// map, and every id must lead to a version of its own carrying that id.
func TestVersionsAreImmutable(t *testing.T) {
	const (
		writers = 10
		ops     = 250
		nIDs    = 48
	)
	b := NewBroker(BrokerConfig{Shards: 4})
	defer b.Close()
	b.SetJournal(&flakyDeleteJournal{})
	id := func(i int) string { return fmt.Sprintf("urn:imm:%02d", i) }

	held := &heldVersions{seen: make(map[*Entity]string)}
	for _, notifyAttrs := range [][]string{nil, {"a"}} {
		_, err := b.Subscribe(Subscription{
			EntityIDPattern: "urn:imm:*", NotifyAttrs: notifyAttrs,
			Notifier: Callback(func(n Notification) { held.hold(t, n.Entity) }),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	ba, err := NewBatcher(BatcherConfig{Writer: Local{Broker: b}})
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	// What the batching writers share the way the agent's provision does:
	// written once, here, and handed to every Add.
	sharedMeta := map[string]string{"device": "batched", "owner": "farm1"}

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				q := Query{IDPattern: "urn:imm:*", OrderBy: []string{OrderByID, "a", "!b", ""}[rng.Intn(4)], Limit: 1 + rng.Intn(nIDs)}
				if rng.Intn(3) == 0 {
					q.Attrs = []string{"b", "absent"}
				}
				want := ""
				if rng.Intn(4) == 0 {
					want = id(rng.Intn(nIDs))
					q.IDPattern = want
				}
				res, err := b.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range res.Entities {
					if want != "" && e.ID != want {
						t.Errorf("id %s leads to a version of %s", want, e.ID)
					}
					held.hold(t, e)
				}
			}
		}(r)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			// Each writer reuses and rewrites its own maps between calls:
			// the broker must have copied what it keeps.
			meta := map[string]string{"device": "d", "owner": "farm1"}
			attrs := map[string]Attribute{}
			for i := 0; i < ops; i++ {
				target := id(rng.Intn(nIDs))
				meta["device"] = fmt.Sprint("d", w, "-", i)
				attrs["a"] = Attribute{Type: "Number", Value: float64(i), Metadata: meta}
				attrs["b"] = Attribute{Type: "Text", Value: fmt.Sprint("w", w), At: time.Unix(int64(i), 0)}
				var err error
				switch w % 5 {
				case 0:
					err = b.UpdateAttrs(target, "T", attrs)
				case 1:
					batch := map[string]BatchEntry{}
					for n := 0; n < 5; n++ {
						batch[id(rng.Intn(nIDs))] = BatchEntry{Type: "T", Attrs: attrs}
					}
					err = b.BatchUpdate(batch)
				case 2:
					e := &Entity{ID: target, Type: "T", Attrs: attrs}
					err = b.UpsertEntity(e)
					e.Attrs["c"] = Attribute{Type: "Text", Value: "after the call"}
					delete(attrs, "c")
				case 3:
					if err = b.DeleteEntity(target); errors.Is(err, ErrNotFound) || errors.Is(err, ErrDurability) {
						err = nil
					}
				case 4:
					err = ba.Add(target, "T", map[string]Attribute{
						"a": {Type: "Number", Value: float64(i), Metadata: sharedMeta},
						"b": {Type: "Text", Value: fmt.Sprint("w", w), At: time.Unix(int64(i), 0)},
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ba.Close() // flushes the batched tail
	stop.Store(true)
	readers.Wait()
	b.Close() // drains the queued notifications into held

	held.mu.Lock()
	defer held.mu.Unlock()
	if len(held.seen) < writers*ops/2 {
		t.Fatalf("only %d versions held; the readers saw too little", len(held.seen))
	}
	attrMaps := make(map[uintptr]*Entity, len(held.seen))
	for e, before := range held.seen {
		if now := fmt.Sprintf("%+v", *e); now != before {
			t.Errorf("version of %s changed after it was handed out:\n was %s\n now %s", e.ID, before, now)
		}
		m := reflect.ValueOf(e.Attrs).Pointer()
		if other, shared := attrMaps[m]; shared {
			t.Errorf("versions %p (%s) and %p (%s) share one attribute map", e, e.ID, other, other.ID)
		}
		attrMaps[m] = e
	}
	stored := make(map[*Entity]string)
	for i := 0; i < nIDs; i++ {
		res, err := b.Query(Query{IDPattern: id(i)})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Entities {
			if e.ID != id(i) {
				t.Errorf("id %s leads to a version of %s", id(i), e.ID)
			}
			if other, dup := stored[e]; dup {
				t.Errorf("one version reachable from %s and %s", other, id(i))
			}
			stored[e] = id(i)
		}
	}
}
