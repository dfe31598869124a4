package ngsi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// churnJournal accepts everything except the delete it was told to fail.
type churnJournal struct {
	stubJournal
	failDelete bool
}

func (j *churnJournal) EntityDeleted(string) JournalAck {
	if j.failDelete {
		j.failDelete = false
		return stubAck{err: errors.New("disk full")}
	}
	return stubAck{}
}

// churn drives one broker and a model of what it should hold through every
// write path the entity table rides on.
type churn struct {
	t     *testing.T
	rng   *rand.Rand
	b     *Broker
	j     *churnJournal
	model map[string]*Entity
	names []string
}

func newChurn(t *testing.T, seed int64, ids int) *churn {
	rng := rand.New(rand.NewSource(seed))
	c := &churn{
		t: t, rng: rng, j: &churnJournal{}, model: make(map[string]*Entity),
		b: NewBroker(BrokerConfig{Shards: 1 + rng.Intn(9)}),
	}
	c.b.SetJournal(c.j)
	t.Cleanup(c.b.Close)
	for i := 0; i < ids; i++ {
		c.names = append(c.names, fmt.Sprintf("urn:o:%c:%04d", 'a'+rune(rng.Intn(2)), i))
	}
	return c
}

// flip draws the attribute that changes kind between versions: float64,
// string, int, json.Number — and, through a wholesale upsert without it,
// missing.
func (c *churn) flip() Attribute {
	switch c.rng.Intn(4) {
	case 0:
		return oracleAttr(c.rng, float64(c.rng.Intn(10))/10)
	case 1:
		return oracleAttr(c.rng, "x")
	case 2:
		return oracleAttr(c.rng, c.rng.Intn(3))
	}
	return oracleAttr(c.rng, json.Number(fmt.Sprintf("0.%d", c.rng.Intn(10))))
}

// step applies one random mutation to the broker and to the model.
func (c *churn) step() {
	t, rng := c.t, c.rng
	id := c.names[rng.Intn(len(c.names))]
	switch op := rng.Intn(10); {
	case op < 3: // create, or replace wholesale — attributes of the old version drop
		e := &Entity{ID: id, Type: []string{"SoilProbe", "Pivot", "Weather"}[rng.Intn(3)], Attrs: oracleAttrs(rng)}
		if rng.Intn(2) == 0 {
			e.Attrs["flip"] = c.flip()
		}
		if err := c.b.UpsertEntity(e); err != nil {
			t.Fatal(err)
		}
		c.model[id] = e.Clone()
	case op < 7: // merge (creating the entity when absent)
		attrs := map[string]Attribute{}
		if rng.Intn(4) > 0 {
			attrs["m"] = oracleAttr(rng, float64(rng.Intn(40))/40)
		}
		if rng.Intn(3) == 0 {
			attrs["late"] = oracleAttr(rng, "x")
		}
		if len(attrs) == 0 || rng.Intn(3) == 0 {
			attrs["flip"] = c.flip()
		}
		if err := c.b.UpdateAttrs(id, "Weather", attrs); err != nil {
			t.Fatal(err)
		}
		if c.model[id] == nil {
			c.model[id] = &Entity{ID: id, Type: "Weather", Attrs: map[string]Attribute{}}
		}
		for k, a := range attrs {
			c.model[id].Attrs[k] = cloneAttr(a)
		}
	case op < 9: // delete
		err := c.b.DeleteEntity(id)
		if _, stored := c.model[id]; stored != (err == nil) || (err != nil && !errors.Is(err, ErrNotFound)) {
			t.Fatalf("DeleteEntity(%s) = %v, stored %v", id, err, stored)
		}
		delete(c.model, id)
	default: // delete whose journal record fails: the version is reinstated
		_, stored := c.model[id]
		c.j.failDelete = stored
		if err := c.b.DeleteEntity(id); stored && !errors.Is(err, ErrDurability) {
			t.Fatalf("DeleteEntity(%s) with a failing journal = %v", id, err)
		}
	}
}

// checkTables holds every shard's table to its invariants: rows strictly
// ascending by id, each on its own shard, the same versions the model
// holds, and every column cell the Float() of its row's attribute.
func (c *churn) checkTables() {
	c.t.Helper()
	rows := 0
	for si, sh := range c.b.shards {
		// No writer runs beside the check, so it reads without the shard
		// lock — a failure must not leave one held for Close to wait on.
		for i, e := range sh.rows {
			if i > 0 && sh.rows[i-1].ID >= e.ID {
				c.t.Fatalf("shard %d: rows[%d] %s not above rows[%d] %s", si, i, e.ID, i-1, sh.rows[i-1].ID)
			}
			if c.b.shardIndex(e.ID) != si {
				c.t.Fatalf("shard %d holds %s of shard %d", si, e.ID, c.b.shardIndex(e.ID))
			}
			if !reflect.DeepEqual(e, c.model[e.ID]) {
				c.t.Fatalf("shard %d row %d: stored %+v, model %+v", si, i, e, c.model[e.ID])
			}
			if sh.get(e.ID) != e {
				c.t.Fatalf("shard %d: point read of %s misses row %d", si, e.ID, i)
			}
			for k, a := range e.Attrs {
				if _, numeric := a.Float(); numeric && sh.cols[k] == nil {
					c.t.Fatalf("shard %d: no column for numeric attribute %q of %s", si, k, e.ID)
				}
			}
		}
		for k, col := range sh.cols {
			if len(col.vals) != len(sh.rows) || len(col.has) != len(sh.rows) {
				c.t.Fatalf("shard %d column %q: %d values, %d marks, %d rows", si, k, len(col.vals), len(col.has), len(sh.rows))
			}
			for i, e := range sh.rows {
				if v, ok := e.Attrs[k].Float(); col.has[i] != ok || col.vals[i] != v {
					c.t.Fatalf("shard %d column %q row %d (%s): cell (%v, %v), attribute (%v, %v)",
						si, k, i, e.ID, col.vals[i], col.has[i], v, ok)
				}
			}
		}
		rows += len(sh.rows)
	}
	if rows != len(c.model) || c.b.EntityCount() != rows {
		c.t.Fatalf("%d rows, EntityCount %d, model %d", rows, c.b.EntityCount(), len(c.model))
	}
}

// TestTableTracksVersions: 300 seeded histories of creates, wholesale
// upserts that drop attributes, merges, deletes, journal-failed deletes
// and an attribute that changes kind; after every step each shard's rows
// and columns agree with the versions they index.
func TestTableTracksVersions(t *testing.T) {
	histories := 300
	if testing.Short() {
		histories = 60
	}
	for h := 0; h < histories; h++ {
		c := newChurn(t, int64(7000+h), 3+h%12)
		for step := 0; step < 60; step++ {
			c.step()
			c.checkTables()
		}
		c.b.Close()
	}
}

// TestQueryMatchesCloneOracleUnderChurn runs the clone-everything oracle
// between mutations, so listings are checked against tables that have seen
// inserts mid-slice, removals, reinstated deletes and cells cleared and
// rewritten — and, beyond the static oracle test, with an IDFilter and
// conditions on the attribute that changes kind.
func TestQueryMatchesCloneOracleUnderChurn(t *testing.T) {
	for si, size := range []int{1, 12, 80, 400} {
		c := newChurn(t, int64(9000+si), size)
		for i := 0; i < 2*size; i++ {
			c.step()
		}
		for round := 0; round < 150; round++ {
			for n := c.rng.Intn(4); n >= 0; n-- {
				c.step()
			}
			q := oracleQueryDraw(t, c.rng, c.names)
			if c.rng.Intn(3) == 0 {
				extra, err := ParseQ([]string{"flip>=0.5", "flip<1", "flip==x", "flip!=0.3", "!flip"}[c.rng.Intn(5)])
				if err != nil {
					t.Fatal(err)
				}
				q.Conditions = append(q.Conditions, extra...)
			}
			model := c.model
			if c.rng.Intn(3) == 0 {
				// The oracle knows no IDFilter: it sees the model cut down to
				// the ids the filter accepts.
				keep := byte('0' + c.rng.Intn(10))
				q.IDFilter = func(id string) bool { return id[len(id)-1] != keep }
				model = make(map[string]*Entity, len(c.model))
				for id, e := range c.model {
					if q.IDFilter(id) {
						model[id] = e
					}
				}
			}
			got, err := c.b.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleQuery(model, q)
			if q.OrderBy == "" && !q.Count && q.Limit > 0 {
				all := oracleQuery(model, Query{IDPattern: q.IDPattern, Type: q.Type, Conditions: q.Conditions, Attrs: q.Attrs})
				if len(all.Entities) > q.Offset+q.Limit {
					checkArbitraryPage(t, got, all, q)
					continue
				}
			}
			if got.Total != want.Total || len(got.Entities) != len(want.Entities) ||
				(len(want.Entities) > 0 && !reflect.DeepEqual(got.Entities, want.Entities)) {
				t.Fatalf("store %d (%d ids, %d shards) round %d %+v:\n got total %d, %d entities %v\nwant total %d, %d entities %v",
					si, size, c.b.ShardCount(), round, q, got.Total, len(got.Entities), ids(got.Entities),
					want.Total, len(want.Entities), ids(want.Entities))
			}
		}
		c.checkTables()
		c.b.Close()
	}
}

// TestColumnScanSeesWholeVersions: writers merge numeric values across all
// shards while readers run a numeric-and-string listing. A reader must
// never pair one version's column cell with another version's entity:
// every entity satisfies the conditions as returned, ids ascend without
// duplicates, and the count covers the page.
func TestColumnScanSeesWholeVersions(t *testing.T) {
	const entities = 400
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	name := func(i int) string { return fmt.Sprintf("urn:race:probe:%04d", i) }
	for i := 0; i < entities; i++ {
		if err := b.UpsertEntity(&Entity{ID: name(i), Type: "SoilProbe", Attrs: map[string]Attribute{
			"m":    num(float64(i%10) / 10),
			"zone": {Type: "Text", Value: fmt.Sprint("z", i%6)},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	conds, err := ParseQ("m>0.45;zone==z3")
	if err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 1500; n++ {
				attrs := map[string]Attribute{"m": num(float64(rng.Intn(10)) / 10)}
				if err := b.UpdateAttrs(name(rng.Intn(entities)), "SoilProbe", attrs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < 50 || !done.Load(); n++ {
				res, err := b.Query(Query{Conditions: conds, OrderBy: OrderByID, Offset: r, Limit: 25, Count: true})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Total < r+len(res.Entities) {
					t.Errorf("total %d below offset %d + page %d", res.Total, r, len(res.Entities))
				}
				for i, e := range res.Entities {
					if !matchConditions(e, conds) {
						t.Errorf("%s returned with m=%v zone=%v", e.ID, e.Attrs["m"].Value, e.Attrs["zone"].Value)
					}
					if i > 0 && strings.Compare(res.Entities[i-1].ID, e.ID) >= 0 {
						t.Errorf("page not strictly ascending at %d: %s, %s", i, res.Entities[i-1].ID, e.ID)
					}
				}
				if t.Failed() {
					return
				}
			}
		}()
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
}

// TestQueryBeyondStackScratch: more conditions and more shards than the
// query's stack-allocated scratch holds take the heap-grown path to the
// same answer.
func TestQueryBeyondStackScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBroker(BrokerConfig{Shards: 24})
	defer b.Close()
	model := make(map[string]*Entity)
	for i := 0; i < 300; i++ {
		e := &Entity{ID: fmt.Sprintf("urn:o:a:%04d", i), Type: "SoilProbe", Attrs: oracleAttrs(rng)}
		model[e.ID] = e.Clone()
		if err := b.UpsertEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	conds, err := ParseQ("m>=0.1;m<0.9;m!=0.5;m<=0.8;m>0.1;zone>z0;zone!=z5;!absent;m;zone")
	if err != nil {
		t.Fatal(err)
	}
	for _, orderBy := range []string{OrderByID, "!id", "m"} {
		q := Query{Conditions: conds, OrderBy: orderBy, Offset: 3, Limit: 40, Count: true}
		got, want := mustQuery(t, b, q), oracleQuery(model, q)
		if want.Total < 50 || got.Total != want.Total || !reflect.DeepEqual(got.Entities, want.Entities) {
			t.Fatalf("orderBy %q: got %d of %d %v, want %d of %d %v", orderBy,
				len(got.Entities), got.Total, ids(got.Entities), len(want.Entities), want.Total, ids(want.Entities))
		}
	}
}
