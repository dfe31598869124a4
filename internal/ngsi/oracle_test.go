package ngsi

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The oracle is the query pipeline the broker used to run, at its most
// literal: deep-copy every stored entity, filter the copies, sort them
// with a comparator that re-derives the sort key on every comparison,
// slice the page, and deep-copy the projection. It shares only the
// condition evaluator (unchanged, and tested on its own) with the engine.

func oracleQuery(model map[string]*Entity, q Query) QueryResult {
	var matched []*Entity
	for id, e := range model {
		if !MatchIDPattern(q.IDPattern, id) || (q.Type != "" && e.Type != q.Type) {
			continue
		}
		if cp := e.Clone(); matchConditions(cp, q.Conditions) {
			matched = append(matched, cp)
		}
	}
	res := QueryResult{Total: -1}
	if q.Count {
		res.Total = len(matched)
	}
	oracleSort(matched, q.OrderBy)
	if q.Offset >= len(matched) {
		matched = nil
	} else {
		matched = matched[q.Offset:]
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	for i, e := range matched {
		if len(q.Attrs) == 0 {
			continue
		}
		cp := &Entity{ID: e.ID, Type: e.Type, Attrs: map[string]Attribute{}}
		for _, k := range q.Attrs {
			if a, ok := e.Attrs[k]; ok {
				cp.Attrs[k] = cloneAttr(a)
			}
		}
		matched[i] = cp
	}
	res.Entities = matched
	return res
}

// oracleSort: numeric values first, then strings and booleans, then
// entities without a usable value; '!' reverses values but not that rank
// order; ties fall back to ascending id.
func oracleSort(list []*Entity, orderBy string) {
	key := strings.TrimPrefix(orderBy, "!")
	desc := strings.HasPrefix(orderBy, "!")
	rank := func(e *Entity) (int, float64, string) {
		switch v := e.Attrs[key].Value.(type) {
		case float64:
			return 0, v, ""
		case int:
			return 0, float64(v), ""
		case string:
			return 1, 0, v
		case bool:
			return 1, 0, fmt.Sprint(v)
		}
		return 2, 0, ""
	}
	sort.SliceStable(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if key == "" || key == OrderByID {
			if desc {
				return a.ID > b.ID
			}
			return a.ID < b.ID
		}
		ra, na, sa := rank(a)
		rb, nb, sb := rank(b)
		switch {
		case ra != rb:
			return ra < rb
		case na != nb:
			return (na < nb) != desc
		case sa != sb:
			return (sa < sb) != desc
		}
		return a.ID < b.ID
	})
}

func oracleAttr(rng *rand.Rand, v any) Attribute {
	a := Attribute{Type: "T", Value: v, At: time.Unix(1_700_000_000+rng.Int63n(1e6), 0).UTC()}
	if rng.Intn(3) == 0 {
		a.Metadata = map[string]string{"device": fmt.Sprint("d", rng.Intn(50)), "owner": "farm1"}
	}
	return a
}

// oracleAttrs draws an entity's attributes: numeric (float64 and int),
// string, boolean, one that is a number on some entities and a string on
// others, and ones that are often missing. Values repeat, so orderings tie.
func oracleAttrs(rng *rand.Rand) map[string]Attribute {
	attrs := map[string]Attribute{}
	if rng.Intn(10) > 0 {
		attrs["m"] = oracleAttr(rng, float64(rng.Intn(40))/40)
	}
	if rng.Intn(10) > 1 {
		attrs["zone"] = oracleAttr(rng, fmt.Sprint("z", rng.Intn(6)))
	}
	switch rng.Intn(4) {
	case 0:
		attrs["mixed"] = oracleAttr(rng, rng.Intn(8))
	case 1:
		attrs["mixed"] = oracleAttr(rng, string(rune('w'+rng.Intn(3))))
	case 2:
		attrs["mixed"] = oracleAttr(rng, map[string]any{"nested": float64(rng.Intn(3))})
	}
	if rng.Intn(5) == 0 {
		attrs["rare"] = oracleAttr(rng, rng.Intn(2) == 0)
	}
	return attrs
}

func oracleQueryDraw(t *testing.T, rng *rand.Rand, names []string) Query {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	q := Query{
		IDPattern: pick("", "*", "urn:o:a:*", "urn:o:b:*", "urn:o:a:00*", names[rng.Intn(len(names))], "none*"),
		Type:      pick("", "", "SoilProbe", "Pivot"),
		OrderBy:   pick(OrderByID, "!id", "", "m", "!m", "zone", "!zone", "mixed", "!mixed", "rare", "absent"),
		Count:     rng.Intn(2) == 0,
	}
	var stmts []string
	for n := rng.Intn(4); n > 0; n-- {
		stmts = append(stmts, pick("m<0.5", "m>=0.2", "m==0.25", "zone==z3", "zone!='z3'", "zone>z1",
			"rare", "!rare", "rare==true", "mixed>3", "mixed==x", "mixed", "!absent"))
	}
	conds, err := ParseQ(strings.Join(stmts, ";"))
	if err != nil {
		t.Fatal(err)
	}
	q.Conditions = conds
	switch rng.Intn(5) {
	case 0:
		q.Attrs = []string{"zone"}
	case 1:
		q.Attrs = []string{"m", "zone"}
	case 2:
		q.Attrs = []string{"absent"}
	}
	n := len(names)
	q.Offset = []int{0, 0, n / 7, n / 2, n, n + 5}[rng.Intn(6)]
	q.Limit = []int{0, 1, 1 + n/5, 100, 1000}[rng.Intn(5)]
	return q
}

// TestQueryMatchesCloneOracle compares the engine (match → order → cut →
// project over shared versions) with the clone-everything oracle on seeded
// stores and seeded queries.
func TestQueryMatchesCloneOracle(t *testing.T) {
	sizes := []int{1, 2, 9, 100, 100, 333, 1000, 2000}
	if testing.Short() {
		sizes = sizes[:6]
	}
	for si, size := range sizes {
		rng := rand.New(rand.NewSource(int64(1000 + si)))
		b := NewBroker(BrokerConfig{Shards: 1 + rng.Intn(16)})
		model := make(map[string]*Entity, size)
		names := make([]string, size)
		for i := range names {
			names[i] = fmt.Sprintf("urn:o:%c:%04d", 'a'+rune(rng.Intn(2)), i)
			e := &Entity{ID: names[i], Type: []string{"SoilProbe", "Pivot", "Weather"}[rng.Intn(3)], Attrs: oracleAttrs(rng)}
			model[e.ID] = e.Clone()
			if err := b.UpsertEntity(e); err != nil {
				t.Fatal(err)
			}
		}
		// Merges on top, so most stored entities are second-or-later versions.
		for n := size; n > 0; n-- {
			id := names[rng.Intn(size)]
			attrs := map[string]Attribute{"m": oracleAttr(rng, float64(rng.Intn(40))/40)}
			if rng.Intn(4) == 0 {
				attrs["late"] = oracleAttr(rng, "x")
			}
			if err := b.UpdateAttrs(id, "ignored", attrs); err != nil {
				t.Fatal(err)
			}
			for k, a := range attrs {
				model[id].Attrs[k] = cloneAttr(a)
			}
		}
		for qi := 0; qi < 120; qi++ {
			q := oracleQueryDraw(t, rng, names)
			got, err := b.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleQuery(model, q)
			if q.OrderBy == "" && !q.Count && q.Limit > 0 {
				// The unordered early stop may return any Offset+Limit
				// matches; with Count off it is only comparable in full
				// when fewer than that many exist.
				all := oracleQuery(model, Query{IDPattern: q.IDPattern, Type: q.Type, Conditions: q.Conditions, Attrs: q.Attrs})
				if len(all.Entities) > q.Offset+q.Limit {
					checkArbitraryPage(t, got, all, q)
					continue
				}
			}
			if got.Total != want.Total || len(got.Entities) != len(want.Entities) ||
				(len(want.Entities) > 0 && !reflect.DeepEqual(got.Entities, want.Entities)) {
				t.Fatalf("store %d (%d entities, %d shards) query %d %+v:\n got total %d, %d entities %v\nwant total %d, %d entities %v",
					si, size, b.ShardCount(), qi, q, got.Total, len(got.Entities), ids(got.Entities),
					want.Total, len(want.Entities), ids(want.Entities))
			}
		}
		b.Close()
	}
}

// checkArbitraryPage: a full page, ascending by id, every entity on it a
// match identical to the oracle's copy of it.
func checkArbitraryPage(t *testing.T, got, all QueryResult, q Query) {
	t.Helper()
	byID := make(map[string]*Entity, len(all.Entities))
	for _, e := range all.Entities {
		byID[e.ID] = e
	}
	if len(got.Entities) != q.Limit || got.Total != -1 {
		t.Fatalf("unordered query %+v: %d entities, total %d", q, len(got.Entities), got.Total)
	}
	for i, e := range got.Entities {
		if i > 0 && got.Entities[i-1].ID >= e.ID {
			t.Fatalf("unordered query %+v: page not ascending by id at %d", q, i)
		}
		if !reflect.DeepEqual(e, byID[e.ID]) {
			t.Fatalf("unordered query %+v: %s is not the matching stored entity", q, e.ID)
		}
	}
}
