package ngsi

import (
	"slices"
	"strings"
)

// table is one shard's entity store: the current version of every entity
// in a slice ordered by id, and beside it one dense numeric column per
// attribute name. A scan reads a numeric comparison off the column before
// it touches an entity, and hands its matches back already in id order; a
// point read is a binary search of the same slice, so the table is the
// only index. Every write goes through put or remove under the shard's
// write lock, so a reader under the read lock always sees a version and its
// cells together.
type table struct {
	rows []*Entity          // current versions, strictly ascending by ID
	cols map[string]*column // attribute name → numeric mirror of rows
}

// column mirrors Attribute.Float() of one attribute across a table's rows:
// has[i] reports whether rows[i] carries the attribute with a numeric
// value, vals[i] is that value (0 otherwise). Both are as long as rows. A
// column is created by the first numeric value stored under its name and
// lives as long as the table — 9 bytes for every row of the shard,
// whether or not the row carries the attribute.
type column struct {
	vals []float64
	has  []bool
}

func newTable() table { return table{cols: make(map[string]*column)} }

// find returns the row holding id, or the row it would be inserted at. An
// id above every stored one — provisioning in ascending order — skips the
// binary search.
func (t *table) find(id string) (int, bool) {
	if n := len(t.rows); n == 0 || t.rows[n-1].ID < id {
		return n, false
	}
	return slices.BinarySearchFunc(t.rows, id, func(e *Entity, id string) int {
		return strings.Compare(e.ID, id)
	})
}

// get returns id's current version, nil if there is none.
func (t *table) get(id string) *Entity {
	if i, found := t.find(id); found {
		return t.rows[i]
	}
	return nil
}

// put publishes e as the current version of its id and brings the row's
// column cells in line with it. changed names the attributes a merge
// wrote: the predecessor's other cells still hold for e and are left
// alone. nil means e replaces its predecessor wholesale (UpsertEntity, a
// reinstated delete), so the cells of attributes it dropped are cleared
// and all of its own are written. A new id is inserted at its place in
// the order — an append when it sorts last, otherwise an O(rows) shift of
// rows and of every column.
func (t *table) put(e *Entity, changed []string) {
	i, found := t.find(e.ID)
	switch {
	case !found:
		t.rows = slices.Insert(t.rows, i, e)
		for _, c := range t.cols {
			c.vals = slices.Insert(c.vals, i, 0)
			c.has = slices.Insert(c.has, i, false)
		}
	case changed != nil:
		t.rows[i] = e
		for _, k := range changed {
			t.setCell(i, k, e.Attrs[k])
		}
		return
	default:
		for k := range t.rows[i].Attrs {
			if c := t.cols[k]; c != nil {
				c.vals[i], c.has[i] = 0, false
			}
		}
		t.rows[i] = e
	}
	for k, a := range e.Attrs {
		t.setCell(i, k, a)
	}
}

// setCell mirrors attribute k of row i into its column, creating the
// column on the first numeric value stored under that name.
func (t *table) setCell(i int, k string, a Attribute) {
	v, ok := a.Float()
	c := t.cols[k]
	if c == nil {
		if !ok {
			return
		}
		c = &column{vals: make([]float64, len(t.rows)), has: make([]bool, len(t.rows))}
		t.cols[k] = c
	}
	c.vals[i], c.has[i] = v, ok
}

// remove deletes id's row and its cells and returns the version that was
// stored, nil if there was none.
func (t *table) remove(id string) *Entity {
	i, found := t.find(id)
	if !found {
		return nil
	}
	e := t.rows[i]
	t.rows = slices.Delete(t.rows, i, i+1)
	for _, c := range t.cols {
		c.vals = slices.Delete(c.vals, i, i+1)
		c.has = slices.Delete(c.has, i, i+1)
	}
	return e
}

// columnsFor resolves conds against the table's columns: cols[j] is the
// column that answers conds[j], nil for a condition the columns do not
// cover (string comparison, existence). It reports false when a numeric
// comparison names an attribute no row carries as a number — nothing in
// the table can match then.
func (t *table) columnsFor(conds []Condition, cols []*column) bool {
	for j, c := range conds {
		cols[j] = nil
		if c.numeric() {
			if cols[j] = t.cols[c.Attr]; cols[j] == nil {
				return false
			}
		}
	}
	return true
}
