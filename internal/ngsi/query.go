package ngsi

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Op is a filter comparison operator of the NGSI `q=` grammar.
type Op int

// Operators. OpExists/OpNotExists are the unary forms (`attr`, `!attr`).
const (
	OpExists Op = iota
	OpNotExists
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in `q=` syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpNotExists:
		return "!"
	}
	return ""
}

// Condition is one parsed filter statement: attribute, operator, value.
// Unquoted values that parse as numbers compare numerically and only
// match numeric attribute values; quoted values always compare as
// strings.
type Condition struct {
	Attr  string
	Op    Op
	Value string  // raw comparison text (quotes stripped)
	Num   float64 // parsed numeric value when IsNum
	IsNum bool
}

var qOps = []struct {
	text string
	op   Op
}{
	{"==", OpEq}, {"!=", OpNe}, {"<=", OpLe}, {">=", OpGe}, {"<", OpLt}, {">", OpGt},
}

// ParseQ parses an NGSI-v2 `q=` filter expression: `;`-separated
// conjunctions of `attr==value`, `attr!=value`, `attr<value`,
// `attr<=value`, `attr>value`, `attr>=value`, unary existence `attr` and
// non-existence `!attr`. Values may be single- or double-quoted to force
// string comparison ("temperature=='21'").
func ParseQ(q string) ([]Condition, error) {
	if strings.TrimSpace(q) == "" {
		return nil, nil
	}
	var out []Condition
	for _, stmt := range splitStatements(q) {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			return nil, fmt.Errorf("ngsi: q: empty statement")
		}
		c, err := parseStatement(stmt)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// splitStatements splits a q= expression on ';' conjunctions, but not
// on semicolons inside quoted values ("note=='a;b'"). An unterminated
// quote leaves the scanner in-quote to the end; the remainder reaches
// parseStatement, which reports the quoting error.
func splitStatements(q string) []string {
	var out []string
	var quote byte
	start := 0
	for i := 0; i < len(q); i++ {
		switch c := q[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ';':
			out = append(out, q[start:i])
			start = i + 1
		}
	}
	return append(out, q[start:])
}

func parseStatement(stmt string) (Condition, error) {
	for i := 0; i < len(stmt); i++ {
		for _, cand := range qOps {
			if !strings.HasPrefix(stmt[i:], cand.text) {
				continue
			}
			attr := strings.TrimSpace(stmt[:i])
			if attr == "" {
				return Condition{}, fmt.Errorf("ngsi: q: missing attribute in %q", stmt)
			}
			if err := validateQAttr(attr, stmt); err != nil {
				return Condition{}, err
			}
			raw := strings.TrimSpace(stmt[i+len(cand.text):])
			if raw == "" {
				return Condition{}, fmt.Errorf("ngsi: q: missing value in %q", stmt)
			}
			c := Condition{Attr: attr, Op: cand.op}
			var err error
			if c.Value, c.IsNum, err = parseQValue(raw, stmt); err != nil {
				return Condition{}, err
			}
			if c.IsNum {
				c.Num, _ = strconv.ParseFloat(c.Value, 64)
			}
			return c, nil
		}
	}
	// No binary operator: unary existence / non-existence.
	c := Condition{Op: OpExists, Attr: stmt}
	if strings.HasPrefix(stmt, "!") {
		c = Condition{Op: OpNotExists, Attr: strings.TrimSpace(stmt[1:])}
	}
	if c.Attr == "" {
		return Condition{}, fmt.Errorf("ngsi: q: missing attribute in %q", stmt)
	}
	if err := validateQAttr(c.Attr, stmt); err != nil {
		return Condition{}, err
	}
	return c, nil
}

// validateQAttr rejects attribute names containing operator or quote
// characters — the symptom of a malformed statement such as `attr=value`
// (single '=') or an unterminated quote.
func validateQAttr(attr, stmt string) error {
	if strings.ContainsAny(attr, "=<>!'\" \t") {
		return fmt.Errorf("ngsi: q: invalid operator in %q", stmt)
	}
	return nil
}

func parseQValue(raw, stmt string) (value string, isNum bool, err error) {
	if raw[0] == '\'' || raw[0] == '"' {
		quote := raw[0]
		if len(raw) < 2 || raw[len(raw)-1] != quote {
			return "", false, fmt.Errorf("ngsi: q: unterminated quote in %q", stmt)
		}
		return raw[1 : len(raw)-1], false, nil
	}
	if f, ferr := strconv.ParseFloat(raw, 64); ferr == nil {
		if math.IsNaN(f) {
			// NaN is unordered, so no comparison against it means anything;
			// ±Inf do order and stay legal.
			return "", false, fmt.Errorf("ngsi: q: NaN is not a comparable number in %q (quote it to compare as text)", stmt)
		}
		return raw, true, nil
	}
	return raw, false, nil
}

// numeric reports whether the condition compares numbers — the kind a
// shard answers from an attribute column (table.columnsFor).
func (c Condition) numeric() bool { return c.IsNum && c.Op >= OpEq }

// match evaluates the condition against an entity in place — no cloning,
// so the shard scan can reject non-matching entities for free.
func (c Condition) match(e *Entity) bool {
	a, ok := e.Attrs[c.Attr]
	switch c.Op {
	case OpExists:
		return ok
	case OpNotExists:
		return !ok
	}
	if !ok {
		return false
	}
	if c.IsNum {
		v, isNum := a.Float()
		return isNum && numCmp(v, c.Op, c.Num)
	}
	s, ok := attrString(a)
	return ok && cmpOp(strings.Compare(s, c.Value), c.Op)
}

// attrString renders string-comparable attribute values; numbers are
// excluded (they only match numeric condition values).
func attrString(a Attribute) (string, bool) {
	switch v := a.Value.(type) {
	case string:
		return v, true
	case bool:
		return strconv.FormatBool(v), true
	}
	return "", false
}

// numCmp reports whether `a op b` holds between two numbers — the one
// numeric comparison behind both Condition.match and the column scan. A
// NaN on either side is unordered: only != holds.
func numCmp(a float64, op Op, b float64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpOp(cmp int, op Op) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// OrderByID is the deterministic default ordering of the HTTP surface.
const OrderByID = "id"

// Query is a typed northbound context query: subject selection
// (IDPattern/Type), attribute filter conditions (parsed from the `q=`
// grammar by ParseQ), attribute projection, ordering and pagination. The
// broker answers it from its shards' entity tables: numeric comparisons are
// read off the attribute columns, the survivors are matched in place and
// collected by pointer in id order, an id ordering merges the shards' runs
// only page-deep, and only a projected page allocates per entity.
type Query struct {
	// IDPattern selects entities by id: exact, prefix with '*', or
	// ""/"*" for all.
	IDPattern string
	// Type, if non-empty, restricts to entities of that type.
	Type string
	// Conditions must all hold (`;`-conjunction). See ParseQ.
	Conditions []Condition
	// Attrs projects the result entities to these attributes; empty
	// keeps all.
	Attrs []string
	// OrderBy: "" means unordered (the scan stops as soon as
	// Offset+Limit matches are found); OrderByID ("id") sorts by entity
	// id; any other value sorts by that attribute's value (numeric
	// before string, missing last). A '!' prefix reverses the order.
	OrderBy string
	// Limit bounds the number of returned entities; <= 0 means no
	// limit.
	Limit int
	// Offset skips that many matches (in OrderBy order) before the
	// first returned entity.
	Offset int
	// Count requests the exact total match count (forces a full scan
	// even for unordered limited queries).
	Count bool
	// IDFilter, if non-nil, additionally restricts the scan to entities
	// whose id it accepts. It runs under shard locks and must be fast
	// and side-effect free. The cluster plane uses it to scope a
	// scatter-gather sub-query to the partitions a node owns, so copies
	// held by followers are never double-counted.
	IDFilter func(id string) bool
}

// QueryResult is the answer to a Query.
type QueryResult struct {
	// Entities holds the (projected, ordered, paginated) matches. They are
	// stored versions, or projections sharing a version's attribute values,
	// and are read-only: the caller owns the slice and may retain the
	// entities, but must never write to one, its Attrs map or a Metadata
	// map. Use Clone for a copy to edit.
	Entities []*Entity
	// Total is the exact number of matches when Query.Count was set,
	// and -1 otherwise.
	Total int

	// versions reports that Entities are the broker's stored versions, as
	// an unprojected Broker.Query returns them, so AppendJSON may encode
	// each through its memo.
	versions bool
}

// AppendJSON appends Entities to dst as a JSON array — byte for byte what
// encoding/json writes for a non-empty slice, and "[]" for an empty one.
// A page of stored versions encodes each version at most once over its
// life: later pages copy the bytes its first read kept. Any other page (a
// projection, one a cluster Router merged) is encoded entity by entity.
// An entity JSON cannot carry returns Entity.AppendJSON's error.
func (r QueryResult) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '[')
	for i, e := range r.Entities {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if r.versions {
			dst, err = e.appendVersionJSON(dst)
		} else {
			dst, err = e.AppendJSON(dst)
		}
		if err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// Query runs a typed context query. Each shard's table is scanned under
// its read lock: every numeric comparison is resolved to its column once
// per shard — a shard without the column cannot match — and tested on the
// dense slice before the entity is touched; id pattern, IDFilter, type and
// the remaining conditions run on the survivors, which are collected by
// pointer, nothing copied, into one slice sized up front, as one
// id-ordered run per shard. An id ordering then merges the runs only as
// deep as the Offset/Limit page reaches; an attribute ordering sorts every
// match. Only the page is projected onto Query.Attrs. An unordered query
// without Count stops scanning once Offset+Limit matches are found.
func (b *Broker) Query(q Query) (QueryResult, error) {
	if q.Limit < 0 || q.Offset < 0 {
		return QueryResult{}, fmt.Errorf("ngsi: query: negative limit or offset")
	}
	need := 0 // matches an unordered scan may stop at; 0 = all
	if q.Limit > 0 {
		need = q.Offset + q.Limit
		if need < 0 { // overflow would silently disable the bound
			return QueryResult{}, fmt.Errorf("ngsi: query: offset+limit overflows")
		}
	}
	earlyStop := q.OrderBy == "" && !q.Count && need > 0

	// Per-query scratch, on the stack at the usual sizes: the column behind
	// each condition (re-resolved per shard) and each shard's run of matches.
	var colBuf [8]*column
	cols := colBuf[:]
	if len(q.Conditions) > len(cols) {
		cols = make([]*column, len(q.Conditions))
	}
	cols = cols[:len(q.Conditions)]
	var runBuf [16]run
	runs := runBuf[:0]
	// No shard matches more than its rows: one allocation holds every
	// match unless a write lands between this count and the scan.
	size := b.EntityCount()
	if earlyStop {
		size = min(size, need)
	}
	matched := make([]*Entity, 0, size)
	for _, sh := range b.shards {
		lo := len(matched)
		sh.mu.RLock()
		if sh.columnsFor(q.Conditions, cols) {
		rows:
			for i, e := range sh.rows {
				for j, col := range cols {
					if col != nil && !(col.has[i] && numCmp(col.vals[i], q.Conditions[j].Op, q.Conditions[j].Num)) {
						continue rows
					}
				}
				if !MatchIDPattern(q.IDPattern, e.ID) {
					continue
				}
				if q.IDFilter != nil && !q.IDFilter(e.ID) {
					continue
				}
				if q.Type != "" && e.Type != q.Type {
					continue
				}
				for j, col := range cols {
					if col == nil && !q.Conditions[j].match(e) {
						continue rows
					}
				}
				matched = append(matched, e)
				if earlyStop && len(matched) >= need {
					break
				}
			}
		}
		sh.mu.RUnlock()
		if len(matched) > lo {
			runs = append(runs, run{lo, len(matched)})
		}
		if earlyStop && len(matched) >= need {
			break
		}
	}
	res := QueryResult{Total: -1, versions: len(q.Attrs) == 0}
	if q.Count {
		res.Total = len(matched)
	}
	var page []*Entity
	if key, desc := strings.CutPrefix(q.OrderBy, "!"); key == "" || key == OrderByID {
		page = mergePage(matched, runs, desc, q.Offset, q.Limit)
	} else {
		sortEntities(matched, q.OrderBy)
		page = matched[min(q.Offset, len(matched)):]
		if q.Limit > 0 && len(page) > q.Limit {
			page = page[:q.Limit]
		}
		if len(page) < len(matched) {
			// A caller holding the page must not pin the whole match set.
			page = slices.Clone(page)
		}
	}
	if len(q.Attrs) > 0 {
		for i, e := range page {
			page[i] = e.project(q.Attrs)
		}
	}
	res.Entities = page
	return res, nil
}

func matchConditions(e *Entity, conds []Condition) bool {
	for _, c := range conds {
		if !c.match(e) {
			return false
		}
	}
	return true
}

// run is one shard's matches within the collected slice, ascending by id:
// matched[lo:hi]. Ids are unique across shards, so runs never tie.
type run struct{ lo, hi int }

// mergePage cuts the Offset/Limit page, in id order (descending when desc),
// out of the shards' id-ordered runs: a k-way merge over a heap of the runs
// keyed by their next id (head, or tail when descending) that stops at the
// end of the page, so the matches beyond it are never ordered. Each step
// costs log₂(runs) id comparisons. The page is a slice of its own; runs is
// consumed.
func mergePage(matched []*Entity, runs []run, desc bool, offset, limit int) []*Entity {
	n := len(matched) - min(offset, len(matched))
	if limit > 0 && n > limit {
		n = limit
	}
	page := make([]*Entity, 0, n)
	h := runHeap{matched: matched, runs: runs, desc: desc}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for skip := offset; len(page) < n; {
		top := &h.runs[0]
		next := h.next(*top)
		if desc {
			top.hi--
		} else {
			top.lo++
		}
		if top.lo == top.hi {
			last := len(h.runs) - 1
			h.runs[0] = h.runs[last]
			h.runs = h.runs[:last]
		}
		h.down(0)
		if skip > 0 {
			skip--
			continue
		}
		page = append(page, next)
	}
	return page
}

// runHeap orders non-empty runs by their next entity's id, smallest on
// top (largest when desc).
type runHeap struct {
	matched []*Entity
	runs    []run
	desc    bool
}

// next is the entity run w hands out next.
func (h *runHeap) next(w run) *Entity {
	if h.desc {
		return h.matched[w.hi-1]
	}
	return h.matched[w.lo]
}

func (h *runHeap) before(i, j int) bool {
	return (h.next(h.runs[i]).ID < h.next(h.runs[j]).ID) != h.desc
}

// down restores the heap below i after runs[i] changed.
func (h *runHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.runs) {
			return
		}
		if c+1 < len(h.runs) && h.before(c+1, c) {
			c++
		}
		if !h.before(c, i) {
			return
		}
		h.runs[i], h.runs[c] = h.runs[c], h.runs[i]
		i = c
	}
}

// SortEntities sorts entities with the same semantics Query applies:
// "" or "id" by entity id, anything else by that attribute's value
// (numeric before string, missing last), '!' prefix reversed. Exported
// so a cluster scatter-gather can merge per-node pages under exactly the
// ordering each node produced.
func SortEntities(list []*Entity, orderBy string) { sortEntities(list, orderBy) }

// sortEntities orders entities per the OrderBy spec: ""/"id" by entity
// id; any other key by that attribute's value (numeric values before
// string values, entities missing the attribute last), ties broken by
// id. A '!' prefix reverses the primary order (missing-attribute
// entities stay last).
func sortEntities(list []*Entity, orderBy string) {
	key := orderBy
	desc := strings.HasPrefix(key, "!")
	key = strings.TrimPrefix(key, "!")
	if key == "" || key == OrderByID {
		slices.SortFunc(list, func(a, b *Entity) int {
			if desc {
				return strings.Compare(b.ID, a.ID)
			}
			return strings.Compare(a.ID, b.ID)
		})
		return
	}
	// Decorate-sort-undecorate: resolve each entity's sort key once
	// (one map lookup + type switch per entity) instead of twice per
	// comparison — attribute ordering is the profiled hot spot of the
	// northbound query path.
	keys := make([]entitySortKey, len(list))
	for i, e := range list {
		keys[i].e = e
		keys[i].rank, keys[i].num, keys[i].str = attrRank(e, key)
	}
	slices.SortFunc(keys, func(a, b entitySortKey) int {
		if a.rank != b.rank {
			// Rank order (numeric, string, missing) is fixed: '!'
			// reverses values, not presence.
			return a.rank - b.rank
		}
		var c int
		switch a.rank {
		case 0:
			c = compareFloat(a.num, b.num)
		case 1:
			c = strings.Compare(a.str, b.str)
		}
		if c != 0 {
			if desc {
				return -c
			}
			return c
		}
		return strings.Compare(a.e.ID, b.e.ID)
	})
	for i := range keys {
		list[i] = keys[i].e
	}
}

// entitySortKey is the decorated form of one entity for attribute
// ordering: the attrRank triple resolved once up front.
type entitySortKey struct {
	e    *Entity
	num  float64
	str  string
	rank int
}

func attrRank(e *Entity, key string) (rank int, num float64, str string) {
	a, ok := e.Attrs[key]
	if !ok {
		return 2, 0, ""
	}
	if v, isNum := a.Float(); isNum {
		return 0, v, ""
	}
	if s, isStr := attrString(a); isStr {
		return 1, 0, s
	}
	return 2, 0, ""
}
