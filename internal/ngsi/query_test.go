package ngsi

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseQOperators(t *testing.T) {
	tests := []struct {
		q     string
		attr  string
		op    Op
		value string
		isNum bool
	}{
		{"soilMoisture==0.25", "soilMoisture", OpEq, "0.25", true},
		{"soilMoisture!=0.25", "soilMoisture", OpNe, "0.25", true},
		{"soilMoisture<0.25", "soilMoisture", OpLt, "0.25", true},
		{"soilMoisture<=0.25", "soilMoisture", OpLe, "0.25", true},
		{"soilMoisture>0.25", "soilMoisture", OpGt, "0.25", true},
		{"soilMoisture>=0.25", "soilMoisture", OpGe, "0.25", true},
		{"status==open", "status", OpEq, "open", false},
		{"status=='wine farm'", "status", OpEq, "wine farm", false},
		{`status=="quoted"`, "status", OpEq, "quoted", false},
		{"level=='5'", "level", OpEq, "5", false}, // quoted number stays a string
		{"battery", "battery", OpExists, "", false},
		{"!battery", "battery", OpNotExists, "", false},
		{" soilMoisture == 0.25 ", "soilMoisture", OpEq, "0.25", true},
	}
	for _, tc := range tests {
		conds, err := ParseQ(tc.q)
		if err != nil {
			t.Errorf("ParseQ(%q): %v", tc.q, err)
			continue
		}
		if len(conds) != 1 {
			t.Errorf("ParseQ(%q) = %d conditions", tc.q, len(conds))
			continue
		}
		c := conds[0]
		if c.Attr != tc.attr || c.Op != tc.op || c.Value != tc.value || c.IsNum != tc.isNum {
			t.Errorf("ParseQ(%q) = %+v, want attr=%q op=%v value=%q isNum=%v",
				tc.q, c, tc.attr, tc.op, tc.value, tc.isNum)
		}
	}
}

// TestParseQQuotedSemicolon: a ';' inside a quoted value is part of the
// value, not a conjunction separator.
func TestParseQQuotedSemicolon(t *testing.T) {
	conds, err := ParseQ("note=='a;b';zone==zone-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(conds) != 2 {
		t.Fatalf("conditions = %d, want 2", len(conds))
	}
	if conds[0].Attr != "note" || conds[0].Value != "a;b" || conds[0].IsNum {
		t.Errorf("first condition = %+v", conds[0])
	}
	if conds[1].Attr != "zone" || conds[1].Value != "zone-1" {
		t.Errorf("second condition = %+v", conds[1])
	}
}

func TestParseQConjunction(t *testing.T) {
	conds, err := ParseQ("soilMoisture<0.2;type==SoilProbe;battery")
	if err != nil {
		t.Fatal(err)
	}
	if len(conds) != 3 {
		t.Fatalf("conditions = %d, want 3", len(conds))
	}
	if conds[2].Op != OpExists || conds[2].Attr != "battery" {
		t.Errorf("third condition = %+v", conds[2])
	}
}

func TestParseQErrors(t *testing.T) {
	for _, q := range []string{
		"a=5",        // single '=' is not an operator
		"==5",        // missing attribute
		"a==",        // missing value
		"a=='x",      // unterminated quote
		";",          // empty statements
		"a==1;;b==2", // empty middle statement
		"!",          // bare negation
		"a b",        // whitespace inside attribute
	} {
		if _, err := ParseQ(q); err == nil {
			t.Errorf("ParseQ(%q): no error", q)
		}
	}
}

// TestNaNComparisons: NaN is unordered. As a literal it is a ParseQ error
// (±Inf order, and stay legal; quoted, it is text); stored, or in a
// hand-built condition, it fails every comparison except != — on the
// in-place evaluator and on the column scan alike.
func TestNaNComparisons(t *testing.T) {
	for _, q := range []string{"m==nan", "m!=NaN", "m<nan", "m>=NAN", "zone==z1;m<=nan"} {
		if _, err := ParseQ(q); err == nil {
			t.Errorf("ParseQ(%q): no error", q)
		}
	}
	for _, q := range []string{"m<inf", "m>-Inf", "m<=+Infinity", "m=='nan'", `m=="NaN"`} {
		if _, err := ParseQ(q); err != nil {
			t.Errorf("ParseQ(%q): %v", q, err)
		}
	}

	b := NewBroker(BrokerConfig{Shards: 2})
	defer b.Close()
	stored := map[string]*Entity{
		"nan":  {ID: "nan", Type: "T", Attrs: map[string]Attribute{"m": num(math.NaN())}},
		"one":  {ID: "one", Type: "T", Attrs: map[string]Attribute{"m": num(1)}},
		"inf":  {ID: "inf", Type: "T", Attrs: map[string]Attribute{"m": num(math.Inf(1))}},
		"text": {ID: "text", Type: "T", Attrs: map[string]Attribute{"m": {Type: "Text", Value: "nan"}}},
		"none": {ID: "none", Type: "T", Attrs: map[string]Attribute{"other": num(1)}},
	}
	for _, e := range stored {
		if err := b.UpsertEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		op   Op
		num  float64
		want []string // ascending by id
	}{
		{OpEq, 1, []string{"one"}},
		{OpNe, 1, []string{"inf", "nan"}},
		{OpLt, 2, []string{"one"}},
		{OpLe, 1, []string{"one"}},
		{OpGt, 0, []string{"inf", "one"}},
		{OpGe, 1, []string{"inf", "one"}},
		{OpEq, math.Inf(1), []string{"inf"}},
		{OpLt, math.Inf(1), []string{"one"}},
		{OpEq, math.NaN(), nil},
		{OpNe, math.NaN(), []string{"inf", "nan", "one"}},
		{OpLt, math.NaN(), nil},
		{OpLe, math.NaN(), nil},
		{OpGt, math.NaN(), nil},
		{OpGe, math.NaN(), nil},
	}
	for _, tc := range tests {
		c := Condition{Attr: "m", Op: tc.op, Num: tc.num, IsNum: true}
		var inPlace []string
		for _, id := range []string{"inf", "nan", "none", "one", "text"} {
			if c.match(stored[id]) {
				inPlace = append(inPlace, id)
			}
		}
		scanned := ids(mustQuery(t, b, Query{Conditions: []Condition{c}, OrderBy: OrderByID}).Entities)
		if fmt.Sprint(inPlace) != fmt.Sprint(tc.want) || fmt.Sprint(scanned) != fmt.Sprint(tc.want) {
			t.Errorf("m %v %v: match %v, column scan %v, want %v", tc.op, tc.num, inPlace, scanned, tc.want)
		}
	}
}

func TestParseQEmpty(t *testing.T) {
	for _, q := range []string{"", "   "} {
		conds, err := ParseQ(q)
		if err != nil || conds != nil {
			t.Errorf("ParseQ(%q) = %v, %v", q, conds, err)
		}
	}
}

func seedQueryBroker(t testing.TB, n int) *Broker {
	b := NewBroker(BrokerConfig{})
	t.Cleanup(b.Close)
	for i := 0; i < n; i++ {
		e := &Entity{
			ID:   fmt.Sprintf("urn:q:plot:%04d", i),
			Type: "AgriParcel",
			Attrs: map[string]Attribute{
				"soilMoisture": num(float64(i) / float64(n)),
				"zone":         {Type: "Text", Value: fmt.Sprintf("zone-%d", i%4)},
			},
		}
		if i%10 == 0 {
			e.Attrs["alarm"] = Attribute{Type: "Boolean", Value: true}
		}
		if err := b.UpsertEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func mustQuery(t *testing.T, b *Broker, q Query) QueryResult {
	t.Helper()
	res, err := b.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQueryFilterPushdown(t *testing.T) {
	b := seedQueryBroker(t, 100)

	conds, err := ParseQ("soilMoisture<0.1")
	if err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, b, Query{Conditions: conds, OrderBy: OrderByID, Count: true})
	if len(res.Entities) != 10 || res.Total != 10 {
		t.Fatalf("got %d entities, total %d, want 10/10", len(res.Entities), res.Total)
	}
	for i := 1; i < len(res.Entities); i++ {
		if res.Entities[i-1].ID >= res.Entities[i].ID {
			t.Fatal("result not ordered by id")
		}
	}

	// Conjunction with a string condition.
	conds, _ = ParseQ("soilMoisture<0.1;zone==zone-0")
	res = mustQuery(t, b, Query{Conditions: conds, Count: true, OrderBy: OrderByID})
	if res.Total != 3 { // i in {0,4,8} have zone-0 and moisture < 0.1
		t.Errorf("conjunction total = %d, want 3", res.Total)
	}

	// Unary existence.
	conds, _ = ParseQ("alarm")
	res = mustQuery(t, b, Query{Conditions: conds, Count: true})
	if res.Total != 10 {
		t.Errorf("existence total = %d, want 10", res.Total)
	}
	conds, _ = ParseQ("!alarm")
	res = mustQuery(t, b, Query{Conditions: conds, Count: true})
	if res.Total != 90 {
		t.Errorf("non-existence total = %d, want 90", res.Total)
	}
}

func TestQueryNumericVsStringComparison(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	b.UpsertEntity(&Entity{ID: "n", Type: "T", Attrs: map[string]Attribute{
		"level": num(5),
	}})
	b.UpsertEntity(&Entity{ID: "s", Type: "T", Attrs: map[string]Attribute{
		"level": {Type: "Text", Value: "5"},
	}})

	// Unquoted numeric value matches only the numeric attribute.
	conds, _ := ParseQ("level==5")
	res := mustQuery(t, b, Query{Conditions: conds})
	if len(res.Entities) != 1 || res.Entities[0].ID != "n" {
		t.Errorf("numeric compare matched %v", ids(res.Entities))
	}
	// Quoted value matches only the string attribute.
	conds, _ = ParseQ("level=='5'")
	res = mustQuery(t, b, Query{Conditions: conds})
	if len(res.Entities) != 1 || res.Entities[0].ID != "s" {
		t.Errorf("string compare matched %v", ids(res.Entities))
	}
}

// TestQueryEmptyResultVsMissingAttribute: a filter over an attribute
// nothing carries and a filter that simply matches nothing both return
// empty result sets (not errors), with Total 0 when counted.
func TestQueryEmptyResultVsMissingAttribute(t *testing.T) {
	b := seedQueryBroker(t, 20)
	for _, q := range []string{"soilMoisture>2", "nonexistent==1", "nonexistent"} {
		conds, err := ParseQ(q)
		if err != nil {
			t.Fatalf("ParseQ(%q): %v", q, err)
		}
		res := mustQuery(t, b, Query{Conditions: conds, Count: true})
		if len(res.Entities) != 0 || res.Total != 0 {
			t.Errorf("q=%q: %d entities, total %d", q, len(res.Entities), res.Total)
		}
	}
}

func TestQueryProjection(t *testing.T) {
	b := seedQueryBroker(t, 10)
	res := mustQuery(t, b, Query{Attrs: []string{"zone"}, OrderBy: OrderByID})
	if len(res.Entities) != 10 {
		t.Fatalf("entities = %d", len(res.Entities))
	}
	for _, e := range res.Entities {
		if _, ok := e.Attrs["zone"]; !ok {
			t.Fatal("projected attribute missing")
		}
		if _, leaked := e.Attrs["soilMoisture"]; leaked {
			t.Fatal("projection leaked unrequested attribute")
		}
	}
}

func TestQueryPagination(t *testing.T) {
	b := seedQueryBroker(t, 50)
	var got []string
	for off := 0; ; off += 7 {
		res := mustQuery(t, b, Query{OrderBy: OrderByID, Limit: 7, Offset: off, Count: true})
		if res.Total != 50 {
			t.Fatalf("total = %d", res.Total)
		}
		if len(res.Entities) == 0 {
			break
		}
		got = append(got, ids(res.Entities)...)
	}
	if len(got) != 50 {
		t.Fatalf("paginated %d entities, want 50", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("pages overlap or out of order")
		}
	}
}

func TestQueryUnorderedEarlyStop(t *testing.T) {
	b := seedQueryBroker(t, 200)
	res := mustQuery(t, b, Query{Limit: 5})
	if len(res.Entities) != 5 {
		t.Fatalf("unordered limited query returned %d", len(res.Entities))
	}
	if res.Total != -1 {
		t.Errorf("total = %d, want -1 without Count", res.Total)
	}
}

func TestQueryOrderByAttribute(t *testing.T) {
	b := seedQueryBroker(t, 20)
	res := mustQuery(t, b, Query{OrderBy: "soilMoisture", Limit: 3})
	if len(res.Entities) != 3 {
		t.Fatalf("entities = %d", len(res.Entities))
	}
	if res.Entities[0].ID != "urn:q:plot:0000" {
		t.Errorf("ascending attr order first = %s", res.Entities[0].ID)
	}
	res = mustQuery(t, b, Query{OrderBy: "!soilMoisture", Limit: 1})
	if res.Entities[0].ID != "urn:q:plot:0019" {
		t.Errorf("descending attr order first = %s", res.Entities[0].ID)
	}
}

// TestQueryOrderByAttributeWithProjection: ordering by an attribute the
// projection excludes must still order (and paginate) by that attribute
// across shards — and must not leak the sort key into the result.
func TestQueryOrderByAttributeWithProjection(t *testing.T) {
	b := seedQueryBroker(t, 20)
	res := mustQuery(t, b, Query{
		OrderBy: "!soilMoisture", Attrs: []string{"zone"}, Limit: 3,
	})
	if len(res.Entities) != 3 {
		t.Fatalf("entities = %d", len(res.Entities))
	}
	want := []string{"urn:q:plot:0019", "urn:q:plot:0018", "urn:q:plot:0017"}
	for i, e := range res.Entities {
		if e.ID != want[i] {
			t.Errorf("position %d = %s, want %s", i, e.ID, want[i])
		}
		if _, leaked := e.Attrs["soilMoisture"]; leaked {
			t.Error("sort key leaked into the projected result")
		}
		if _, ok := e.Attrs["zone"]; !ok {
			t.Error("projected attribute missing")
		}
	}
}

func TestQueryValidation(t *testing.T) {
	b := seedQueryBroker(t, 5)
	if _, err := b.Query(Query{Limit: -1}); err == nil {
		t.Error("negative limit accepted")
	}
	if _, err := b.Query(Query{Offset: -1}); err == nil {
		t.Error("negative offset accepted")
	}
	const maxInt = int(^uint(0) >> 1)
	if _, err := b.Query(Query{Limit: 10, Offset: maxInt - 5}); err == nil {
		t.Error("offset+limit overflow accepted (materialization bound silently disabled)")
	}
}

// TestQueryPageAllocs: a listing page is cut from shared versions, so an
// unprojected query allocates one pointer slice, sized up front, for the
// matches and the page it returns — nothing per matched or returned
// entity.
func TestQueryPageAllocs(t *testing.T) {
	b := seedQueryBroker(t, 1000)
	conds, err := ParseQ("soilMoisture>=0.5")
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Type: "AgriParcel", Conditions: conds, OrderBy: OrderByID, Offset: 100, Limit: 100, Count: true}
	allocs := testing.AllocsPerRun(50, func() {
		res, err := b.Query(q)
		if err != nil || len(res.Entities) != 100 || res.Total != 500 {
			t.Fatalf("%d entities of %d, %v", len(res.Entities), res.Total, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("100-entity page out of 1000: %v allocs/op, want 2: the match slice and the page", allocs)
	}
}

func ids(es []*Entity) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// FuzzParseQ: the q= parser never panics, every condition it accepts is
// well-formed, and rendering the conditions back to q= syntax re-parses
// to the same conditions.
func FuzzParseQ(f *testing.F) {
	f.Fuzz(func(t *testing.T, q string) {
		conds, err := ParseQ(q)
		if err != nil {
			return
		}
		for _, c := range conds {
			if c.Attr == "" || strings.ContainsAny(c.Attr, "=<>!'\" \t") {
				t.Fatalf("ParseQ(%q): malformed attribute in %+v", q, c)
			}
			if c.IsNum {
				v, err := strconv.ParseFloat(c.Value, 64)
				if err != nil || math.IsNaN(v) || v != c.Num {
					t.Fatalf("ParseQ(%q): numeric %+v does not parse to Num", q, c)
				}
			}
		}
		rendered, ok := renderQ(conds)
		if !ok {
			return
		}
		again, err := ParseQ(rendered)
		if err != nil {
			t.Fatalf("ParseQ(%q) rendered as %q: %v", q, rendered, err)
		}
		if !reflect.DeepEqual(again, conds) {
			t.Fatalf("ParseQ(%q) = %+v; rendered as %q it parses to %+v", q, conds, rendered, again)
		}
	})
}

// renderQ writes conditions back in q= syntax, quoting every string
// value. It reports false for a string value holding both quote
// characters, which the grammar cannot express.
func renderQ(conds []Condition) (string, bool) {
	stmts := make([]string, len(conds))
	for i, c := range conds {
		switch {
		case c.Op == OpExists:
			stmts[i] = c.Attr
		case c.Op == OpNotExists:
			stmts[i] = "!" + c.Attr
		case c.IsNum:
			stmts[i] = c.Attr + c.Op.String() + c.Value
		case !strings.Contains(c.Value, "'"):
			stmts[i] = c.Attr + c.Op.String() + "'" + c.Value + "'"
		case !strings.Contains(c.Value, `"`):
			stmts[i] = c.Attr + c.Op.String() + `"` + c.Value + `"`
		default:
			return "", false
		}
	}
	return strings.Join(stmts, ";"), true
}
