package ngsi

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// checkAppendJSON holds AppendJSON to encoding/json: the same bytes after
// the caller's prefix, and an error exactly when json.Marshal reports one.
func checkAppendJSON(t testing.TB, e *Entity) {
	t.Helper()
	want, werr := json.Marshal(e)
	const prefix = `[{"kept":1},`
	got, gerr := e.AppendJSON([]byte(prefix))
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("entity %+v: json.Marshal error %v, AppendJSON error %v", e, werr, gerr)
	}
	if werr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("entity %+v:\n AppendJSON %s\njson.Marshal %s%s", e, got, prefix, want)
	}
	subID := "sub-<1>"
	if e != nil {
		subID = e.Type
	}
	wantNote, err := json.Marshal(notificationBody{SubscriptionID: subID, Data: []*Entity{e}})
	if err != nil {
		t.Fatal(err)
	}
	gotNote, err := appendNotificationJSON(nil, subID, e)
	if err != nil || !bytes.Equal(gotNote, wantNote) {
		t.Fatalf("notification for %+v (error %v):\n  appended %s\nmarshalled %s", e, err, gotNote, wantNote)
	}
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	at := time.Date(2026, 9, 28, 15, 4, 5, 123456789, time.UTC)
	nasty := []string{
		"", "plain", `<script>alert("x")&amp;</script>`, "line\u2028sep\u2029end", "bad\xffutf8\xc3", "\xe2\x80",
		"ctl\x00\x01\x1f\b\f\n\r\t", `quote"back\slash`, "del\x7f", "naïve ✓ 😀", "\u2027\u202a", "ends with \xf0\x9f",
	}
	var cases []*Entity
	for _, s := range nasty {
		cases = append(cases, &Entity{ID: s, Type: s, Attrs: map[string]Attribute{
			s:       {Type: s, Value: s, Metadata: map[string]string{s: s, "z" + s: "v"}, At: at},
			"other": {Type: "Text", Value: "x" + s + "y", At: at},
		}})
	}
	values := []any{
		0.0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 1e21, 999999999999999868928.0, -1e21, 1e-7, 1e-6,
		9.99999e-7, 0.1, 0.30000000000000004, 100.0, 1e20, 123456789.125, math.MaxFloat64, -math.MaxFloat64, 1e100, 1.5e-9,
		0, -17, math.MaxInt64, math.MinInt64, true, false, nil, "text",
		json.Number("12.50"), json.Number(""), json.Number("-0"), json.Number("1e999"),
		map[string]any{"b": 1.5, "a": []any{"<", nil, true, map[string]any{}}}, []any{}, []float64{1, 2.5, 1e21}, []string(nil),
		float32(0.1), int64(-5), uint8(200), struct{ X int }{7}, &at,
		// Values JSON cannot carry: both encoders must refuse.
		math.NaN(), math.Inf(1), math.Inf(-1), json.Number("bad"), []float64{math.NaN()}, make(chan int),
		map[string]any{"deep": math.Inf(1)},
	}
	for _, v := range values {
		cases = append(cases, &Entity{ID: "urn:v", Type: "T", Attrs: map[string]Attribute{
			"a": {Type: "Number", Value: 1.0, At: at},
			"v": {Type: "Any", Value: v, At: at},
		}})
	}
	times := []time.Time{
		{}, at, time.Now(), time.Unix(0, 0), time.Unix(0, 1).UTC(), at.In(time.FixedZone("east", 5*3600+1800)),
		at.In(time.FixedZone("west", -8*3600)), time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		at.In(time.FixedZone("far", 24*3600)), at.In(time.FixedZone("odd", 3601)),
	}
	for _, tm := range times {
		cases = append(cases, &Entity{ID: "urn:t", Type: "T", Attrs: map[string]Attribute{"t": {Type: "Number", Value: 1, At: tm}}})
	}
	wide := &Entity{ID: "urn:wide", Type: "T", Attrs: map[string]Attribute{}}
	for _, k := range []string{"b", "a", "C", "_", "aa", "a0", "ä", "Z", "10", "9", "", "é", "e", "zz", "m", "n", "o", "p", "q", "r"} {
		meta := map[string]string{}
		for _, mk := range []string{"9", "8", "7", "6", "5", "4", "3", "2", "1", "0"}[:len(wide.Attrs)%11] {
			meta[mk] = k
		}
		wide.Attrs[k] = Attribute{Type: "Number", Value: len(k), Metadata: meta, At: at}
	}
	cases = append(cases, wide, nil,
		&Entity{}, &Entity{ID: "urn:nil-attrs", Type: "T"}, &Entity{ID: "urn:no-attrs", Type: "T", Attrs: map[string]Attribute{}},
		&Entity{ID: "urn:meta", Type: "T", Attrs: map[string]Attribute{
			"nil":   {Type: "Number", Value: 1.0, At: at},
			"empty": {Type: "Number", Value: 1.0, Metadata: map[string]string{}, At: at},
			"zero":  {},
		}})
	for _, e := range cases {
		checkAppendJSON(t, e)
	}
}

// fuzzEntity builds an entity from fuzzed scalars: a float, a string and
// an integer attribute every time, plus one whose value shape kind picks —
// including the shapes AppendJSON hands to encoding/json.
func fuzzEntity(id, name, s string, f float64, i int64, kind uint8, sec, nsec int64, zone int32) *Entity {
	at := time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
	var v any
	switch kind % 12 {
	case 0:
		v = f
	case 1:
		v = int(i)
	case 2:
		v = s
	case 3:
		v = i%2 == 0
	case 4:
		v = nil
	case 5:
		v = json.Number(s)
	case 6:
		v = map[string]any{s: f, name: []any{i, s}}
	case 7:
		v = []any{s, f, nil, i}
	case 8:
		v = []float64{f, float64(i)}
	case 9:
		v = float32(f)
	case 10:
		v = i
	case 11:
		v = at
	}
	meta := map[string]string{name: s}
	if i%3 == 0 {
		meta[s] = id
	}
	return &Entity{ID: id, Type: name, Attrs: map[string]Attribute{
		name:     {Type: s, Value: v, Metadata: meta, At: at},
		"f":      {Type: "Number", Value: f, At: at.UTC()},
		"s" + s:  {Type: "Text", Value: s, Metadata: map[string]string{}},
		"i" + id: {Type: "Number", Value: int(i), Metadata: map[string]string{"k": name}, At: time.Unix(sec, 0).UTC()},
	}}
}

func FuzzAppendJSON(f *testing.F) {
	f.Add("urn:swamp:probe:0001", "soilMoisture_d20", "farm1", 0.2375, int64(42), uint8(0), int64(1_790_000_000), int64(5e8), int32(0))
	f.Add("<&>", "\u2028", "\xff\xfe", math.Copysign(0, -1), int64(-1), uint8(6), int64(253402300800), int64(0), int32(3600))
	f.Add("", "", "", 1e21, int64(math.MinInt64), uint8(5), int64(-62135596800), int64(999999999), int32(-86400))
	f.Fuzz(func(t *testing.T, id, name, s string, fl float64, i int64, kind uint8, sec, nsec int64, zone int32) {
		checkAppendJSON(t, fuzzEntity(id, name, s, fl, i, kind, sec, nsec, zone))
	})
}

// TestAppendJSONAllocs: scalar entities (the shape every probe has) encode
// into a warm buffer without allocating.
func TestAppendJSONAllocs(t *testing.T) {
	at := time.Date(2026, 9, 28, 15, 4, 5, 123456789, time.UTC)
	meta := map[string]string{"device": "farm1-p0001", "owner": "farm1"}
	e := &Entity{ID: "urn:swamp:probe:0001", Type: "SoilProbe", Attrs: map[string]Attribute{
		"soilMoisture_d20": {Type: "Number", Value: 0.2375, Metadata: meta, At: at},
		"soilMoisture_d50": {Type: "Number", Value: 0.3, Metadata: meta, At: at},
		"battery":          {Type: "Number", Value: 87, At: at},
		"zone":             {Type: "Text", Value: "north <1>", At: at},
		"alarm":            {Type: "Boolean", Value: false, At: at},
		"note":             {Type: "Text", Value: nil, At: at},
	}}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = e.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendJSON into a warm buffer: %v allocs/op, want 0", allocs)
	}
}

// TestVersionMemoFilledOnlyByReads: a stored version's memo stays empty
// through the writes that publish it, and the first northbound read of
// the version fills it — a listing page of stored versions, or
// AppendEntityJSON of the current version — with exactly the bytes
// AppendJSON writes. A projected page, a retired version, an entity the
// caller built and a version JSON cannot carry leave their memo empty.
func TestVersionMemoFilledOnlyByReads(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	memo := func(e *Entity) []byte {
		enc, _ := e.enc.Load().([]byte)
		return enc
	}
	encode := func(e *Entity) []byte {
		t.Helper()
		out, err := e.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if err := b.UpsertEntity(&Entity{ID: "e1", Type: "T", Attrs: map[string]Attribute{"a": num(1), "b": num(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateAttrs("e1", "T", map[string]Attribute{"a": num(3)}); err != nil {
		t.Fatal(err)
	}
	v1, _ := b.GetEntity("e1")
	if memo(v1) != nil {
		t.Fatal("a write filled the memo")
	}

	projected, _ := b.Query(Query{IDPattern: "e1", Attrs: []string{"a"}})
	if _, err := projected.AppendJSON(nil); err != nil || memo(v1) != nil {
		t.Fatalf("a projected page filled the memo (%v)", err)
	}
	page, _ := b.Query(Query{IDPattern: "e1"})
	for range 2 { // the fill, then the hit
		body, err := page.AppendJSON([]byte("x"))
		if want := "x[" + string(encode(v1)) + "]"; err != nil || string(body) != want {
			t.Fatalf("listing page = %s, %v; want %s", body, err, want)
		}
		if !bytes.Equal(memo(v1), encode(v1)) {
			t.Fatalf("memo after a listing = %q", memo(v1))
		}
	}

	if err := b.UpdateAttrs("e1", "T", map[string]Attribute{"b": num(4)}); err != nil {
		t.Fatal(err)
	}
	v2, _ := b.GetEntity("e1")
	if memo(v2) != nil {
		t.Fatal("the new version inherited a memo")
	}
	if body, err := b.AppendEntityJSON(nil, v2); err != nil || !bytes.Equal(body, encode(v2)) || !bytes.Equal(memo(v2), body) {
		t.Fatalf("GET of the current version = %s, %v; memo %q", body, err, memo(v2))
	}
	if err := b.UpdateAttrs("e1", "T", map[string]Attribute{"b": num(5)}); err != nil {
		t.Fatal(err)
	}
	v3, _ := b.GetEntity("e1")
	if err := b.UpdateAttrs("e1", "T", map[string]Attribute{"b": num(6)}); err != nil {
		t.Fatal(err)
	}
	v4, _ := b.GetEntity("e1")
	if body, err := b.AppendEntityJSON(nil, v3); err != nil || !bytes.Equal(body, encode(v3)) || memo(v3) != nil {
		t.Fatalf("retired version = %s, %v; memo %q", body, err, memo(v3))
	}
	if body, err := b.AppendEntityJSON(nil, v4.Clone()); err != nil || !bytes.Equal(body, encode(v4)) || memo(v4) != nil {
		t.Fatalf("a caller's copy = %s, %v, and the stored version's memo %q", body, err, memo(v4))
	}

	if err := b.UpsertEntity(&Entity{ID: "nan", Type: "T", Attrs: map[string]Attribute{"a": num(math.NaN())}}); err != nil {
		t.Fatal(err)
	}
	bad, _ := b.GetEntity("nan")
	for range 2 {
		if _, err := b.AppendEntityJSON(nil, bad); err == nil || memo(bad) != nil {
			t.Fatalf("unencodable version: error %v, memo %q", err, memo(bad))
		}
	}
}
