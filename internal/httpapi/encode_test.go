package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// TestUnencodableEntityAnswers500: an entity holding NaN (reachable
// through Broker.UpsertEntity) has no JSON form. The listing and the
// single GET must say so — 500 through the error envelope — instead of
// answering 200 with an empty body, and the failed render must not be
// cached: once the entity is gone the same listing answers 200 again.
func TestUnencodableEntityAnswers500(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFixtureWith(t, func(c *Config) { c.Metrics = reg })
	tok := f.token(t, "farmer")
	for id, v := range map[string]float64{"urn:farm1:ok": 0.25, "urn:farm1:nan": math.NaN()} {
		if err := f.ctx.UpsertEntity(&ngsi.Entity{ID: id, Type: "SoilProbe",
			Attrs: map[string]ngsi.Attribute{"soilMoisture": {Type: "Number", Value: v}}}); err != nil {
			t.Fatal(err)
		}
	}
	expectEncodeFailure := func(path string) {
		t.Helper()
		resp := f.do(t, http.MethodGet, path, tok, nil)
		var env apiError
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: status %d, body is not the error envelope: %v", path, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || env.Error != "encode_failure" || env.Description == "" {
			t.Fatalf("%s: status %d, envelope %+v; want 500 encode_failure", path, resp.StatusCode, env)
		}
		if resp.Header.Get("Fiware-Total-Count") != "" {
			t.Errorf("%s: failed render carries a count header", path)
		}
	}
	const listing = "/v2/entities?idPattern=urn:farm1:*&options=count"
	expectEncodeFailure(listing)
	expectEncodeFailure(listing) // a repeat fails the same way
	expectEncodeFailure("/v2/entities/urn:farm1:nan")
	if resp := f.do(t, http.MethodGet, "/v2/entities/urn:farm1:ok", tok, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy entity: status %d", resp.StatusCode)
	}
	if err := f.ctx.DeleteEntity("urn:farm1:nan"); err != nil {
		t.Fatal(err)
	}
	resp := f.do(t, http.MethodGet, listing, tok, nil)
	var page []ngsi.Entity
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil || resp.StatusCode != http.StatusOK || len(page) != 1 {
		t.Fatalf("listing after the delete: status %d, %d entities, %v", resp.StatusCode, len(page), err)
	}
}

// TestEntityBodiesMatchEncodingJSON pins the wire format: the listing and
// the single GET carry exactly the bytes json.Encoder wrote for the same
// entities before the hand-rolled encoder — trailing newline included,
// and "[]" for an empty page.
func TestEntityBodiesMatchEncodingJSON(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	at := time.Date(2026, 9, 28, 12, 0, 0, 5, time.UTC)
	stored := []*ngsi.Entity{
		{ID: "urn:farm1:a", Type: "SoilProbe", Attrs: map[string]ngsi.Attribute{
			"soilMoisture": {Type: "Number", Value: 1e-7, Metadata: map[string]string{"owner": "farm1", "device": "<p1>"}, At: at},
			"zone":         {Type: "Text", Value: "north &   east", At: at},
		}},
		{ID: "urn:farm1:b", Type: "Pivot", Attrs: map[string]ngsi.Attribute{
			"plan": {Type: "StructuredValue", Value: map[string]any{"mm": []any{4.5, 1e21}}, At: at},
			"on":   {Type: "Boolean", Value: true, At: at},
			"n":    {Type: "Number", Value: 3, At: at},
		}},
	}
	for _, e := range stored {
		if err := f.ctx.UpsertEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	body := func(path string) []byte {
		t.Helper()
		resp := f.do(t, http.MethodGet, path, tok, nil)
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		return b
	}
	reference := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got, want := body("/v2/entities?idPattern=urn:farm1:*"), reference(stored); !bytes.Equal(got, want) {
		t.Errorf("listing:\n got %s\nwant %s", got, want)
	}
	if got, want := body("/v2/entities/urn:farm1:b"), reference(stored[1]); !bytes.Equal(got, want) {
		t.Errorf("entity:\n got %s\nwant %s", got, want)
	}
	if got := body("/v2/entities?idPattern=urn:farm1:*&type=Nothing"); string(got) != "[]\n" {
		t.Errorf("empty listing = %q", got)
	}
}

// seriesPointJSON is the reference shape of one series window: the struct
// encoding/json wrote the series points from before the bodies were
// appended by hand.
type seriesPointJSON struct {
	At    time.Time `json:"at"`
	Count int       `json:"count"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Mean  float64   `json:"mean"`
}

// encodeReference renders v the way the analytics routes did through
// encoding/json: json.Encoder, trailing newline.
func encodeReference(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func summaryReference(device, quantity string, agg timeseries.Aggregate) ([]byte, error) {
	return encodeReference(map[string]any{
		"device": device, "quantity": quantity,
		"count": agg.Count, "min": agg.Min, "max": agg.Max, "mean": agg.Mean,
	})
}

func seriesReference(device, quantity string, window time.Duration, wins []timeseries.WindowAggregate) ([]byte, error) {
	points := make([]seriesPointJSON, 0, len(wins))
	for _, wa := range wins {
		points = append(points, seriesPointJSON{At: wa.Start, Count: wa.Count, Min: wa.Min, Max: wa.Max, Mean: wa.Mean})
	}
	return encodeReference(map[string]any{
		"device": device, "quantity": quantity, "window": window.String(), "points": points,
	})
}

// checkBody holds a hand-appended body to its encoding/json reference:
// the same bytes, or the same error when encoding/json refuses.
func checkBody(t *testing.T, what string, got []byte, gerr error, want []byte, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (werr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, encoding/json error %v", what, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// FuzzAnalyticsBody: for any device and quantity and any aggregate
// values, the summary and series bodies are exactly what encoding/json
// writes for them; when encoding/json refuses a value (NaN, ±Inf, a time
// outside years 0–9999), so does the encoder, with encoding/json's error.
// TestAnalyticsRefusedBodyAnswers500 holds the routes to answering that
// error as 500 encode_failure. (The fuzz target calls no handler: the
// server's pooled buffers make its coverage vary from run to run, which
// stalls the fuzzer's minimization.)
func FuzzAnalyticsBody(f *testing.F) {
	f.Add("farm1-p1", "soilMoisture", int64(2), 0.25, 0.27, 0.26, int64(1_790_000_000), int64(5e8), int32(0), int64(time.Hour), uint8(2))
	f.Fuzz(func(t *testing.T, device, quantity string, count int64, lo, hi, mean float64, sec, nsec int64, zone int32, window int64, n uint8) {
		at := time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
		agg := timeseries.Aggregate{Count: int(count), Min: lo, Max: hi, Mean: mean}
		wins := make([]timeseries.WindowAggregate, n%3)
		for i := range wins {
			wins[i] = timeseries.WindowAggregate{Start: at.Add(time.Duration(i) * time.Duration(window)), Aggregate: agg}
		}
		if len(wins) == 2 { // a second window with its extremes swapped
			wins[1].Count++
			wins[1].Min, wins[1].Max = hi, lo
		}
		got, gerr := appendSummaryJSON([]byte("prefix"), device, quantity, agg)
		want, werr := summaryReference(device, quantity, agg)
		if gerr == nil {
			got = bytes.TrimPrefix(got, []byte("prefix"))
		}
		checkBody(t, "summary", got, gerr, want, werr)
		got, gerr = appendSeriesJSON(nil, device, quantity, time.Duration(window), wins)
		want, werr = seriesReference(device, quantity, time.Duration(window), wins)
		checkBody(t, "series", got, gerr, want, werr)
	})
}

// TestAnalyticsRefusedBodyAnswers500: an aggregate JSON cannot carry
// answers 500 encode_failure on both analytics routes, carrying the error
// encoding/json refuses the same body with — never a 200 with a partial
// body.
func TestAnalyticsRefusedBodyAnswers500(t *testing.T) {
	fc := &fakeCluster{}
	f := newClusterFixture(t, fc)
	tok := f.token(t, "farmer")
	at := time.Date(2026, 9, 28, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name string
		agg  timeseries.Aggregate
		at   time.Time
	}{
		{"NaN mean", timeseries.Aggregate{Count: 1, Mean: math.NaN()}, at},
		{"+Inf max", timeseries.Aggregate{Count: 1, Max: math.Inf(1), Mean: math.NaN()}, at},
		{"-Inf min", timeseries.Aggregate{Count: 1, Min: math.Inf(-1)}, at},
		{"year 10000", timeseries.Aggregate{Count: 1}, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		wins := []timeseries.WindowAggregate{{Start: at}, {Start: tc.at, Aggregate: tc.agg}}
		fc.agg, fc.wins = tc.agg, wins
		for path, ref := range map[string]func() ([]byte, error){
			"/v2/analytics/farm1-p1/soilMoisture": func() ([]byte, error) {
				return summaryReference("farm1-p1", "soilMoisture", tc.agg)
			},
			"/v2/analytics/farm1-p1/soilMoisture/series": func() ([]byte, error) {
				return seriesReference("farm1-p1", "soilMoisture", time.Hour, wins)
			},
		} {
			want, werr := ref()
			resp := f.do(t, http.MethodGet, path, tok, nil)
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if werr == nil {
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
					t.Errorf("%s %s: status %d, body %s; want %s", tc.name, path, resp.StatusCode, body, want)
				}
				continue
			}
			var env apiError
			if err := json.Unmarshal(body, &env); err != nil || resp.StatusCode != http.StatusInternalServerError ||
				env.Error != "encode_failure" || env.Description != werr.Error() {
				t.Errorf("%s %s: status %d, body %s; want 500 encode_failure %q", tc.name, path, resp.StatusCode, body, werr)
			}
		}
	}
}
