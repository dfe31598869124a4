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
