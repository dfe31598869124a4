package httpapi

import (
	"encoding/json"
	"net/http"
	"testing"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
)

// TestListCacheServesAndInvalidates: a repeated identical listing is
// served from the response cache (the cached counter moves), and every
// kind of entity mutation — upsert, attribute update, delete —
// invalidates it so the next listing reflects the new state.
func TestListCacheServesAndInvalidates(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFixtureWith(t, func(c *Config) { c.Metrics = reg })
	tok := f.token(t, "farmer")

	probe := func(id string, v float64) *ngsi.Entity {
		return &ngsi.Entity{ID: id, Type: "SoilProbe", Attrs: map[string]ngsi.Attribute{
			"soilMoisture": {Type: "Number", Value: v},
		}}
	}
	if err := f.ctx.UpsertEntity(probe("urn:farm1:e1", 0.10)); err != nil {
		t.Fatal(err)
	}

	const path = "/v2/entities?idPattern=urn:farm1:*&options=count&orderBy=id"
	list := func() (out []ngsi.Entity, total string) {
		t.Helper()
		resp := f.do(t, http.MethodGet, path, tok, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out, resp.Header.Get("Fiware-Total-Count")
	}

	if out, total := list(); len(out) != 1 || total != "1" {
		t.Fatalf("first list: %d entities, total %q", len(out), total)
	}
	if got := reg.Counter("httpapi.entities.list.cached").Value(); got != 0 {
		t.Fatalf("cold list counted as cached: %d", got)
	}
	// Identical repeat: served from cache, body and count header intact.
	if out, total := list(); len(out) != 1 || total != "1" {
		t.Fatalf("cached list: %d entities, total %q", len(out), total)
	}
	if got := reg.Counter("httpapi.entities.list.cached").Value(); got != 1 {
		t.Fatalf("cached counter = %d, want 1", got)
	}

	// Upsert invalidates: the next listing sees the new entity.
	if err := f.ctx.UpsertEntity(probe("urn:farm1:e2", 0.20)); err != nil {
		t.Fatal(err)
	}
	if out, total := list(); len(out) != 2 || total != "2" {
		t.Fatalf("post-upsert list: %d entities, total %q", len(out), total)
	}

	// Attribute update invalidates: the refreshed value is served.
	if err := f.ctx.UpdateAttrs("urn:farm1:e1", "SoilProbe", map[string]ngsi.Attribute{
		"soilMoisture": {Type: "Number", Value: 0.99},
	}); err != nil {
		t.Fatal(err)
	}
	out, _ := list()
	if len(out) != 2 {
		t.Fatalf("post-update list: %d entities", len(out))
	}
	if v, ok := out[0].Attrs["soilMoisture"].Value.(float64); !ok || v != 0.99 {
		t.Fatalf("post-update value = %v, want 0.99", out[0].Attrs["soilMoisture"].Value)
	}

	// Delete invalidates too.
	if err := f.ctx.DeleteEntity("urn:farm1:e2"); err != nil {
		t.Fatal(err)
	}
	if out, total := list(); len(out) != 1 || total != "1" {
		t.Fatalf("post-delete list: %d entities, total %q", len(out), total)
	}
}

// TestListCachePerQueryKey: different query strings get distinct cache
// entries — a hit on one never serves the other's body.
func TestListCachePerQueryKey(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	for _, e := range []struct {
		id string
		v  float64
	}{{"urn:farm1:a", 0.1}, {"urn:farm1:b", 0.9}} {
		if err := f.ctx.UpsertEntity(&ngsi.Entity{ID: e.id, Type: "SoilProbe",
			Attrs: map[string]ngsi.Attribute{"soilMoisture": {Type: "Number", Value: e.v}}}); err != nil {
			t.Fatal(err)
		}
	}
	get := func(path string) []ngsi.Entity {
		t.Helper()
		resp := f.do(t, http.MethodGet, path, tok, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s", resp.StatusCode, path)
		}
		var out []ngsi.Entity
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	wide := "/v2/entities?idPattern=urn:farm1:*"
	narrow := "/v2/entities?idPattern=urn:farm1:*&q=soilMoisture%3E0.5"
	if got := get(wide); len(got) != 2 {
		t.Fatalf("wide = %d entities", len(got))
	}
	if got := get(narrow); len(got) != 1 || got[0].ID != "urn:farm1:b" {
		t.Fatalf("narrow = %+v", got)
	}
	// Repeat both (cache hits now) — still distinct.
	if got := get(wide); len(got) != 2 {
		t.Fatalf("cached wide = %d entities", len(got))
	}
	if got := get(narrow); len(got) != 1 {
		t.Fatalf("cached narrow = %d entities", len(got))
	}
}
