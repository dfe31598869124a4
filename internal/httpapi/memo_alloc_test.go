//go:build !race

package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
)

// discardWriter is a ResponseWriter that keeps nothing of the body, so a
// response allocates the same whatever its length.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestMemoListingAllocsIndependentOfPage: once a listing has read them,
// stored versions are served from their memos — a warm page of 100
// entities allocates exactly what a page of 10 does. Every entity carries
// a value AppendJSON hands to encoding/json, which allocates, so an
// entity encoded a second time would show here.
func TestMemoListingAllocsIndependentOfPage(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	at := time.Date(2026, 9, 28, 12, 0, 0, 0, time.UTC)
	for i := range 100 {
		if err := f.ctx.UpsertEntity(&ngsi.Entity{ID: "urn:farm1:p" + strconv.Itoa(1000+i), Type: "SoilProbe",
			Attrs: map[string]ngsi.Attribute{
				"soilMoisture": {Type: "Number", Value: 0.25, At: at},
				"profile":      {Type: "StructuredValue", Value: []any{0.2, 0.3, "dry"}, At: at},
			}}); err != nil {
			t.Fatal(err)
		}
	}
	listing := func(limit int) float64 {
		req := httptest.NewRequest(http.MethodGet, "/v2/entities?idPattern=urn:farm1:*&limit="+strconv.Itoa(limit), nil)
		req.Header.Set("Authorization", "Bearer "+tok)
		return testing.AllocsPerRun(50, func() {
			w := &discardWriter{h: http.Header{}}
			r := *req
			f.api.ServeHTTP(w, &r)
			if w.code != http.StatusOK {
				t.Fatalf("listing status %d", w.code)
			}
		})
	}
	listing(100) // fill every version's memo
	small, full := listing(10), listing(100)
	if full != small {
		t.Fatalf("warm listing: %v allocs for 100 entities, %v for 10; want the same", full, small)
	}
}
