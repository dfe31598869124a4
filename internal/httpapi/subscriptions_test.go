package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/tenant"
)

// seedEntities writes n farm1 plots with a numeric soilMoisture spread
// over [0,1) and a zone text attribute.
func seedEntities(t *testing.T, f *fixture, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.ctx.UpsertEntity(&ngsi.Entity{
			ID:   fmt.Sprintf("urn:farm1:plot:%04d", i),
			Type: "AgriParcel",
			Attrs: map[string]ngsi.Attribute{
				"soilMoisture": {Type: "Number", Value: float64(i) / float64(n)},
				"zone":         {Type: "Text", Value: fmt.Sprintf("zone-%d", i%4)},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func decodeEntities(t *testing.T, resp *http.Response) []ngsi.Entity {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out []ngsi.Entity
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func decodeErr(t *testing.T, resp *http.Response) apiError {
	t.Helper()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body not a JSON envelope: %v", err)
	}
	if e.Error == "" {
		t.Fatal("error envelope missing error kind")
	}
	return e
}

// TestEntityQuerySurface exercises q=, attrs=, orderBy=, limit/offset
// and options=count over HTTP.
func TestEntityQuerySurface(t *testing.T) {
	f := newFixture(t)
	seedEntities(t, f, 40)
	tok := f.token(t, "farmer")

	// Filtered query with projection and count.
	resp := f.do(t, "GET",
		"/v2/entities?idPattern=urn:farm1:*&q=soilMoisture%3C0.25&attrs=soilMoisture&options=count&limit=5", tok, nil)
	list := decodeEntities(t, resp)
	if len(list) != 5 {
		t.Fatalf("page = %d entities", len(list))
	}
	if got := resp.Header.Get("Fiware-Total-Count"); got != "10" {
		t.Errorf("Fiware-Total-Count = %q, want 10", got)
	}
	for _, e := range list {
		if _, leaked := e.Attrs["zone"]; leaked {
			t.Fatal("projection leaked attribute over HTTP")
		}
	}

	// Conjunction with a string comparison.
	resp = f.do(t, "GET", "/v2/entities?idPattern=urn:farm1:*&q=soilMoisture%3C0.25%3Bzone==zone-0&options=count", tok, nil)
	decodeEntities(t, resp)
	if got := resp.Header.Get("Fiware-Total-Count"); got != "3" {
		t.Errorf("conjunction total = %q, want 3", got)
	}

	// Pagination is deterministic under the default orderBy=id.
	resp = f.do(t, "GET", "/v2/entities?idPattern=urn:farm1:*&limit=7&offset=7", tok, nil)
	page := decodeEntities(t, resp)
	if len(page) != 7 || page[0].ID != "urn:farm1:plot:0007" {
		t.Errorf("offset page starts at %s with %d entities", page[0].ID, len(page))
	}

	// orderBy attribute, descending.
	resp = f.do(t, "GET", "/v2/entities?idPattern=urn:farm1:*&orderBy=!soilMoisture&limit=1", tok, nil)
	top := decodeEntities(t, resp)
	if len(top) != 1 || top[0].ID != "urn:farm1:plot:0039" {
		t.Errorf("descending top = %+v", top)
	}

	// Unordered mode still honors the limit.
	resp = f.do(t, "GET", "/v2/entities?idPattern=urn:farm1:*&orderBy=none&limit=3", tok, nil)
	if got := decodeEntities(t, resp); len(got) != 3 {
		t.Errorf("unordered page = %d", len(got))
	}
}

// TestEntityQueryValidation: malformed q=, limit and offset values are
// rejected with a parseable JSON envelope and a 400.
func TestEntityQueryValidation(t *testing.T) {
	f := newFixture(t)
	seedEntities(t, f, 5)
	tok := f.token(t, "farmer")
	for _, path := range []string{
		"/v2/entities?idPattern=urn:farm1:*&q=soilMoisture%3D0.2",                // single '=' is not an operator
		"/v2/entities?idPattern=urn:farm1:*&q=soilMoisture%3E%3D",                // missing value
		"/v2/entities?idPattern=urn:farm1:*&q=a%3D%3D'x",                         // unterminated quote
		"/v2/entities?idPattern=urn:farm1:*&q=;",                                 // empty statements
		"/v2/entities?idPattern=urn:farm1:*&q=soilMoisture%3D%3Dnan",             // NaN orders against nothing
		"/v2/entities?idPattern=urn:farm1:*&limit=0",                             // non-positive limit
		"/v2/entities?idPattern=urn:farm1:*&limit=nope",                          // non-numeric limit
		"/v2/entities?idPattern=urn:farm1:*&limit=100000",                        // above the hard cap
		"/v2/entities?idPattern=urn:farm1:*&offset=-2",                           // negative offset
		"/v2/entities?idPattern=urn:farm1:*&offset=2000000",                      // offset above the hard cap
		"/v2/entities?idPattern=urn:farm1:*&offset=9223372036854775000&limit=10", // offset+limit would overflow
	} {
		resp := f.do(t, "GET", path, tok, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
			continue
		}
		decodeErr(t, resp)
	}
}

// TestLegacyListIsCapped: a bare GET /v2/entities (the legacy
// unpaginated path) is bounded by the default limit.
func TestLegacyListIsCapped(t *testing.T) {
	f := newFixtureWith(t, func(cfg *Config) { cfg.QueryDefaultLimit = 10 })
	seedEntities(t, f, 25)
	tok := f.token(t, "farmer")
	resp := f.do(t, "GET", "/v2/entities?idPattern=urn:farm1:*", tok, nil)
	if got := decodeEntities(t, resp); len(got) != 10 {
		t.Errorf("bare listing returned %d entities, want the 10-entity cap", len(got))
	}
}

// TestErrorEnvelopeEverywhere: unknown routes and method mismatches also
// produce the JSON error envelope, not the mux's plain-text pages.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	f := newFixture(t)
	resp := f.do(t, "GET", "/v2/nope", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route status %d", resp.StatusCode)
	}
	if e := decodeErr(t, resp); e.Error != "not_found" {
		t.Errorf("unknown route error kind %q", e.Error)
	}
	resp = f.do(t, "PUT", "/v2/entities", "", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("method mismatch status %d", resp.StatusCode)
	}
	if e := decodeErr(t, resp); e.Error != "method_not_allowed" {
		t.Errorf("method mismatch error kind %q", e.Error)
	}
}

type subRecorder struct {
	mu    sync.Mutex
	notes []struct {
		SubscriptionID string        `json:"subscriptionId"`
		Data           []ngsi.Entity `json:"data"`
	}
}

func (s *subRecorder) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			SubscriptionID string        `json:"subscriptionId"`
			Data           []ngsi.Entity `json:"data"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.notes = append(s.notes, body)
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *subRecorder) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.notes)
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

// instantBackoff returns a simulated clock that fires every webhook retry
// backoff as soon as a delivery arms it, so retries run back to back.
func instantBackoff(t *testing.T) *clock.Sim {
	t.Helper()
	sim := clock.NewSim(time.Unix(0, 0))
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if sim.PendingWaiters() > 0 {
					sim.Advance(time.Hour)
				}
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
	return sim
}

// TestSubscriptionWebhookEndToEnd is the full northbound loop: create a
// subscription over HTTP, update a matching entity over HTTP, receive
// the NGSI notification on a test server — while a second subscription
// pointing at a stalled endpoint isolates to itself: its counters
// advance, its status flips to failed, and the healthy subscriber keeps
// receiving.
func TestSubscriptionWebhookEndToEnd(t *testing.T) {
	var pool *ngsi.WebhookPool
	var broker *ngsi.Broker
	f := newFixtureWith(t, func(cfg *Config) {
		broker = cfg.Context
		pool = ngsi.NewWebhookPool(ngsi.WebhookConfig{
			Metrics:  cfg.Metrics,
			Timeout:  100 * time.Millisecond,
			Clock:    instantBackoff(t),
			OnStatus: ngsi.StatusUpdater(broker),
		})
		cfg.Webhooks = pool
	})
	t.Cleanup(pool.Close)
	tok := f.token(t, "farmer")

	recorder := &subRecorder{}
	receiver := httptest.NewServer(recorder.handler())
	t.Cleanup(receiver.Close)
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(time.Second)
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(stalled.Close)

	mkSub := func(url string) string {
		t.Helper()
		body := fmt.Sprintf(`{
			"subject": {"entities": [{"idPattern": "urn:farm1:plot:*", "type": "AgriParcel"}],
			            "condition": {"attrs": ["soilMoisture"]}},
			"notification": {"http": {"url": %q}}
		}`, url)
		resp := f.do(t, "POST", "/v2/subscriptions", tok, []byte(body))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create status %d", resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc == "" {
			t.Fatal("no Location header")
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
			t.Fatalf("create body: %v (%+v)", err, out)
		}
		return out.ID
	}
	healthyID := mkSub(receiver.URL)
	stalledID := mkSub(stalled.URL)

	// Both visible in the listing, active.
	resp := f.do(t, "GET", "/v2/subscriptions", tok, nil)
	var subs []subscriptionJSON
	if err := json.NewDecoder(resp.Body).Decode(&subs); err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("listed %d subscriptions", len(subs))
	}
	for _, sub := range subs {
		if sub.Status != string(ngsi.SubActive) || sub.Owner != "farm1" {
			t.Errorf("subscription %+v", sub)
		}
	}

	// Drive matching updates through the HTTP ingest path.
	const updates = 4
	for i := 0; i < updates; i++ {
		body := fmt.Sprintf(`{"soilMoisture":{"type":"Number","value":0.%d}}`, 10+i)
		resp := f.do(t, "POST", "/v2/entities/urn:farm1:plot:0001/attrs?type=AgriParcel", tok, []byte(body))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("update status %d", resp.StatusCode)
		}
	}

	// The healthy endpoint receives every notification with the right
	// subscription id and entity.
	waitUntil(t, 5*time.Second, func() bool { return recorder.count() >= updates })
	recorder.mu.Lock()
	first := recorder.notes[0]
	recorder.mu.Unlock()
	if first.SubscriptionID != healthyID || len(first.Data) != 1 || first.Data[0].ID != "urn:farm1:plot:0001" {
		t.Errorf("notification payload %+v", first)
	}

	// The stalled endpoint's failures accumulate and flip only its own
	// subscription to failed.
	waitUntil(t, 15*time.Second, func() bool {
		v, err := broker.Subscription(stalledID)
		return err == nil && v.Status == ngsi.SubFailed
	})
	if v, _ := broker.Subscription(healthyID); v.Status != ngsi.SubActive {
		t.Error("healthy subscription affected by stalled endpoint")
	}
	resp = f.do(t, "GET", "/v2/subscriptions/"+stalledID, tok, nil)
	var sv subscriptionJSON
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	if sv.Status != string(ngsi.SubFailed) {
		t.Errorf("stalled subscription status over HTTP = %s", sv.Status)
	}

	// Delete both; they disappear from the broker and the API.
	for _, id := range []string{healthyID, stalledID} {
		resp := f.do(t, "DELETE", "/v2/subscriptions/"+id, tok, nil)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete status %d", resp.StatusCode)
		}
	}
	resp = f.do(t, "GET", "/v2/subscriptions/"+healthyID, tok, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted subscription status %d", resp.StatusCode)
	}
}

// TestSubscriptionAuthz: token and tenancy rules on the subscription
// surface.
func TestSubscriptionAuthz(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	outsider := f.token(t, "outsider")

	// No token.
	resp := f.do(t, "GET", "/v2/subscriptions", "", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no-token list status %d", resp.StatusCode)
	}
	// An outsider may not subscribe to farm1's entities.
	body := []byte(`{"subject":{"entities":[{"idPattern":"urn:farm1:*"}]},
		"notification":{"http":{"url":"http://127.0.0.1:1/hook"}}}`)
	resp = f.do(t, "POST", "/v2/subscriptions", outsider, body)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("cross-tenant create status %d", resp.StatusCode)
	}
	// The farmer creates one.
	resp = f.do(t, "POST", "/v2/subscriptions", tok, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// The outsider cannot see or delete it — and gets the same 404 a
	// missing id would give, so sequential ids leak nothing; the list
	// hides it too.
	resp = f.do(t, "GET", "/v2/subscriptions/"+out.ID, outsider, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-tenant get status %d, want indistinguishable 404", resp.StatusCode)
	}
	resp = f.do(t, "DELETE", "/v2/subscriptions/"+out.ID, outsider, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-tenant delete status %d, want indistinguishable 404", resp.StatusCode)
	}
	if _, err := f.ctx.Subscription(out.ID); err != nil {
		t.Error("cross-tenant delete actually removed the subscription")
	}
	resp = f.do(t, "GET", "/v2/subscriptions", outsider, nil)
	var subs []subscriptionJSON
	if err := json.NewDecoder(resp.Body).Decode(&subs); err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Errorf("outsider sees %d foreign subscriptions", len(subs))
	}
	// Unknown id → 404.
	resp = f.do(t, "GET", "/v2/subscriptions/urn:none", tok, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d", resp.StatusCode)
	}
}

// TestInternalSubscriptionsInvisibleToTenants: ownerless platform
// wiring (like core's telemetry catch-all) is hidden from, and not
// deletable by, non-operator principals — even ones with an empty Owner.
func TestInternalSubscriptionsInvisibleToTenants(t *testing.T) {
	f := newFixtureWith(t, nil)
	if _, err := f.ctx.Subscribe(ngsi.Subscription{
		ID:              "platform-telemetry",
		EntityIDPattern: "*",
		Notifier:        ngsi.Callback(func(ngsi.Notification) {}),
	}); err != nil {
		t.Fatal(err)
	}
	tok := f.token(t, "farmer")
	resp := f.do(t, "GET", "/v2/subscriptions", tok, nil)
	var subs []subscriptionJSON
	if err := json.NewDecoder(resp.Body).Decode(&subs); err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Errorf("internal subscription visible to tenant: %+v", subs)
	}
	resp = f.do(t, "GET", "/v2/subscriptions/platform-telemetry", tok, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("internal subscription readable: status %d", resp.StatusCode)
	}
	resp = f.do(t, "DELETE", "/v2/subscriptions/platform-telemetry", tok, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("internal subscription delete status %d", resp.StatusCode)
	}
	if _, err := f.ctx.Subscription("platform-telemetry"); err != nil {
		t.Error("tenant deleted the internal platform subscription")
	}
}

// TestSubscriptionValidation: malformed creation payloads are rejected
// with the envelope before any state is created.
func TestSubscriptionValidation(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	for _, body := range []string{
		``,
		`not json`,
		`{}`, // no subject entities
		`{"subject":{"entities":[{"idPattern":"urn:farm1:*"},{"idPattern":"urn:farm1:b*"}]},
		  "notification":{"http":{"url":"http://x/h"}}}`, // two selectors
		`{"subject":{"entities":[{}]},"notification":{"http":{"url":"http://x/h"}}}`, // empty selector
		`{"subject":{"entities":[{"idPattern":"urn:farm1:*"}]}}`,                     // no URL
		`{"subject":{"entities":[{"idPattern":"urn:farm1:*"}]},
		  "notification":{"http":{"url":"ftp://x/h"}}}`, // bad scheme
		`{"subject":{"entities":[{"idPattern":"urn:farm1:*"}]},
		  "notification":{"http":{"url":"http://x/h"}},"throttling":-1}`, // negative throttling
	} {
		resp := f.do(t, "POST", "/v2/subscriptions", tok, []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", body, resp.StatusCode)
			continue
		}
		decodeErr(t, resp)
	}
	if n := f.ctx.SubscriptionCount(); n != 0 {
		t.Errorf("invalid payloads created %d subscriptions", n)
	}
}

// TestSubscriptionQuotaSurvivesAdmissionToggle: a subscription created
// while admission is off holds its owner's slot, so turning admission on
// with a quota of one refuses the next POST with 429; deleting the first
// returns the slot. Created ids come from the broker's generator.
func TestSubscriptionQuotaSurvivesAdmissionToggle(t *testing.T) {
	adm := tenant.NewAdmission(tenant.Config{
		Limits: tenant.Limits{Default: tenant.Quota{MsgsPerSec: 1000, Subscriptions: 1}},
	})
	f := newFixtureWith(t, func(c *Config) { c.Admission = adm })
	tok := f.token(t, "farmer")
	body := []byte(`{"subject":{"entities":[{"idPattern":"urn:farm1:*"}]},
		"notification":{"http":{"url":"http://127.0.0.1:1/hook"}}}`)
	create := func() *http.Response {
		t.Helper()
		return f.do(t, "POST", "/v2/subscriptions", tok, body)
	}

	resp := create()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with admission off: status %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`^urn:swamp:subscription:\d{6}$`).MatchString(out.ID) {
		t.Fatalf("created id %q, want urn:swamp:subscription:NNNNNN", out.ID)
	}

	adm.SetEnabled(true)
	resp = create()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create past quota 1: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "60" {
		t.Errorf("Retry-After = %q, want 60", got)
	}
	decodeErr(t, resp)
	if n := f.ctx.SubscriptionCount(); n != 1 {
		t.Fatalf("%d subscriptions after the refused create, want 1", n)
	}

	if resp := f.do(t, "DELETE", "/v2/subscriptions/"+out.ID, tok, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if resp := create(); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after delete: status %d, want the slot back", resp.StatusCode)
	}
}
