package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/cloud"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/security/oauth"
	"github.com/swamp-project/swamp/internal/security/pep"
	"github.com/swamp-project/swamp/internal/tenant"
	"github.com/swamp-project/swamp/internal/timeseries"
)

type fixture struct {
	srv    *httptest.Server
	api    *Server
	ctx    *ngsi.Broker
	tokens *oauth.Server
}

func newFixture(t *testing.T) *fixture {
	return newFixtureWith(t, nil)
}

// newFixtureWith builds the standard two-tenant fixture, letting the
// test tweak the server Config (webhook pool, query limits) before the
// server is constructed.
func newFixtureWith(t *testing.T, tweak func(*Config)) *fixture {
	t.Helper()
	idm := identity.NewStore()
	if err := idm.Register(identity.Principal{
		ID: "farmer", Roles: []identity.Role{identity.RoleFarmer}, Owner: "farm1",
	}, "pw"); err != nil {
		t.Fatal(err)
	}
	if err := idm.Register(identity.Principal{
		ID: "outsider", Roles: []identity.Role{identity.RoleFarmer}, Owner: "farm2",
	}, "pw"); err != nil {
		t.Fatal(err)
	}
	tokens := oauth.NewServer(idm, oauth.Config{})
	pdp := pep.NewPDP(
		pep.Policy{
			ID: "own-ngsi", Roles: []identity.Role{identity.RoleFarmer},
			Owners: []tenant.ID{"farm1"}, ResourcePattern: "ngsi:urn:farm1:*", Effect: pep.Permit,
		},
		pep.Policy{
			ID: "own-series", Roles: []identity.Role{identity.RoleFarmer},
			Owners: []tenant.ID{"farm1"}, ResourcePattern: "series:farm1-*", Effect: pep.Permit,
		},
		pep.Policy{
			ID: "subscriptions", Roles: []identity.Role{identity.RoleFarmer},
			Actions: []string{"read", "subscribe"}, ResourcePattern: "subscriptions",
			Effect: pep.Permit,
		},
		pep.Policy{
			ID: "outsider-ngsi", Roles: []identity.Role{identity.RoleFarmer},
			Owners: []tenant.ID{"farm2"}, ResourcePattern: "ngsi:urn:farm2:*", Effect: pep.Permit,
		},
	)
	ctx := ngsi.NewBroker(ngsi.BrokerConfig{})
	t.Cleanup(ctx.Close)
	store := timeseries.New()
	ing := cloud.NewIngestor(ngsi.Local{Store: store}, nil)
	if err := ing.IngestReadings([]model.Reading{
		{Device: "farm1-p1", Quantity: model.QSoilMoisture, Value: 0.25, At: time.Now()},
		{Device: "farm1-p1", Quantity: model.QSoilMoisture, Value: 0.27, At: time.Now()},
	}); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Context: ctx, Tokens: tokens, PEP: pep.NewPEP(tokens, pdp, nil),
		Analytics: cloud.NewAnalytics(store),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return &fixture{srv: ts, api: s, ctx: ctx, tokens: tokens}
}

func (f *fixture) token(t *testing.T, user string) string {
	t.Helper()
	resp, err := http.PostForm(f.srv.URL+"/oauth/token", url.Values{
		"grant_type": {"password"}, "username": {user}, "password": {"pw"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("token status %d", resp.StatusCode)
	}
	var body struct {
		AccessToken string `json:"access_token"`
		TokenType   string `json:"token_type"`
		ExpiresIn   int    `json:"expires_in"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.TokenType != "Bearer" || body.ExpiresIn <= 0 || body.AccessToken == "" {
		t.Fatalf("token body %+v", body)
	}
	return body.AccessToken
}

func (f *fixture) do(t *testing.T, method, path, token string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, f.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestTokenEndpoint(t *testing.T) {
	f := newFixture(t)
	f.token(t, "farmer") // success path asserted inside

	// Wrong password.
	resp, err := http.PostForm(f.srv.URL+"/oauth/token", url.Values{
		"grant_type": {"password"}, "username": {"farmer"}, "password": {"nope"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad password status %d", resp.StatusCode)
	}
	// Unknown grant type.
	resp2, err := http.PostForm(f.srv.URL+"/oauth/token", url.Values{"grant_type": {"magic"}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad grant status %d", resp2.StatusCode)
	}
}

func TestEntityCRUDOverHTTP(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")

	// Create/update via POST attrs.
	body := []byte(`{"soilMoisture":{"type":"Number","value":0.31}}`)
	resp := f.do(t, "POST", "/v2/entities/urn:farm1:plot1/attrs?type=AgriParcel", tok, body)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	// Read it back.
	resp = f.do(t, "GET", "/v2/entities/urn:farm1:plot1", tok, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	var e ngsi.Entity
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Type != "AgriParcel" {
		t.Errorf("entity %+v", e)
	}
	if v, ok := e.Attrs["soilMoisture"].Float(); !ok || v != 0.31 {
		t.Errorf("attr = %v", e.Attrs["soilMoisture"].Value)
	}
	// List with pattern.
	resp = f.do(t, "GET", "/v2/entities?idPattern=urn:farm1:*", tok, nil)
	var list []ngsi.Entity
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Errorf("list = %d entities", len(list))
	}
	// Delete.
	resp = f.do(t, "DELETE", "/v2/entities/urn:farm1:plot1", tok, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp = f.do(t, "GET", "/v2/entities/urn:farm1:plot1", tok, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete status %d", resp.StatusCode)
	}
}

// TestBatchUpdateOverHTTP exercises the batched ingest path: one
// POST /v2/op/update request lands several entities in one BatchUpdate.
func TestBatchUpdateOverHTTP(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")

	body := []byte(`{"actionType":"append","entities":[
		{"id":"urn:farm1:plot1","type":"AgriParcel","attrs":{"soilMoisture":{"type":"Number","value":0.28}}},
		{"id":"urn:farm1:plot2","type":"AgriParcel","attrs":{"soilMoisture":{"type":"Number","value":0.31}}}
	]}`)
	resp := f.do(t, "POST", "/v2/op/update", tok, body)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if f.ctx.EntityCount() != 2 {
		t.Errorf("entity count = %d, want 2", f.ctx.EntityCount())
	}
	e, err := f.ctx.GetEntity("urn:farm1:plot2")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Attrs["soilMoisture"].Float(); !ok || v != 0.31 {
		t.Errorf("attr = %v", e.Attrs["soilMoisture"].Value)
	}

	// A cross-tenant entity anywhere in the batch rejects the request
	// before anything is applied.
	denied := []byte(`{"entities":[
		{"id":"urn:farm1:plot3","type":"AgriParcel","attrs":{"soilMoisture":{"type":"Number","value":0.1}}},
		{"id":"urn:farm2:plot1","type":"AgriParcel","attrs":{"soilMoisture":{"type":"Number","value":0.1}}}
	]}`)
	resp = f.do(t, "POST", "/v2/op/update", tok, denied)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("cross-tenant batch status %d", resp.StatusCode)
	}
	if _, err := f.ctx.GetEntity("urn:farm1:plot3"); err == nil {
		t.Error("partially applied a denied batch")
	}

	// Malformed bodies are rejected.
	for _, bad := range []string{"", "{}", `{"entities":[]}`, `{"actionType":"delete","entities":[{"id":"x","type":"T"}]}`} {
		resp := f.do(t, "POST", "/v2/op/update", tok, []byte(bad))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", bad, resp.StatusCode)
		}
	}
}

func TestAuthzEnforcedOverHTTP(t *testing.T) {
	f := newFixture(t)
	// No token → 401.
	resp := f.do(t, "GET", "/v2/entities/urn:farm1:plot1", "", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no-token status %d", resp.StatusCode)
	}
	// Garbage token → 401.
	resp = f.do(t, "GET", "/v2/entities/urn:farm1:plot1", "garbage", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("garbage-token status %d", resp.StatusCode)
	}
	// Cross-tenant token → 403.
	outsider := f.token(t, "outsider")
	resp = f.do(t, "GET", "/v2/entities/urn:farm1:plot1", outsider, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("cross-tenant status %d", resp.StatusCode)
	}
	// Revoked token → 401.
	tok := f.token(t, "farmer")
	f.tokens.Revoke(tok)
	resp = f.do(t, "GET", "/v2/entities/urn:farm1:plot1", tok, nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("revoked-token status %d", resp.StatusCode)
	}
}

func TestUpdateValidation(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	for _, body := range []string{"", "{}", "not json"} {
		resp := f.do(t, "POST", "/v2/entities/urn:farm1:x/attrs", tok, []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", body, resp.StatusCode)
		}
	}
}

func TestAnalyticsEndpoint(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	resp := f.do(t, "GET", "/v2/analytics/farm1-p1/soilMoisture?hours=48", tok, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytics status %d", resp.StatusCode)
	}
	var out struct {
		Count int     `json:"count"`
		Mean  float64 `json:"mean"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 || out.Mean != 0.26 {
		t.Errorf("analytics %+v", out)
	}
	// Foreign series denied.
	resp = f.do(t, "GET", "/v2/analytics/farm2-p9/soilMoisture", tok, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("foreign series status %d", resp.StatusCode)
	}
	// Bad hours.
	resp = f.do(t, "GET", "/v2/analytics/farm1-p1/soilMoisture?hours=-3", tok, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad hours status %d", resp.StatusCode)
	}
}

// TestAnalyticsSeriesEndpoint exercises the downsampled-series route: the
// window parameter, the PEP guard and input validation.
func TestAnalyticsSeriesEndpoint(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	resp := f.do(t, "GET", "/v2/analytics/farm1-p1/soilMoisture/series?hours=48&window=1h", tok, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("series status %d", resp.StatusCode)
	}
	var out struct {
		Device string `json:"device"`
		Window string `json:"window"`
		Points []struct {
			Count int     `json:"count"`
			Min   float64 `json:"min"`
			Max   float64 `json:"max"`
			Mean  float64 `json:"mean"`
		} `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Device != "farm1-p1" || out.Window != "1h0m0s" {
		t.Errorf("series envelope %+v", out)
	}
	total := 0
	for _, p := range out.Points {
		total += p.Count
		if p.Min > p.Mean || p.Mean > p.Max {
			t.Errorf("inconsistent window %+v", p)
		}
	}
	if len(out.Points) == 0 || total != 2 {
		t.Errorf("windows = %d, total count = %d (want 2 points total)", len(out.Points), total)
	}

	// Bad window values.
	for _, q := range []string{"window=0s", "window=-5m", "window=banana"} {
		resp := f.do(t, "GET", "/v2/analytics/farm1-p1/soilMoisture/series?"+q, tok, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", q, resp.StatusCode)
		}
	}
	// Foreign series denied by the PEP.
	resp = f.do(t, "GET", "/v2/analytics/farm2-p9/soilMoisture/series", tok, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("foreign series status %d", resp.StatusCode)
	}
	// No token.
	resp = f.do(t, "GET", "/v2/analytics/farm1-p1/soilMoisture/series", "", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated status %d", resp.StatusCode)
	}
}

// TestAnalyticsHoursValidation: ?hours= must be a whole positive number
// of hours whose window fits a time.Duration, on both analytics routes;
// the widest accepted window still covers the stored points.
func TestAnalyticsHoursValidation(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	for _, route := range []string{"/v2/analytics/farm1-p1/soilMoisture", "/v2/analytics/farm1-p1/soilMoisture/series"} {
		for _, h := range []string{"24abc", "1e3", "0", "-1", "2562047"} {
			resp := f.do(t, "GET", route+"?hours="+h, tok, nil)
			var apiErr apiError
			_ = json.NewDecoder(resp.Body).Decode(&apiErr)
			if resp.StatusCode != http.StatusBadRequest || apiErr.Error != "invalid_hours" {
				t.Errorf("%s?hours=%s: status %d %q, want 400 invalid_hours", route, h, resp.StatusCode, apiErr.Error)
			}
		}
		resp := f.do(t, "GET", route+"?hours=2562046", tok, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s?hours=2562046: status %d", route, resp.StatusCode)
		}
		var out struct {
			Count  int `json:"count"`
			Points []struct {
				Count int `json:"count"`
			} `json:"points"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		for _, p := range out.Points {
			out.Count += p.Count
		}
		if out.Count != 2 {
			t.Errorf("%s?hours=2562046: count %d, want 2", route, out.Count)
		}
	}
}

// TestHealthAndMetrics: /healthz and /metrics belong to Ops, rendering the
// registry the API server counts into; the API mux itself answers neither.
func TestHealthAndMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	f := newFixtureWith(t, func(c *Config) { c.Metrics = reg })
	ops := httptest.NewServer(NewOps(reg, nil, nil))
	t.Cleanup(ops.Close)
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz %d", resp.StatusCode)
	}
	f.token(t, "farmer") // bump a counter
	buf := new(strings.Builder)
	if _, err := jsonSafeCopy(buf, get("/metrics")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "swamp_httpapi_token_issued 1") {
		t.Errorf("metrics output missing counters:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "# TYPE swamp_httpapi_token_issued counter") {
		t.Errorf("metrics output not in Prometheus exposition format:\n%s", buf.String())
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp := f.do(t, "GET", path, "", nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("API mux answers %s with %d, want 404", path, resp.StatusCode)
		}
	}
}

func jsonSafeCopy(dst *strings.Builder, resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	buf := make([]byte, 32<<10)
	var n int64
	for {
		m, err := resp.Body.Read(buf)
		dst.Write(buf[:m])
		n += int64(m)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

// failJournal fails every mutation's ack — a latched WAL.
type failJournal struct{ err error }

type failJournalAck struct{ err error }

func (a failJournalAck) Wait() error { return a.err }

func (j failJournal) EntityUpserted(*ngsi.Entity) ngsi.JournalAck { return failJournalAck{j.err} }
func (j failJournal) EntitiesMerged([]ngsi.MergeEntry) ngsi.JournalAck {
	return failJournalAck{j.err}
}
func (j failJournal) EntityDeleted(string) ngsi.JournalAck { return failJournalAck{j.err} }
func (j failJournal) SubscriptionPut(ngsi.SubscriptionView) ngsi.JournalAck {
	return failJournalAck{j.err}
}
func (j failJournal) SubscriptionDeleted(string) ngsi.JournalAck { return failJournalAck{j.err} }

// TestDurabilityFailureMapsTo503 asserts WAL durability failures answer
// as server faults (503, retryable), not client errors: a 400 would make
// well-behaved agents drop the payload as rejected, and a 404 on delete
// would claim an entity is gone while it may resurrect on restart.
func TestDurabilityFailureMapsTo503(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")

	// Seed one entity while the journal still accepts.
	body := []byte(`{"soilMoisture":{"type":"Number","value":0.3}}`)
	if resp := f.do(t, "POST", "/v2/entities/urn:farm1:plot1/attrs?type=AgriParcel", tok, body); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("seed status %d", resp.StatusCode)
	}

	f.ctx.SetJournal(failJournal{err: errors.New("disk full")})

	if resp := f.do(t, "POST", "/v2/entities/urn:farm1:plot1/attrs?type=AgriParcel", tok, body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("update attrs status = %d, want 503", resp.StatusCode)
	}
	batch := []byte(`{"entities":[{"id":"urn:farm1:plot1","type":"AgriParcel","attrs":{"soilMoisture":{"type":"Number","value":0.4}}}]}`)
	if resp := f.do(t, "POST", "/v2/op/update", tok, batch); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch update status = %d, want 503", resp.StatusCode)
	}
	if resp := f.do(t, "DELETE", "/v2/entities/urn:farm1:plot1", tok, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("delete entity status = %d, want 503", resp.StatusCode)
	}
	// A genuinely missing entity still answers 404.
	if resp := f.do(t, "DELETE", "/v2/entities/urn:farm1:nope", tok, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing delete status = %d, want 404", resp.StatusCode)
	}
}

// A chunked request body carries no Content-Length, so admission cannot
// charge it up front; the counting reader must settle the byte cost as
// the handler consumes it — otherwise chunked transfer encoding evades
// the bytes/s quota entirely.
func TestChunkedBodyChargedAgainstByteQuota(t *testing.T) {
	adm := tenant.NewAdmission(tenant.Config{
		Enabled: true,
		Limits:  tenant.Limits{Default: tenant.Quota{MsgsPerSec: 1000, BytesPerSec: 1024}},
	})
	f := newFixtureWith(t, func(c *Config) { c.Admission = adm })
	tok := f.token(t, "farmer")

	// ~40 KiB of attributes against a 2 KiB burst capacity: far past the
	// reject rung once the body lands in the byte bucket.
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"attr%04d":{"type":"Number","value":0.5}`, i)
	}
	sb.WriteByte('}')
	body := []byte(sb.String())
	// Hiding the reader's concrete type strips ContentLength, so the
	// client sends Transfer-Encoding: chunked.
	req, err := http.NewRequest("POST",
		f.srv.URL+"/v2/entities/urn:farm1:plot9/attrs?type=AgriParcel",
		struct{ io.Reader }{bytes.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("chunked update status %d", resp.StatusCode)
	}

	// The consumed body must have landed in the byte bucket: the tenant
	// is now deep in debt and its next request is refused.
	resp = f.do(t, "GET", "/v2/entities/urn:farm1:plot9", tok, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request after oversized chunked upload got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestAdmissionPacedRequestsChargedOnce: on a standstill simulated
// clock, a tenant past its burst has each request charged and paced —
// held open until the clock refills its bucket — and, past one second of
// debt, answered 429 without any charge. Every paced request is served
// once the clock moves.
func TestAdmissionPacedRequestsChargedOnce(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	adm := tenant.NewAdmission(tenant.Config{
		Enabled: true,
		Limits:  tenant.Limits{Default: tenant.Quota{MsgsPerSec: 10}},
		Burst:   time.Second,
		Clock:   sim,
	})
	f := newFixtureWith(t, func(c *Config) { c.Admission = adm })
	tok := f.token(t, "farmer")
	debt := func() float64 {
		for _, st := range adm.Tenants() {
			return st.DebtSec
		}
		return 0
	}
	get := func(res chan<- int) {
		req, _ := http.NewRequest("GET", f.srv.URL+"/v2/entities/urn:farm1:plot1", nil)
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			res <- 0
			return
		}
		resp.Body.Close()
		res <- resp.StatusCode
	}

	var paced []chan int
	throttled := 0
	for i := 0; i < 30; i++ {
		before := debt()
		res := make(chan int, 1)
		go get(res)
		// Each request either answers or is charged and held.
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("request %d neither answered nor was paced", i)
			}
			select {
			case code := <-res:
				if code == http.StatusTooManyRequests {
					throttled++
					if after := debt(); after != before {
						t.Fatalf("request %d answered 429 and was charged: debt %v → %v", i, before, after)
					}
				} else if code == 0 || before > 0 {
					t.Fatalf("request %d answered %d at debt %v", i, code, before)
				}
			default:
				if debt() <= before {
					continue
				}
				paced = append(paced, res)
			}
			break
		}
	}
	// Ten requests fit the burst; eleven take the debt past one second.
	if len(paced) != 11 || throttled != 30-10-11 {
		t.Fatalf("paced %d and throttled %d of 30, want 11 and 9", len(paced), throttled)
	}
	sim.Advance(2 * time.Second)
	for i, res := range paced {
		if code := <-res; code == http.StatusTooManyRequests || code == 0 {
			t.Fatalf("paced request %d answered %d", i, code)
		}
	}
}
