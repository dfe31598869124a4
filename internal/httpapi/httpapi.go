// Package httpapi exposes the SWAMP platform northbound over HTTP, the way
// a FIWARE deployment exposes Orion: an NGSI-v2-flavoured REST API for
// context entities plus an OAuth2 token endpoint. Every data route demands
// a bearer token and crosses the PEP, so the paper's §III access-control
// chain (identify → authorize → audit) guards external clients exactly as
// it guards internal ones.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/swamp-project/swamp/internal/cloud"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/security/oauth"
	"github.com/swamp-project/swamp/internal/security/pep"
	"github.com/swamp-project/swamp/internal/tenant"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// Query pagination defaults: every entity listing is bounded, so a
// fleet-scale store can never produce an unbounded response body.
const (
	DefaultQueryLimit = 100
	DefaultQueryCap   = 1000
)

// Config wires a Server.
type Config struct {
	// Context is the entity store behind /v2/entities (required).
	Context *ngsi.Broker
	// Tokens backs POST /oauth/token (required).
	Tokens *oauth.Server
	// PEP authorizes every data route (required).
	PEP *pep.PEP
	// Analytics backs /v2/analytics (optional; 404 when nil).
	Analytics *cloud.Analytics
	// Metrics receives the server's counters (Ops renders it at GET
	// /metrics); nil allocates a private one.
	Metrics *metrics.Registry
	// Webhooks delivers subscription notifications and holds their quota
	// slots; nil builds a private pool wired to Context and Admission
	// (closed by Server.Close).
	Webhooks *ngsi.WebhookPool
	// Cluster, when non-nil, is the Backend the entity and analytics
	// routes use instead of the local stores (Context and Analytics): it
	// routes to partition owners across the cluster. Subscriptions stay
	// node-local either way.
	Cluster Backend
	// QueryDefaultLimit is the page size applied when a listing request
	// names none (0 → DefaultQueryLimit).
	QueryDefaultLimit int
	// QueryMaxLimit is the hard cap on requested page sizes
	// (0 → DefaultQueryCap). Requests above it are rejected with 400.
	QueryMaxLimit int
	// Admission is the shared per-tenant admission controller. nil (or
	// disabled) admits everything; when set, every authorized data route
	// is charged against the principal's tenant and over-quota requests
	// answer 429 with Retry-After.
	Admission *tenant.Admission
}

// Server is the HTTP facade. It implements http.Handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	backend Backend
	ownPool bool

	// Hot-path counters, resolved once so request handling never takes
	// the registry lock.
	cTokenIssued, cTokenRejected *metrics.Counter
	cList                        *metrics.Counter
	cUpdate, cBatch, cBatchSize  *metrics.Counter
	cSeries, cThrottled          *metrics.Counter
}

// NewServer validates the config and builds the routing table.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Context == nil || cfg.Tokens == nil || cfg.PEP == nil {
		return nil, errors.New("httpapi: context, tokens and pep are required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.QueryDefaultLimit <= 0 {
		cfg.QueryDefaultLimit = DefaultQueryLimit
	}
	if cfg.QueryMaxLimit <= 0 {
		cfg.QueryMaxLimit = DefaultQueryCap
	}
	if cfg.QueryDefaultLimit > cfg.QueryMaxLimit {
		cfg.QueryDefaultLimit = cfg.QueryMaxLimit
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		backend: cfg.Cluster,

		cTokenIssued:   cfg.Metrics.Counter("httpapi.token.issued"),
		cTokenRejected: cfg.Metrics.Counter("httpapi.token.rejected"),
		cList:          cfg.Metrics.Counter("httpapi.entities.list"),
		cUpdate:        cfg.Metrics.Counter("httpapi.entities.update"),
		cBatch:         cfg.Metrics.Counter("httpapi.entities.batch"),
		cBatchSize:     cfg.Metrics.Counter("httpapi.entities.batch.size"),
		cSeries:        cfg.Metrics.Counter("httpapi.analytics.series"),
		cThrottled:     cfg.Metrics.Counter("httpapi.throttled"),
	}
	if s.cfg.Webhooks == nil {
		s.cfg.Webhooks = ngsi.NewWebhookPool(ngsi.WebhookConfig{
			Metrics:   cfg.Metrics,
			OnStatus:  ngsi.StatusUpdater(cfg.Context),
			Admission: cfg.Admission,
		})
		s.ownPool = true
	}
	if s.backend == nil {
		s.backend = localBackend{Broker: cfg.Context, analytics: cfg.Analytics}
	}
	analytics, series := s.handleAnalytics, s.handleAnalyticsSeries
	if cfg.Cluster == nil && cfg.Analytics == nil {
		analytics, series = analyticsDisabled, analyticsDisabled
	}
	s.mux.HandleFunc("POST /oauth/token", s.handleToken)
	s.mux.HandleFunc("GET /v2/entities", s.handleListEntities)
	s.mux.HandleFunc("GET /v2/entities/{id}", s.handleGetEntity)
	s.mux.HandleFunc("POST /v2/entities/{id}/attrs", s.handleUpdateAttrs)
	s.mux.HandleFunc("POST /v2/op/update", s.handleBatchUpdate)
	s.mux.HandleFunc("DELETE /v2/entities/{id}", s.handleDeleteEntity)
	s.mux.HandleFunc("POST /v2/subscriptions", s.handleCreateSubscription)
	s.mux.HandleFunc("GET /v2/subscriptions", s.handleListSubscriptions)
	s.mux.HandleFunc("GET /v2/subscriptions/{id}", s.handleGetSubscription)
	s.mux.HandleFunc("DELETE /v2/subscriptions/{id}", s.handleDeleteSubscription)
	s.mux.HandleFunc("GET /v2/analytics/{device}/{quantity}", analytics)
	s.mux.HandleFunc("GET /v2/analytics/{device}/{quantity}/series", series)
	return s, nil
}

// Close releases resources the server owns (the private webhook pool,
// when Config.Webhooks was nil).
func (s *Server) Close() {
	if s.ownPool {
		s.cfg.Webhooks.Close()
	}
}

// ServeHTTP implements http.Handler. Responses are routed through an
// envelope writer so even mux-generated failures (unknown route, method
// mismatch) carry the NGSI-v2 JSON error body instead of plain text.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ew := &envelopeWriter{ResponseWriter: w}
	s.mux.ServeHTTP(ew, r)
	// The tenant inflight slot claimed in authorize spans the whole
	// handler; it is returned here, once the response is written.
	if ew.release != nil {
		ew.release()
	}
}

// envelopeWriter rewrites non-JSON error responses (the mux's plain-text
// 404/405 pages) into the standard error envelope. Handlers in this
// package always set the JSON content type before writing an error, so
// their bodies pass through untouched.
type envelopeWriter struct {
	http.ResponseWriter
	suppressBody bool
	wroteHeader  bool
	// release returns the tenant admission inflight slot (set by
	// authorize on the first authorized route of the request).
	release func()
}

func (e *envelopeWriter) WriteHeader(code int) {
	if e.wroteHeader {
		e.ResponseWriter.WriteHeader(code)
		return
	}
	e.wroteHeader = true
	ct := e.Header().Get("Content-Type")
	if code < http.StatusBadRequest || strings.HasPrefix(ct, "application/json") {
		e.ResponseWriter.WriteHeader(code)
		return
	}
	e.suppressBody = true
	e.Header().Set("Content-Type", "application/json")
	e.ResponseWriter.WriteHeader(code)
	kind := "error"
	switch code {
	case http.StatusNotFound:
		kind = "not_found"
	case http.StatusMethodNotAllowed:
		kind = "method_not_allowed"
	case http.StatusBadRequest:
		kind = "bad_request"
	}
	_ = json.NewEncoder(e.ResponseWriter).Encode(apiError{Error: kind, Description: http.StatusText(code)})
}

func (e *envelopeWriter) Write(b []byte) (int, error) {
	if e.suppressBody {
		return len(b), nil // the plain-text body was replaced by the envelope
	}
	return e.ResponseWriter.Write(b)
}

// apiError is the JSON error envelope (Orion-style).
type apiError struct {
	Error       string `json:"error"`
	Description string `json:"description,omitempty"`
}

// jsonBufPool recycles response-encoding buffers across requests, so a
// hot northbound path allocates no per-response scratch. Buffers that
// grew past maxPooledBufBytes (an unusually wide listing) are dropped
// instead of pinned in the pool.
var jsonBufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBufBytes = 1 << 16

// getJSONBuf returns an empty buffer with warm capacity; the caller
// stores the slice it grew back through the pointer before putJSONBuf.
func getJSONBuf() *[]byte {
	buf := jsonBufPool.Get().(*[]byte)
	*buf = (*buf)[:0]
	return buf
}

func putJSONBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBufBytes {
		jsonBufPool.Put(buf)
	}
}

// writeBody sends a complete JSON body. Its length is known, so it goes
// out with Content-Length, never chunked.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write is the client gone; nothing to report to
}

// writeJSON renders v through encoding/json. A value that cannot be
// encoded answers 500 encode_failure instead of a 200 with no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	bb := bytes.NewBuffer(*buf)
	err := json.NewEncoder(bb).Encode(v)
	*buf = bb.Bytes()
	if err != nil {
		writeEncodeFailure(w, err)
		return
	}
	writeBody(w, code, *buf)
}

func writeErr(w http.ResponseWriter, code int, kind, desc string) {
	writeJSON(w, code, apiError{Error: kind, Description: desc})
}

// writeEncodeFailure answers a response body JSON cannot carry (an entity
// holding NaN or ±Inf, reachable through Broker.UpsertEntity).
func writeEncodeFailure(w http.ResponseWriter, err error) {
	writeErr(w, http.StatusInternalServerError, "encode_failure", err.Error())
}

// writeMutationErr maps a backend failure by its sentinel, the same on
// every node. A lookup miss answers 404. A durability error (journal
// record not durable — deletes and subscription changes are rolled
// back; entity upserts/merges stay applied and converge on restart to
// the durable state) and an unavailable owner are the server's fault:
// 503 tells well-behaved clients to retry instead of dropping the
// payload as rejected. Everything else answers with the caller's
// fallback status/kind (400 validation, 404 lookup).
func writeMutationErr(w http.ResponseWriter, fallbackCode int, kind string, err error) {
	switch {
	case errors.Is(err, ngsi.ErrNotFound):
		writeErr(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, ngsi.ErrDurability):
		writeErr(w, http.StatusServiceUnavailable, "durability_failure", err.Error())
	case errors.Is(err, ngsi.ErrUnavailable):
		writeErr(w, http.StatusServiceUnavailable, "cluster_unavailable", err.Error())
	default:
		writeErr(w, fallbackCode, kind, err.Error())
	}
}

// handleToken implements the password and client_credentials grants with
// form encoding per RFC 6749.
func (s *Server) handleToken(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_request", "malformed form")
		return
	}
	var tok oauth.Token
	var err error
	switch r.PostForm.Get("grant_type") {
	case "password":
		tok, err = s.cfg.Tokens.GrantPassword(
			r.PostForm.Get("username"), r.PostForm.Get("password"))
	case "client_credentials":
		tok, err = s.cfg.Tokens.GrantClientCredentials(
			r.PostForm.Get("client_id"), r.PostForm.Get("client_secret"))
	default:
		writeErr(w, http.StatusBadRequest, "unsupported_grant_type", "")
		return
	}
	if err != nil {
		s.cTokenRejected.Inc()
		writeErr(w, http.StatusUnauthorized, "invalid_grant", "authentication failed")
		return
	}
	s.cTokenIssued.Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"access_token": tok.Value,
		"token_type":   "Bearer",
		"expires_in":   int(time.Until(tok.ExpiresAt).Seconds()),
	})
}

// authorize enforces bearer-token + PEP on a data route; it returns the
// authenticated principal, or ok=false after writing the error response
// (401 missing/invalid token, 403 PEP deny, 429 over quota).
func (s *Server) authorize(w http.ResponseWriter, r *http.Request, action, resource string) (identity.Principal, bool) {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(auth, prefix) {
		writeErr(w, http.StatusUnauthorized, "missing_token", "Authorization: Bearer required")
		return identity.Principal{}, false
	}
	prin, err := s.cfg.PEP.Authorize(strings.TrimPrefix(auth, prefix), action, resource)
	if err != nil {
		if errors.Is(err, pep.ErrDenied) {
			writeErr(w, http.StatusForbidden, "access_denied", err.Error())
		} else {
			writeErr(w, http.StatusUnauthorized, "invalid_token", "token rejected")
		}
		return identity.Principal{}, false
	}
	// Tenant admission runs after authentication (the tenant is the
	// principal's) and once per request: handlers that authorize several
	// resources (batch update) are charged on the first pass only, so one
	// HTTP request always costs one quota message plus its body bytes.
	if ew, isEnvelope := w.(*envelopeWriter); !isEnvelope || ew.release == nil {
		bytes := r.ContentLength
		if bytes < 0 {
			// Chunked transfer: the body size is unknown until read, so
			// admit on the message token alone and settle the byte cost
			// as the handler consumes the body — otherwise a tenant
			// could evade the bytes/s quota entirely by never sending
			// Content-Length.
			bytes = 0
			if r.Body != nil {
				r.Body = &chargedBody{ReadCloser: r.Body, adm: s.cfg.Admission, id: prin.Tenant()}
			}
		}
		d, release := s.cfg.Admission.AdmitRequest(prin.Tenant(), bytes)
		if !d.Allowed() {
			s.cThrottled.Inc()
			writeThrottled(w, d)
			return identity.Principal{}, false
		}
		if isEnvelope {
			ew.release = release
		} else {
			// No envelope writer to park the slot on (a handler invoked
			// outside ServeHTTP): return it now — the rate charge stands,
			// only the inflight bound is skipped.
			release()
		}
		// A tenant in debt is paced, holding its inflight slot, until its
		// bucket is back at zero (≤ 1 s). A client that hangs up
		// meanwhile gets no response: nobody is left to read it. Done is
		// asked for only when there is a wait: its first call allocates.
		if d.Wait > 0 && !s.cfg.Admission.Pace(d, r.Context().Done()) {
			return identity.Principal{}, false
		}
		// Thread the tenant through the request context so downstream
		// layers can attribute work without re-deriving the principal.
		*r = *r.WithContext(tenant.WithID(r.Context(), prin.Tenant()))
	}
	return prin, true
}

// chargedBody settles a chunked request body's byte cost against the
// tenant's quota as the handler reads it. Charging per Read (rather
// than once on completion) means an abandoned oversized upload is still
// charged for everything consumed.
type chargedBody struct {
	io.ReadCloser
	adm *tenant.Admission
	id  tenant.ID
}

func (b *chargedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		b.adm.ChargeBytes(b.id, int64(n))
	}
	return n, err
}

// writeThrottled answers an over-quota request: 429 through the JSON
// error envelope plus a Retry-After header sized from the tenant's
// current quota debt (never below 1s — clients should back off, not spin).
func writeThrottled(w http.ResponseWriter, d tenant.Decision) {
	retry := int(d.Wait / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeErr(w, http.StatusTooManyRequests, "too_many_requests",
		fmt.Sprintf("tenant quota exceeded; retry after %ds", retry))
}

// handleListEntities serves the NGSI-v2 query surface:
//
//	GET /v2/entities?idPattern=urn:farm1:*&type=SoilProbe&q=soilMoisture<0.2
//	    &attrs=soilMoisture,zone&orderBy=id&limit=50&offset=100&options=count
//
// Every knob is handed to the broker's query engine (filter, order, page,
// projection), and the page it returns — read-only stored versions — is
// encoded straight into the response, each version through its memo
// (QueryResult.AppendJSON). The page size always applies — even
// a bare request gets QueryDefaultLimit — so the legacy unpaginated
// listing can no longer return an unbounded body. options=count adds the
// exact match total as the Fiware-Total-Count header.
func (s *Server) handleListEntities(w http.ResponseWriter, r *http.Request) {
	// Parse the query string strictly: Go's lenient Query() silently
	// drops pairs containing raw ';' — which would silently strip a
	// client's q= filter. Conjunctions must encode ';' as %3B.
	qs, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_query",
			"malformed query string (encode ';' as %3B): "+err.Error())
		return
	}
	pattern := qs.Get("idPattern")
	if pattern == "" {
		pattern = "*"
	}
	if _, ok := s.authorize(w, r, "read", "ngsi:"+pattern); !ok {
		return
	}
	conds, err := ngsi.ParseQ(qs.Get("q"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_query", err.Error())
		return
	}
	queryCap := s.cfg.QueryMaxLimit
	limit := s.cfg.QueryDefaultLimit
	if ls := qs.Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil || limit <= 0 {
			writeErr(w, http.StatusBadRequest, "invalid_limit", ls)
			return
		}
		if limit > queryCap {
			writeErr(w, http.StatusBadRequest, "invalid_limit",
				fmt.Sprintf("limit %d exceeds maximum %d", limit, queryCap))
			return
		}
	}
	// The offset shares the hard cap, so deep pagination cannot be used
	// to walk an unbounded store page by page through one query shape.
	offset := 0
	if os := qs.Get("offset"); os != "" {
		offset, err = strconv.Atoi(os)
		if err != nil || offset < 0 {
			writeErr(w, http.StatusBadRequest, "invalid_offset", os)
			return
		}
		if offset > queryCap {
			writeErr(w, http.StatusBadRequest, "invalid_offset",
				fmt.Sprintf("offset %d exceeds maximum %d; narrow the query instead", offset, queryCap))
			return
		}
	}
	orderBy := qs.Get("orderBy")
	switch orderBy {
	case "":
		orderBy = ngsi.OrderByID // deterministic pagination by default
	case "none":
		orderBy = "" // engine-level unordered mode: early-stop scan
	}
	var attrs []string
	if as := qs.Get("attrs"); as != "" {
		attrs = strings.Split(as, ",")
	}
	count := false
	for _, opt := range strings.Split(qs.Get("options"), ",") {
		if opt == "count" {
			count = true
		}
	}
	res, err := s.backend.Query(ngsi.Query{
		IDPattern:  pattern,
		Type:       qs.Get("type"),
		Conditions: conds,
		Attrs:      attrs,
		OrderBy:    orderBy,
		Limit:      limit,
		Offset:     offset,
		Count:      count,
	})
	if err != nil {
		writeMutationErr(w, http.StatusBadRequest, "invalid_query", err)
		return
	}
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	body, err := res.AppendJSON(*buf)
	if err != nil {
		writeEncodeFailure(w, err)
		return
	}
	body = append(body, '\n')
	*buf = body
	if count {
		w.Header().Set("Fiware-Total-Count", strconv.Itoa(res.Total))
	}
	s.cList.Inc()
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleGetEntity(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.authorize(w, r, "read", "ngsi:"+id); !ok {
		return
	}
	e, err := s.backend.GetEntity(id)
	if errors.Is(err, ngsi.ErrNotFound) {
		writeErr(w, http.StatusNotFound, "not_found", id)
		return
	}
	if err != nil {
		writeMutationErr(w, http.StatusNotFound, "not_found", err)
		return
	}
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	// A locally stored version encodes through its memo; an entity a
	// cluster peer sent is encoded afresh.
	body, err := s.cfg.Context.AppendEntityJSON(*buf, e)
	if err != nil {
		writeEncodeFailure(w, err)
		return
	}
	body = append(body, '\n')
	*buf = body
	writeBody(w, http.StatusOK, body)
}

// updateBody is the accepted payload of POST .../attrs: attribute name →
// {type, value}.
type updateBody map[string]struct {
	Type  string  `json:"type"`
	Value float64 `json:"value"`
}

func (s *Server) handleUpdateAttrs(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.authorize(w, r, "write", "ngsi:"+id); !ok {
		return
	}
	var body updateBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || len(body) == 0 {
		writeErr(w, http.StatusBadRequest, "invalid_body", "expected {attr:{type,value}}")
		return
	}
	entityType := r.URL.Query().Get("type")
	if entityType == "" {
		entityType = "Thing"
	}
	attrs := make(map[string]ngsi.Attribute, len(body))
	for name, a := range body {
		typ := a.Type
		if typ == "" {
			typ = "Number"
		}
		attrs[name] = ngsi.Attribute{Type: typ, Value: a.Value}
	}
	if err := s.backend.UpdateAttrs(id, entityType, attrs); err != nil {
		writeMutationErr(w, http.StatusBadRequest, "update_failed", err)
		return
	}
	s.cUpdate.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// batchBody is the payload of POST /v2/op/update, following Orion's batch
// operation shape: an action plus the affected entities.
type batchBody struct {
	ActionType string `json:"actionType"`
	Entities   []struct {
		ID    string                    `json:"id"`
		Type  string                    `json:"type"`
		Attrs map[string]ngsi.Attribute `json:"attrs"`
	} `json:"entities"`
}

// handleBatchUpdate is the batched ingest path over HTTP: one request, a
// per-entity PEP pass, then one BatchUpdate with a single lock acquisition
// per broker shard — the NGSI-v2 `POST /v2/op/update` operation.
func (s *Server) handleBatchUpdate(w http.ResponseWriter, r *http.Request) {
	var body batchBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || len(body.Entities) == 0 {
		writeErr(w, http.StatusBadRequest, "invalid_body", "expected {actionType, entities:[{id,type,attrs}]}")
		return
	}
	if body.ActionType != "" && body.ActionType != "append" && body.ActionType != "update" {
		writeErr(w, http.StatusBadRequest, "invalid_action", body.ActionType)
		return
	}
	// Every map written below is built here from the decoded body; the
	// broker copies what it stores, and nothing it stores is ever edited.
	updates := make(map[string]ngsi.BatchEntry, len(body.Entities))
	for _, e := range body.Entities {
		if _, ok := s.authorize(w, r, "write", "ngsi:"+e.ID); !ok {
			return
		}
		typ := e.Type
		if typ == "" {
			typ = "Thing"
		}
		entry := updates[e.ID]
		if entry.Attrs == nil {
			entry = ngsi.BatchEntry{Type: typ, Attrs: make(map[string]ngsi.Attribute, len(e.Attrs))}
		} else if e.Type != "" {
			// Duplicate id: an explicitly typed entry wins over an earlier
			// defaulted one.
			entry.Type = e.Type
		}
		for name, a := range e.Attrs {
			if a.Type == "" {
				a.Type = "Number"
			}
			entry.Attrs[name] = a
		}
		updates[e.ID] = entry
	}
	if err := s.backend.BatchUpdate(updates); err != nil {
		writeMutationErr(w, http.StatusBadRequest, "update_failed", err)
		return
	}
	s.cBatch.Inc()
	s.cBatchSize.Add(uint64(len(updates)))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDeleteEntity(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.authorize(w, r, "write", "ngsi:"+id); !ok {
		return
	}
	if err := s.backend.DeleteEntity(id); err != nil {
		// A durability failure answers 503, not 404: the delete was
		// rolled back, so the entity is still there and the client
		// must retry.
		writeMutationErr(w, http.StatusNotFound, "not_found", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxAnalyticsHours is the largest ?hours= whose window, hours+1 hours
// long, still fits a time.Duration.
const maxAnalyticsHours = math.MaxInt64/int64(time.Hour) - 1

// analyticsRange parses the shared ?hours=N query range: it returns the
// [from, to) window or false after writing the error response.
func (s *Server) analyticsRange(w http.ResponseWriter, r *http.Request) (from, to time.Time, ok bool) {
	hours := 24
	if h := r.URL.Query().Get("hours"); h != "" {
		var err error
		if hours, err = strconv.Atoi(h); err != nil || hours <= 0 || int64(hours) > maxAnalyticsHours {
			writeErr(w, http.StatusBadRequest, "invalid_hours", h)
			return time.Time{}, time.Time{}, false
		}
	}
	to = time.Now().Add(time.Hour) // include freshly stamped points
	from = to.Add(-time.Duration(hours+1) * time.Hour)
	return from, to, true
}

// analyticsDisabled answers both analytics routes of a server with no
// analytics backend.
func analyticsDisabled(w http.ResponseWriter, _ *http.Request) {
	writeErr(w, http.StatusNotFound, "analytics_disabled", "")
}

// handleAnalytics returns the summary aggregate of one series:
// GET /v2/analytics/{device}/{quantity}?hours=24
func (s *Server) handleAnalytics(w http.ResponseWriter, r *http.Request) {
	device := r.PathValue("device")
	quantity := r.PathValue("quantity")
	if _, ok := s.authorize(w, r, "read", "series:"+device); !ok {
		return
	}
	from, to, ok := s.analyticsRange(w, r)
	if !ok {
		return
	}
	agg, err := s.backend.Summary(device, quantity, from, to)
	if err != nil {
		writeMutationErr(w, http.StatusInternalServerError, "query_failed", err)
		return
	}
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	body, err := appendSummaryJSON(*buf, device, quantity, agg)
	*buf = body
	if err != nil {
		writeEncodeFailure(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// handleAnalyticsSeries returns a downsampled range of one series, one
// aggregate per window:
// GET /v2/analytics/{device}/{quantity}/series?hours=24&window=1h
// The window accepts Go duration syntax (15m, 1h, 24h; default 1h). The
// aggregation is pushed down onto the store's chunk summaries, so the cost
// scales with chunks, not points.
func (s *Server) handleAnalyticsSeries(w http.ResponseWriter, r *http.Request) {
	device := r.PathValue("device")
	quantity := r.PathValue("quantity")
	if _, ok := s.authorize(w, r, "read", "series:"+device); !ok {
		return
	}
	from, to, ok := s.analyticsRange(w, r)
	if !ok {
		return
	}
	window := time.Hour
	if ws := r.URL.Query().Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, "invalid_window", ws)
			return
		}
		window = d
	}
	wins, err := s.backend.Windows(device, quantity, from, to, window)
	if err != nil {
		writeMutationErr(w, http.StatusBadRequest, "query_failed", err)
		return
	}
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	body, err := appendSeriesJSON(*buf, device, quantity, window, wins)
	*buf = body
	if err != nil {
		writeEncodeFailure(w, err)
		return
	}
	s.cSeries.Inc()
	writeBody(w, http.StatusOK, body)
}

// appendSummaryJSON appends the summary body: byte for byte what
// json.Encoder writes for the map {device, quantity, count, min, max,
// mean} — keys sorted, trailing newline. A value JSON cannot carry
// returns encoding/json's own error for it.
func appendSummaryJSON(dst []byte, device, quantity string, agg timeseries.Aggregate) ([]byte, error) {
	a := jsonAppender{b: dst}
	a.raw(`{"count":`)
	a.int(agg.Count)
	a.raw(`,"device":`)
	a.str(device)
	a.raw(`,"max":`)
	a.float(agg.Max)
	a.raw(`,"mean":`)
	a.float(agg.Mean)
	a.raw(`,"min":`)
	a.float(agg.Min)
	a.raw(`,"quantity":`)
	a.str(quantity)
	a.raw("}\n")
	return a.b, a.err
}

// appendSeriesJSON appends the series body: byte for byte what
// json.Encoder writes for the map {device, quantity, window, points},
// each point {at, count, min, max, mean} in that order. A value JSON
// cannot carry returns encoding/json's own error for it.
func appendSeriesJSON(dst []byte, device, quantity string, window time.Duration, wins []timeseries.WindowAggregate) ([]byte, error) {
	a := jsonAppender{b: dst}
	a.raw(`{"device":`)
	a.str(device)
	a.raw(`,"points":[`)
	for i, wa := range wins {
		if i > 0 {
			a.raw(",")
		}
		a.raw(`{"at":`)
		a.time(wa.Start)
		a.raw(`,"count":`)
		a.int(wa.Count)
		a.raw(`,"min":`)
		a.float(wa.Min)
		a.raw(`,"max":`)
		a.float(wa.Max)
		a.raw(`,"mean":`)
		a.float(wa.Mean)
		a.raw("}")
	}
	a.raw(`],"quantity":`)
	a.str(quantity)
	a.raw(`,"window":`)
	a.str(window.String())
	a.raw("}\n")
	return a.b, a.err
}

// jsonAppender appends JSON tokens to b through ngsi's encoders and keeps
// the first error, in encoding order, that a value JSON cannot carry
// raises — encoding/json's error for that value, so a refused body reads
// as it did when encoding/json wrote it.
type jsonAppender struct {
	b   []byte
	err error
}

func (a *jsonAppender) raw(s string) { a.b = append(a.b, s...) }
func (a *jsonAppender) str(s string) { a.b = ngsi.AppendJSONString(a.b, s) }
func (a *jsonAppender) int(n int)    { a.b = strconv.AppendInt(a.b, int64(n), 10) }

func (a *jsonAppender) float(f float64) {
	var err error
	if a.b, err = ngsi.AppendJSONFloat(a.b, f); err != nil {
		a.fail(f)
	}
}

func (a *jsonAppender) time(t time.Time) {
	out, err := t.AppendText(append(a.b, '"'))
	if err != nil {
		a.fail(t)
		return
	}
	a.b = append(out, '"')
}

func (a *jsonAppender) fail(v any) {
	if a.err == nil {
		_, a.err = json.Marshal(v)
	}
}
