package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/tenant"
)

// nextSubID numbers HTTP-created subscriptions. The prefix keeps them
// out of the broker's own "sub-N" namespace.
var nextSubID atomic.Uint64

// seedSubscriptionCounter bumps nextSubID past every existing
// HTTP-namespace subscription id in the broker (monotonically — the
// counter is shared across servers), so ids survive a WAL recovery
// without colliding.
func seedSubscriptionCounter(b *ngsi.Broker) {
	for _, v := range b.Subscriptions() {
		var n uint64
		if _, err := fmt.Sscanf(v.ID, "urn:swamp:subscription:%d", &n); err != nil {
			continue
		}
		for {
			cur := nextSubID.Load()
			if n <= cur || nextSubID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
}

// subscriptionBody is the accepted payload of POST /v2/subscriptions —
// the Orion subscription shape restricted to one subject entity selector
// and an HTTP notification target.
type subscriptionBody struct {
	Description string `json:"description,omitempty"`
	Subject     struct {
		Entities []struct {
			ID        string `json:"id"`
			IDPattern string `json:"idPattern"`
			Type      string `json:"type"`
		} `json:"entities"`
		Condition struct {
			Attrs []string `json:"attrs"`
		} `json:"condition"`
	} `json:"subject"`
	Notification struct {
		HTTP struct {
			URL string `json:"url"`
		} `json:"http"`
		Attrs []string `json:"attrs"`
	} `json:"notification"`
	// Throttling is in seconds, per NGSI-v2.
	Throttling float64 `json:"throttling,omitempty"`
}

// subscriptionJSON is the wire form of a subscription view.
type subscriptionJSON struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Owner is a tenant.ID, which marshals as the same bare string the
	// pre-tenant `owner string` field produced — wire compatible.
	Owner   tenant.ID `json:"owner,omitempty"`
	Subject struct {
		Entities  []map[string]string `json:"entities"`
		Condition struct {
			Attrs []string `json:"attrs,omitempty"`
		} `json:"condition"`
	} `json:"subject"`
	Notification struct {
		HTTP struct {
			URL string `json:"url"`
		} `json:"http"`
		Attrs []string `json:"attrs,omitempty"`
	} `json:"notification"`
	Throttling float64 `json:"throttling,omitempty"`
}

func (s *Server) subscriptionToJSON(v ngsi.SubscriptionView) subscriptionJSON {
	var out subscriptionJSON
	out.ID = v.ID
	out.Status = string(v.Status)
	out.Owner = v.Owner
	ent := map[string]string{"idPattern": v.EntityIDPattern}
	if v.EntityType != "" {
		ent["type"] = v.EntityType
	}
	out.Subject.Entities = []map[string]string{ent}
	out.Subject.Condition.Attrs = v.ConditionAttrs
	if url, ok := s.cfg.Webhooks.URL(v.ID); ok {
		out.Notification.HTTP.URL = url
	}
	out.Notification.Attrs = v.NotifyAttrs
	out.Throttling = v.Throttling.Seconds()
	return out
}

// canManage reports whether the principal may see/delete a subscription:
// its owner, or an operator role. Ownerless subscriptions are internal
// platform wiring (e.g. the telemetry catch-all) and are never managed
// through the tenant path — an empty-owner principal must not match
// them, or a tenant could silently delete platform-wide ingestion.
func canManage(prin identity.Principal, v ngsi.SubscriptionView) bool {
	if prin.HasRole(identity.RoleService) || prin.HasRole(identity.RoleAdmin) {
		return true
	}
	return v.Owner != "" && v.Owner == prin.Owner
}

// handleCreateSubscription implements POST /v2/subscriptions: validate
// the payload, authorize "subscribe" on the watched entity pattern, then
// register a webhook delivery worker (its pool checks the URL) and the
// broker subscription, stamped with the caller's tenant for owner scoping.
func (s *Server) handleCreateSubscription(w http.ResponseWriter, r *http.Request) {
	var body subscriptionBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_body", "malformed subscription")
		return
	}
	if len(body.Subject.Entities) != 1 {
		writeErr(w, http.StatusBadRequest, "invalid_subject", "exactly one subject entity selector required")
		return
	}
	ent := body.Subject.Entities[0]
	pattern := ent.IDPattern
	if ent.ID != "" {
		pattern = ent.ID // exact-id selector
	}
	if pattern == "" {
		writeErr(w, http.StatusBadRequest, "invalid_subject", "subject entity needs id or idPattern")
		return
	}
	if body.Throttling < 0 {
		writeErr(w, http.StatusBadRequest, "invalid_throttling", "throttling must be >= 0 seconds")
		return
	}
	prin, ok := s.authorize(w, r, "subscribe", "ngsi:"+pattern)
	if !ok {
		return
	}
	// The subscription slot is held for the subscription's lifetime, not
	// the request's: released on delete, or below if registration fails.
	if err := s.cfg.Admission.ReserveSubscription(prin.Tenant()); err != nil {
		s.cThrottled.Inc()
		w.Header().Set("Retry-After", "60")
		writeErr(w, http.StatusTooManyRequests, "too_many_requests", err.Error())
		return
	}

	id := fmt.Sprintf("urn:swamp:subscription:%06d", nextSubID.Add(1))
	notifier, err := s.cfg.Webhooks.Notifier(id, body.Notification.HTTP.URL)
	if err != nil {
		s.cfg.Admission.ReleaseSubscription(prin.Tenant())
		if errors.Is(err, ngsi.ErrWebhookURL) {
			writeErr(w, http.StatusBadRequest, "invalid_notification", "notification.http.url must be an absolute http(s) URL")
			return
		}
		writeErr(w, http.StatusInternalServerError, "subscription_failed", err.Error())
		return
	}
	notifier.SetOwner(prin.Tenant())
	if _, err := s.cfg.Context.Subscribe(ngsi.Subscription{
		ID:              id,
		EntityIDPattern: pattern,
		EntityType:      ent.Type,
		ConditionAttrs:  body.Subject.Condition.Attrs,
		NotifyAttrs:     body.Notification.Attrs,
		Throttling:      time.Duration(body.Throttling * float64(time.Second)),
		Notifier:        notifier,
		Owner:           prin.Owner,
	}); err != nil {
		s.cfg.Webhooks.Remove(id)
		s.cfg.Admission.ReleaseSubscription(prin.Tenant())
		writeMutationErr(w, http.StatusBadRequest, "subscription_failed", err)
		return
	}
	s.cfg.Metrics.Counter("httpapi.subscriptions.created").Inc()
	w.Header().Set("Location", "/v2/subscriptions/"+id)
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

// handleListSubscriptions implements GET /v2/subscriptions: the caller
// sees the subscriptions of its own tenant; operator roles see all.
func (s *Server) handleListSubscriptions(w http.ResponseWriter, r *http.Request) {
	prin, ok := s.authorize(w, r, "read", "subscriptions")
	if !ok {
		return
	}
	views := s.cfg.Context.Subscriptions()
	out := make([]subscriptionJSON, 0, len(views))
	for _, v := range views {
		// canManage hides both other tenants' subscriptions and the
		// ownerless internal platform wiring from non-operators.
		if !canManage(prin, v) {
			continue
		}
		out = append(out, s.subscriptionToJSON(v))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGetSubscription implements GET /v2/subscriptions/{id}.
func (s *Server) handleGetSubscription(w http.ResponseWriter, r *http.Request) {
	prin, ok := s.authorize(w, r, "read", "subscriptions")
	if !ok {
		return
	}
	v, err := s.cfg.Context.Subscription(r.PathValue("id"))
	if err != nil || !canManage(prin, v) {
		// A foreign subscription answers 404, exactly like a missing
		// one, so sequential ids cannot be used to map other tenants.
		writeErr(w, http.StatusNotFound, "not_found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.subscriptionToJSON(v))
}

// handleDeleteSubscription implements DELETE /v2/subscriptions/{id}: the
// broker subscription is removed first, then the webhook worker, so no
// new notifications can be queued to a dead worker.
func (s *Server) handleDeleteSubscription(w http.ResponseWriter, r *http.Request) {
	prin, ok := s.authorize(w, r, "subscribe", "subscriptions")
	if !ok {
		return
	}
	id := r.PathValue("id")
	v, err := s.cfg.Context.Subscription(id)
	if err != nil || !canManage(prin, v) {
		// Same 404-for-foreign rule as the read path.
		writeErr(w, http.StatusNotFound, "not_found", id)
		return
	}
	if err := s.cfg.Context.Unsubscribe(id); err != nil {
		// A durability failure answers 503, not 404: the broker rolled
		// the delete back, so the subscription is still live.
		writeMutationErr(w, http.StatusNotFound, "not_found", err)
		return
	}
	s.cfg.Webhooks.Remove(id)
	// Return the owner's slot (not the caller's — an operator may delete
	// another tenant's subscription).
	s.cfg.Admission.ReleaseSubscription(v.Owner)
	s.cfg.Metrics.Counter("httpapi.subscriptions.deleted").Inc()
	w.WriteHeader(http.StatusNoContent)
}
