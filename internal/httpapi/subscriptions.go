package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/tenant"
)

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
	out.Notification.HTTP.URL = v.URL
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
// subscribe through the webhook pool (it checks the URL and the quota),
// stamped with the caller's tenant for owner scoping.
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
	// The pool holds the owner's subscription slot for the subscription's
	// lifetime, not the request's, and undoes what it began on failure.
	id, err := s.cfg.Webhooks.Subscribe(s.cfg.Context, ngsi.Subscription{
		EntityIDPattern: pattern,
		EntityType:      ent.Type,
		ConditionAttrs:  body.Subject.Condition.Attrs,
		NotifyAttrs:     body.Notification.Attrs,
		Throttling:      time.Duration(body.Throttling * float64(time.Second)),
		URL:             body.Notification.HTTP.URL,
		Owner:           prin.Owner,
	})
	switch {
	case errors.Is(err, tenant.ErrSubscriptionQuota):
		s.cThrottled.Inc()
		w.Header().Set("Retry-After", "60")
		writeErr(w, http.StatusTooManyRequests, "too_many_requests", err.Error())
		return
	case errors.Is(err, ngsi.ErrWebhookURL):
		writeErr(w, http.StatusBadRequest, "invalid_notification", "notification.http.url must be an absolute http(s) URL")
		return
	case errors.Is(err, ngsi.ErrPoolClosed):
		writeErr(w, http.StatusInternalServerError, "subscription_failed", err.Error())
		return
	case err != nil:
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

// handleDeleteSubscription implements DELETE /v2/subscriptions/{id}
// through the webhook pool, which removes the broker entry before the
// lanes, so nothing is queued to a stopped lane.
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
	// The pool returns the owner's slot, not the caller's: an operator
	// may delete another tenant's subscription.
	if err := s.cfg.Webhooks.Unsubscribe(s.cfg.Context, id); err != nil {
		// A durability failure answers 503, not 404: the broker rolled
		// the delete back, so the subscription is still live.
		writeMutationErr(w, http.StatusNotFound, "not_found", err)
		return
	}
	s.cfg.Metrics.Counter("httpapi.subscriptions.deleted").Inc()
	w.WriteHeader(http.StatusNoContent)
}
