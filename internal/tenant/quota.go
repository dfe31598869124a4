package tenant

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Quota is one tenant's admission budget. Zero values are meaningful and
// asymmetric: MsgsPerSec 0 suspends the tenant outright (an operator kill
// switch), while 0 in any other dimension leaves that dimension
// unenforced. Defaults are applied by the caller (config layer), never
// implied here.
type Quota struct {
	// MsgsPerSec is the sustained message budget across both doors
	// (MQTT publishes, HTTP mutations/queries counted as one message
	// each). 0 suspends the tenant.
	MsgsPerSec int `json:"msgs_per_sec"`
	// BytesPerSec is the sustained payload-byte budget (0 = unenforced).
	BytesPerSec int64 `json:"bytes_per_sec"`
	// Inflight bounds concurrently admitted-but-unfinished HTTP requests
	// (0 = unenforced).
	Inflight int `json:"inflight"`
	// Subscriptions bounds the tenant's live NGSI subscriptions plus MQTT
	// topic filters (0 = unenforced).
	Subscriptions int `json:"subscriptions"`
	// WebhookSharePct is the tenant's share of the webhook delivery
	// queue, in percent of each subscription queue's bound
	// (0 or 100 = the full queue).
	WebhookSharePct int `json:"webhook_share_pct"`
}

// Validate checks the quota's internal consistency. Zero rates are legal
// (they express a suspended tenant); negatives and out-of-range shares
// are not.
func (q Quota) Validate() error {
	if q.MsgsPerSec < 0 {
		return fmt.Errorf("msgs_per_sec %d is negative", q.MsgsPerSec)
	}
	if q.BytesPerSec < 0 {
		return fmt.Errorf("bytes_per_sec %d is negative", q.BytesPerSec)
	}
	if q.Inflight < 0 {
		return fmt.Errorf("inflight %d is negative", q.Inflight)
	}
	if q.Subscriptions < 0 {
		return fmt.Errorf("subscriptions %d is negative", q.Subscriptions)
	}
	if q.WebhookSharePct < 0 || q.WebhookSharePct > 100 {
		return fmt.Errorf("webhook_share_pct %d is outside 0..100", q.WebhookSharePct)
	}
	return nil
}

// specKeys maps the [tenant.quotas] spec-string keys onto Quota fields.
// Kept in one place so ParseSpec and Spec can never drift.
var specKeys = []string{"msgs", "bytes", "inflight", "subs", "webhook_pct"}

// ParseSpec parses a compact per-tenant quota override as written in a
// [tenant.quotas] config entry: comma-separated key=value pairs, e.g.
//
//	"msgs=500,bytes=1048576,inflight=64,subs=32,webhook_pct=25"
//
// Keys absent from the spec inherit from base (the configured defaults),
// so an operator can override one dimension without restating the rest.
func ParseSpec(spec string, base Quota) (Quota, error) {
	q := base
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return q, fmt.Errorf("empty quota spec (expected key=value pairs: %s)", strings.Join(specKeys, ", "))
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return q, fmt.Errorf("quota spec %q: missing '=' in %q", spec, part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return q, fmt.Errorf("quota spec %q: %s: invalid integer %q", spec, key, val)
		}
		switch key {
		case "msgs":
			q.MsgsPerSec = int(n)
		case "bytes":
			q.BytesPerSec = n
		case "inflight":
			q.Inflight = int(n)
		case "subs":
			q.Subscriptions = int(n)
		case "webhook_pct":
			q.WebhookSharePct = int(n)
		default:
			return q, fmt.Errorf("quota spec %q: unknown key %q (expected one of %s)",
				spec, key, strings.Join(specKeys, ", "))
		}
	}
	if err := q.Validate(); err != nil {
		return q, fmt.Errorf("quota spec %q: %w", spec, err)
	}
	return q, nil
}

// Spec renders the quota as the compact spec string ParseSpec accepts —
// the round-trip format the admin API writes back into [tenant.quotas].
func (q Quota) Spec() string {
	return fmt.Sprintf("msgs=%d,bytes=%d,inflight=%d,subs=%d,webhook_pct=%d",
		q.MsgsPerSec, q.BytesPerSec, q.Inflight, q.Subscriptions, q.WebhookSharePct)
}

// Limits is a full quota table: the default applied to unlisted tenants
// plus per-tenant overrides. Values are immutable once installed in an
// Admission controller (swap a new Limits to change them).
type Limits struct {
	// Default applies to any tenant without an override.
	Default Quota
	// Overrides maps tenant → explicit quota.
	Overrides map[ID]Quota
}

// For returns the quota governing the given tenant.
func (l Limits) For(id ID) Quota {
	if q, ok := l.Overrides[id]; ok {
		return q
	}
	return l.Default
}

// TenantIDs returns the override'd tenant ids, sorted — the stable
// iteration order the admin API and metrics export use.
func (l Limits) TenantIDs() []ID {
	ids := make([]ID, 0, len(l.Overrides))
	for id := range l.Overrides {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// clone returns a deep copy so an installed Limits can never alias a
// caller's map.
func (l Limits) clone() Limits {
	out := Limits{Default: l.Default}
	if l.Overrides != nil {
		out.Overrides = make(map[ID]Quota, len(l.Overrides))
		for id, q := range l.Overrides {
			out.Overrides[id] = q
		}
	}
	return out
}
