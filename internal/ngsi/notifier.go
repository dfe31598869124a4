package ngsi

import (
	"fmt"
	"sort"
	"time"

	"github.com/swamp-project/swamp/internal/tenant"
)

// Notifier delivers notifications for one subscription. Implementations
// are invoked from a shard's dispatch goroutine and must not block for
// long: an in-process consumer runs its callback inline, while a webhook
// subscription's lanes enqueue onto their own bounded queue and return
// immediately.
type Notifier interface {
	Notify(Notification)
}

// callbackNotifier adapts a plain function to the Notifier interface.
type callbackNotifier struct{ fn Handler }

func (c callbackNotifier) Notify(n Notification) { c.fn(n) }

// Callback adapts a plain handler function to the Notifier interface —
// the path every in-process subscriber (fog sync, cloud ingest, anomaly
// feed, tests) uses.
func Callback(fn Handler) Notifier { return callbackNotifier{fn: fn} }

// SubStatus is the delivery health of a subscription. In-process
// subscriptions stay active; webhook subscriptions flip to failed when
// their endpoint accumulates consecutive delivery failures, and back to
// active on the next success.
type SubStatus string

// Subscription statuses.
const (
	SubActive SubStatus = "active"
	SubFailed SubStatus = "failed"
)

// SubscriptionView is a read-only snapshot of one registered
// subscription — the shape the HTTP API surface renders.
type SubscriptionView struct {
	ID              string
	EntityIDPattern string
	EntityType      string
	ConditionAttrs  []string
	NotifyAttrs     []string
	Throttling      time.Duration
	Owner           tenant.ID
	// URL is a webhook subscription's callback URL; empty in-process.
	URL    string
	Status SubStatus
}

func (b *Broker) viewLocked(st *subState) SubscriptionView {
	s := st.sub
	return SubscriptionView{
		ID:              s.ID,
		EntityIDPattern: s.EntityIDPattern,
		EntityType:      s.EntityType,
		ConditionAttrs:  append([]string(nil), s.ConditionAttrs...),
		NotifyAttrs:     append([]string(nil), s.NotifyAttrs...),
		Throttling:      s.Throttling,
		Owner:           s.Owner,
		URL:             s.URL,
		Status:          st.status(),
	}
}

// Subscription returns a snapshot of the subscription with the given id.
func (b *Broker) Subscription(id string) (SubscriptionView, error) {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	st, ok := b.subs[id]
	if !ok {
		return SubscriptionView{}, fmt.Errorf("ngsi: subscription %q: %w", id, ErrNotFound)
	}
	return b.viewLocked(st), nil
}

// Subscriptions returns snapshots of every registered subscription,
// sorted by id.
func (b *Broker) Subscriptions() []SubscriptionView {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	out := make([]SubscriptionView, 0, len(b.subs))
	for _, st := range b.subs {
		out = append(out, b.viewLocked(st))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetSubscriptionStatus flips the delivery-health status of a
// subscription — the webhook pool calls this when an endpoint crosses its
// consecutive-failure threshold (→ SubFailed) or recovers (→ SubActive).
func (b *Broker) SetSubscriptionStatus(id string, status SubStatus) error {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	st, ok := b.subs[id]
	if !ok {
		return fmt.Errorf("ngsi: subscription %q: %w", id, ErrNotFound)
	}
	st.setStatus(status)
	return nil
}
