package ngsi

import (
	"errors"
	"sync"
	"testing"

	"github.com/swamp-project/swamp/internal/tenant"
)

// recordingJournal records the subscription records a broker journals and
// fails puts with putErr.
type recordingJournal struct {
	stubJournal
	mu         sync.Mutex
	puts, dels []string
}

func (j *recordingJournal) SubscriptionPut(v SubscriptionView) JournalAck {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.puts = append(j.puts, v.ID)
	return stubAck{err: j.putErr}
}

func (j *recordingJournal) SubscriptionDeleted(id string) JournalAck {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dels = append(j.dels, id)
	return stubAck{}
}

func (j *recordingJournal) counts() (puts, dels int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.puts), len(j.dels)
}

// TestWebhookSubscriptionLifecycle: the pool's Subscribe, Restore and
// Unsubscribe keep the broker entry, the lanes and the owner's slot
// together — a failure at any step leaves none of them behind.
func TestWebhookSubscriptionLifecycle(t *testing.T) {
	const owner tenant.ID = "farm-a"
	const hook = "http://127.0.0.1:1/hook" // never dialled: nothing matches
	adm := tenant.NewAdmission(tenant.Config{
		Enabled: true,
		Limits:  tenant.Limits{Default: tenant.Quota{MsgsPerSec: 100, Subscriptions: 2}},
	})
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	j := &recordingJournal{}
	b.SetJournal(j)
	pool := fastWebhookPool(t, b, WebhookConfig{Admission: adm})
	slots := func() int64 {
		for _, st := range adm.Tenants() {
			if st.ID == owner {
				return st.Subscriptions
			}
		}
		return 0
	}
	lanes := func() int {
		pool.mu.Lock()
		defer pool.mu.Unlock()
		return len(pool.notifiers)
	}
	check := func(step string, subs, lanesWant int, slotsWant int64) {
		t.Helper()
		if got := b.SubscriptionCount(); got != subs {
			t.Errorf("%s: %d subscriptions, want %d", step, got, subs)
		}
		if got := lanes(); got != lanesWant {
			t.Errorf("%s: lanes for %d subscriptions, want %d", step, got, lanesWant)
		}
		if got := slots(); got != slotsWant {
			t.Errorf("%s: %d slots held, want %d", step, got, slotsWant)
		}
	}
	sub := func(id, url string) Subscription {
		return Subscription{ID: id, EntityIDPattern: "urn:none:*", Owner: owner, URL: url}
	}

	if _, err := pool.Subscribe(b, sub("", "ftp://x/h")); !errors.Is(err, ErrWebhookURL) {
		t.Fatalf("bad URL: %v, want ErrWebhookURL", err)
	}
	check("bad URL", 0, 0, 0)

	j.putErr = errors.New("disk full")
	if _, err := pool.Subscribe(b, sub("", hook)); !errors.Is(err, ErrDurability) {
		t.Fatalf("journal failure: %v, want ErrDurability", err)
	}
	check("journal failure", 0, 0, 0)
	j.putErr = nil

	id, err := pool.Subscribe(b, sub("", hook))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Subscribe(b, sub("", hook)); err != nil {
		t.Fatal(err)
	}
	check("two subscribed", 2, 2, 2)
	if _, err := pool.Subscribe(b, sub("", hook)); !errors.Is(err, tenant.ErrSubscriptionQuota) {
		t.Fatalf("third past quota 2: %v, want ErrSubscriptionQuota", err)
	}
	check("quota full", 2, 2, 2)

	// Replay puts a subscription from the snapshot and again from the tail.
	for i := 0; i < 2; i++ {
		if err := pool.Restore(b, sub("urn:swamp:subscription:000009", hook)); err != nil {
			t.Fatal(err)
		}
	}
	check("restored twice", 3, 3, 3)

	puts, dels := j.counts()
	if err := pool.Unsubscribe(b, id); err != nil {
		t.Fatal(err)
	}
	check("unsubscribed", 2, 2, 2)
	if p, d := j.counts(); p != puts || d != dels+1 || j.dels[len(j.dels)-1] != id {
		t.Errorf("Unsubscribe journaled %d puts and deletes %v, want one delete of %s", p-puts, j.dels[dels:], id)
	}
	if err := pool.Unsubscribe(b, id); !errors.Is(err, ErrNotFound) {
		t.Errorf("second Unsubscribe: %v, want ErrNotFound", err)
	}
	check("unsubscribed twice", 2, 2, 2)

	puts, _ = j.counts()
	if _, err := b.Subscribe(Subscription{EntityIDPattern: "*", Notifier: Callback(func(Notification) {})}); err != nil {
		t.Fatal(err)
	}
	if p, _ := j.counts(); p != puts {
		t.Errorf("an in-process subscription was journaled")
	}
}
