package ngsi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/tenant"
)

// notificationBody is the NGSI-v2 notification wire format as a receiver
// decodes it — and, marshalled, the reference appendNotificationJSON is
// compared against.
type notificationBody struct {
	SubscriptionID string    `json:"subscriptionId"`
	Data           []*Entity `json:"data"`
}

// webhookReceiver is a test endpoint that records the notifications it
// receives.
type webhookReceiver struct {
	srv *httptest.Server

	mu    sync.Mutex
	notes []notificationBody
}

func newWebhookReceiver(t *testing.T) *webhookReceiver {
	t.Helper()
	r := &webhookReceiver{}
	r.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var body notificationBody
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		r.mu.Lock()
		r.notes = append(r.notes, body)
		r.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(r.srv.Close)
	return r
}

func (r *webhookReceiver) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.notes)
}

func (r *webhookReceiver) last() notificationBody {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notes[len(r.notes)-1]
}

// newStalledServer returns an endpoint that sleeps past the client
// timeout, simulating a wedged consumer.
func newStalledServer(t *testing.T, d time.Duration) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(d)
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func fastWebhookPool(t *testing.T, b *Broker, extra WebhookConfig) *WebhookPool {
	t.Helper()
	cfg := extra
	cfg.Timeout = 100 * time.Millisecond
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	if cfg.OnStatus == nil && b != nil {
		cfg.OnStatus = StatusUpdater(b)
	}
	p := NewWebhookPool(cfg)
	t.Cleanup(p.Close)
	return p
}

// TestWebhookDelivery: an entity update flows broker → webhook lanes →
// endpoint as an NGSI notification payload.
func TestWebhookDelivery(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	recv := newWebhookReceiver(t)
	pool := fastWebhookPool(t, b, WebhookConfig{})

	if _, err := pool.Subscribe(b, Subscription{
		ID: "sub-wh", EntityIDPattern: "urn:wh:*", URL: recv.srv.URL, Owner: "farm1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateAttrs("urn:wh:1", "SoilProbe", map[string]Attribute{"soilMoisture": num(0.21)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return recv.count() == 1 })
	note := recv.last()
	if note.SubscriptionID != "sub-wh" || len(note.Data) != 1 || note.Data[0].ID != "urn:wh:1" {
		t.Errorf("payload = %+v", note)
	}
	if v, ok := note.Data[0].Attrs["soilMoisture"].Float(); !ok || v != 0.21 {
		t.Errorf("attr = %v", note.Data[0].Attrs["soilMoisture"].Value)
	}
	// The worker increments the counter only after reading the response,
	// which races the receiver-side count above — wait, don't assert.
	waitFor(t, 2*time.Second, func() bool {
		return pool.cfg.Metrics.Counter("ngsi.webhook.sent").Value() == 1
	})
	if view, err := b.Subscription("sub-wh"); err != nil || view.Status != SubActive {
		t.Errorf("subscription view = %+v, %v", view, err)
	}
}

// TestWebhookStalledEndpointIsolation: a stalled endpoint exhausts its
// retries, flips its own subscription to failed, and never delays the
// healthy subscriber.
func TestWebhookStalledEndpointIsolation(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	recv := newWebhookReceiver(t)
	stalled := newStalledServer(t, time.Second)
	pool := fastWebhookPool(t, b, WebhookConfig{
		MaxRetries: 1, FailureThreshold: 2, Workers: 4,
	})

	for id, url := range map[string]string{"sub-ok": recv.srv.URL, "sub-bad": stalled.URL} {
		if _, err := pool.Subscribe(b, Subscription{ID: id, EntityIDPattern: "*", URL: url}); err != nil {
			t.Fatal(err)
		}
	}

	const updates = 5
	for i := 0; i < updates; i++ {
		if err := b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// The healthy subscriber receives everything promptly.
	waitFor(t, 2*time.Second, func() bool { return recv.count() == updates })

	// The stalled subscription accumulates failures and flips to failed.
	reg := pool.cfg.Metrics
	waitFor(t, 10*time.Second, func() bool {
		return reg.Counter("ngsi.webhook.failed").Value() >= 2
	})
	waitFor(t, 2*time.Second, func() bool {
		view, err := b.Subscription("sub-bad")
		return err == nil && view.Status == SubFailed
	})
	if view, _ := b.Subscription("sub-ok"); view.Status != SubActive {
		t.Errorf("healthy subscription status = %s", view.Status)
	}
	if reg.Counter("ngsi.webhook.retries").Value() == 0 {
		t.Error("retries not counted")
	}
	if reg.Counter("ngsi.webhook.sent").Value() < updates {
		t.Errorf("sent = %d, want >= %d", reg.Counter("ngsi.webhook.sent").Value(), updates)
	}
}

// TestWebhookRecoveryFlipsStatusBack: after an endpoint recovers, the
// next successful delivery returns the subscription to active.
func TestWebhookRecoveryFlipsStatusBack(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var failing atomic.Bool
	failing.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(srv.Close)
	pool := fastWebhookPool(t, b, WebhookConfig{MaxRetries: -1, FailureThreshold: 1})
	if _, err := pool.Subscribe(b, Subscription{ID: "sub-r", EntityIDPattern: "*", URL: srv.URL}); err != nil {
		t.Fatal(err)
	}
	b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(1)})
	waitFor(t, 2*time.Second, func() bool {
		view, _ := b.Subscription("sub-r")
		return view.Status == SubFailed
	})
	failing.Store(false)
	b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(2)})
	waitFor(t, 2*time.Second, func() bool {
		view, _ := b.Subscription("sub-r")
		return view.Status == SubActive
	})
}

// TestWebhookQueueOverflowDrops: a wedged endpoint overflows only its
// own bounded queue; the drop counter advances and Notify never blocks.
func TestWebhookQueueOverflowDrops(t *testing.T) {
	stalled := newStalledServer(t, time.Second)
	pool := fastWebhookPool(t, nil, WebhookConfig{QueueLen: 2, Workers: 1})
	hn, err := pool.notifier("sub-of", stalled.URL, tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		hn.Notify(Notification{SubscriptionID: "sub-of", Entity: &Entity{ID: "e", Type: "T"}})
	}
	if d := pool.cfg.Metrics.Counter("ngsi.webhook.dropped").Value(); d == 0 {
		t.Error("overflow not counted")
	}
}

// TestWebhookPoolLifecycle: duplicate registration is rejected, remove
// stops a worker, Close is idempotent.
func TestWebhookPoolLifecycle(t *testing.T) {
	recv := newWebhookReceiver(t)
	pool := fastWebhookPool(t, nil, WebhookConfig{})
	if _, err := pool.notifier("s1", recv.srv.URL, tenant.None); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.notifier("s1", recv.srv.URL, tenant.None); err == nil {
		t.Error("duplicate notifier accepted")
	}
	if _, err := pool.notifier("", recv.srv.URL, tenant.None); err == nil {
		t.Error("empty subscription id accepted")
	}
	pool.remove("s1")
	if _, err := pool.notifier("s1", recv.srv.URL, tenant.None); err != nil {
		t.Errorf("id not reusable after remove: %v", err)
	}
	pool.Close()
	pool.Close()
	if _, err := pool.notifier("s2", recv.srv.URL, tenant.None); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("closed pool: notifier error = %v, want ErrPoolClosed", err)
	}
}

// TestConcurrentSubscribeQueryWebhook drives Subscribe/Unsubscribe,
// filtered queries, entity updates and webhook delivery (one healthy,
// one stalled endpoint) concurrently — the -race coverage for the
// northbound plane.
func TestConcurrentSubscribeQueryWebhook(t *testing.T) {
	b := NewBroker(BrokerConfig{Shards: 4})
	defer b.Close()
	recv := newWebhookReceiver(t)
	stalled := newStalledServer(t, 50*time.Millisecond)
	pool := fastWebhookPool(t, b, WebhookConfig{MaxRetries: 0, FailureThreshold: 2, Workers: 4})

	for i, url := range []string{recv.srv.URL, stalled.URL} {
		id := fmt.Sprintf("sub-wh-%d", i)
		if _, err := pool.Subscribe(b, Subscription{ID: id, EntityIDPattern: "urn:c:*", URL: url}); err != nil {
			t.Fatal(err)
		}
	}

	conds, err := ParseQ("soilMoisture>=0;soilMoisture<1")
	if err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("urn:c:%d:%d", w, i%8)
				_ = b.UpdateAttrs(id, "SoilProbe", map[string]Attribute{
					"soilMoisture": num(float64(i%100) / 100),
				})
			}
		}(w)
	}
	// Queriers.
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.Query(Query{
					IDPattern: "urn:c:*", Conditions: conds,
					Attrs: []string{"soilMoisture"}, Limit: 10, Count: true,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Subscription churn.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 50; i++ {
			id, err := b.Subscribe(Subscription{
				EntityIDPattern: "urn:c:churn:*",
				Notifier:        Callback(func(Notification) {}),
			})
			if err != nil {
				t.Error(err)
				return
			}
			b.Subscriptions()
			if err := b.Unsubscribe(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Wait for writers + churn, then stop queriers.
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent workload wedged")
	}
	close(stop)
	readers.Wait()

	waitFor(t, 5*time.Second, func() bool { return recv.count() > 0 })
	if b.EntityCount() == 0 {
		t.Error("no entities written")
	}
}

// TestWebhookUnencodableNotificationCountsFailed: a notification whose
// entity holds NaN has no JSON body. The worker counts it failed and
// POSTs nothing, and the next (encodable) notification still goes out.
func TestWebhookUnencodableNotificationCountsFailed(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	recv := newWebhookReceiver(t)
	pool := fastWebhookPool(t, b, WebhookConfig{})
	if _, err := pool.Subscribe(b, Subscription{ID: "sub-nan", EntityIDPattern: "urn:wh:*", URL: recv.srv.URL}); err != nil {
		t.Fatal(err)
	}
	if err := b.UpsertEntity(&Entity{ID: "urn:wh:nan", Type: "SoilProbe", Attrs: map[string]Attribute{"soilMoisture": num(math.NaN())}}); err != nil {
		t.Fatal(err)
	}
	failed := pool.cfg.Metrics.Counter("ngsi.webhook.failed")
	waitFor(t, 2*time.Second, func() bool { return failed.Value() == 1 })
	if err := b.UpdateAttrs("urn:wh:ok", "SoilProbe", map[string]Attribute{"soilMoisture": num(0.21)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return recv.count() == 1 })
	if note := recv.last(); len(note.Data) != 1 || note.Data[0].ID != "urn:wh:ok" {
		t.Errorf("payload = %+v", note)
	}
	if got := failed.Value(); got != 1 {
		t.Errorf("ngsi.webhook.failed = %d, want 1", got)
	}
}
