package ngsi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/shardhash"
	"github.com/swamp-project/swamp/internal/tenant"
)

// Webhook defaults.
const (
	// DefaultWebhookWorkers bounds concurrent outbound HTTP deliveries
	// across the whole pool.
	DefaultWebhookWorkers = 8
	// DefaultWebhookQueueLen is the per-subscription pending queue bound.
	DefaultWebhookQueueLen = 64
	// DefaultWebhookRetries is the number of redelivery attempts after a
	// failed POST.
	DefaultWebhookRetries = 2
	// DefaultWebhookBackoff is the first retry delay; it doubles per
	// attempt.
	DefaultWebhookBackoff = 250 * time.Millisecond
	// DefaultWebhookFailureThreshold is how many consecutive exhausted
	// deliveries flip a subscription to SubFailed.
	DefaultWebhookFailureThreshold = 3
	// DefaultWebhookTimeout bounds one POST when no Client is supplied.
	DefaultWebhookTimeout = 5 * time.Second

	// webhookLanes is the number of delivery goroutines per subscription; a
	// notification's lane is the hash of its entity id. Measured at 2 / 4 / 8
	// on bench's ingest_farm (notify_p50_us 1 193 / 913 / 913 µs) and
	// ingest_fleet (no difference): 4 is where it stops paying on two cores.
	webhookLanes = 4
	// webhookDrainLimit bounds how much of a response body a delivery reads
	// before closing it, so an endless body cannot pin the lane.
	webhookDrainLimit = 64 << 10
)

// WebhookConfig configures a WebhookPool.
type WebhookConfig struct {
	// Client performs the POSTs; nil uses a client with
	// DefaultWebhookTimeout that keeps one idle connection per worker.
	// Supply a short-timeout client in tests.
	Client *http.Client
	// Clock drives retry backoff; nil means the wall clock.
	Clock clock.Clock
	// Metrics receives the webhook counters; nil allocates a private
	// registry.
	Metrics *metrics.Registry
	// Workers bounds concurrent HTTP deliveries across all
	// subscriptions and all their lanes (default DefaultWebhookWorkers).
	Workers int
	// QueueLen bounds each subscription's pending notifications, summed
	// over its lanes (default DefaultWebhookQueueLen). Overflow drops the
	// newest notification for that subscription only.
	QueueLen int
	// MaxRetries is the number of redelivery attempts per notification
	// after the first failure (default DefaultWebhookRetries; negative
	// disables retries).
	MaxRetries int
	// RetryBackoff is the first retry delay, doubling per attempt
	// (default DefaultWebhookBackoff).
	RetryBackoff time.Duration
	// FailureThreshold is the consecutive-exhausted-delivery count that
	// flips a subscription to SubFailed (default
	// DefaultWebhookFailureThreshold).
	FailureThreshold int
	// OnStatus, if set, is invoked when a subscription's endpoint
	// crosses the failure threshold (healthy=false) or recovers
	// (healthy=true). Wire it to Broker.SetSubscriptionStatus.
	OnStatus func(subscriptionID string, healthy bool)
	// Admission is the shared per-tenant admission controller. nil (or
	// disabled) changes nothing; when set, owned notifiers cap their
	// queue at the tenant's webhook share and delay deliveries on the
	// ladder's Delay rung.
	Admission *tenant.Admission
}

// WebhookPool delivers NGSI notifications to subscription callback URLs.
// It is the PR 3 per-session-queue recipe applied to outbound HTTP: each
// subscription owns a bounded pending queue spread over a fixed number of
// entity-hashed lanes, one delivery goroutine per lane, so a stalled
// endpoint backs up (and overflows) only its own queue, while a shared
// semaphore bounds total concurrent HTTP requests.
type WebhookPool struct {
	cfg WebhookConfig
	// ownTransport is the default client's; nil with a supplied Client.
	ownTransport *http.Transport
	// sem is the delivery-concurrency semaphore, cfg.Workers slots.
	sem chan struct{}

	mu        sync.Mutex
	notifiers map[string]*HTTPNotifier
	closed    bool
	wg        sync.WaitGroup

	depth                              *metrics.Gauge
	cSent, cFailed, cRetries, cDropped *metrics.Counter
}

// NewWebhookPool builds a pool; Close releases the delivery goroutines.
func NewWebhookPool(cfg WebhookConfig) *WebhookPool {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWebhookWorkers
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultWebhookQueueLen
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultWebhookRetries
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultWebhookBackoff
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = DefaultWebhookFailureThreshold
	}
	var own *http.Transport
	if cfg.Client == nil {
		// http.DefaultTransport keeps two idle connections per host: lanes
		// POSTing side by side would reopen the rest on every delivery.
		own = http.DefaultTransport.(*http.Transport).Clone()
		own.MaxIdleConnsPerHost = cfg.Workers
		cfg.Client = &http.Client{Timeout: DefaultWebhookTimeout, Transport: own}
	}
	p := &WebhookPool{
		cfg:          cfg,
		ownTransport: own,
		sem:          make(chan struct{}, cfg.Workers),
		notifiers:    make(map[string]*HTTPNotifier),
		depth:        cfg.Metrics.Gauge("ngsi.webhook.depth"),
		cSent:        cfg.Metrics.Counter("ngsi.webhook.sent"),
		cFailed:      cfg.Metrics.Counter("ngsi.webhook.failed"),
		cRetries:     cfg.Metrics.Counter("ngsi.webhook.retries"),
		cDropped:     cfg.Metrics.Counter("ngsi.webhook.dropped"),
	}
	return p
}

// ErrPoolClosed is returned by Notifier on a closed pool.
var ErrPoolClosed = errors.New("ngsi: webhook pool closed")

// StatusUpdater returns the standard WebhookConfig.OnStatus wiring: flip
// the broker subscription between SubActive and SubFailed as its
// endpoint recovers or crosses the failure threshold.
func StatusUpdater(b *Broker) func(subscriptionID string, healthy bool) {
	return func(id string, healthy bool) {
		st := SubFailed
		if healthy {
			st = SubActive
		}
		_ = b.SetSubscriptionStatus(id, st)
	}
}

// Notifier registers the delivery lanes for one subscription and returns
// its Notifier. The subscription id keys them: Remove stops them.
func (p *WebhookPool) Notifier(subscriptionID, url string) (*HTTPNotifier, error) {
	if subscriptionID == "" || url == "" {
		return nil, fmt.Errorf("ngsi: webhook notifier needs subscription id and url")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if _, dup := p.notifiers[subscriptionID]; dup {
		return nil, fmt.Errorf("ngsi: duplicate webhook notifier for subscription %q", subscriptionID)
	}
	n := &HTTPNotifier{
		pool:  p,
		subID: subscriptionID,
		url:   url,
		stop:  make(chan struct{}),
	}
	p.notifiers[subscriptionID] = n
	for i := range n.lanes {
		lane := make(chan Notification, p.cfg.QueueLen) // each can hold the whole bound
		n.lanes[i] = lane
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			n.run(lane)
		}()
	}
	return n, nil
}

// URL returns the callback URL registered for a subscription.
func (p *WebhookPool) URL(subscriptionID string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.notifiers[subscriptionID]
	if !ok {
		return "", false
	}
	return n.url, true
}

// Remove stops and forgets the subscription's delivery lanes; pending
// notifications are discarded.
func (p *WebhookPool) Remove(subscriptionID string) {
	p.mu.Lock()
	n := p.notifiers[subscriptionID]
	delete(p.notifiers, subscriptionID)
	p.mu.Unlock()
	if n != nil {
		n.shutdown()
	}
}

// Close stops every delivery worker and waits for them to exit.
func (p *WebhookPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	notifiers := p.notifiers
	p.notifiers = make(map[string]*HTTPNotifier)
	p.mu.Unlock()
	for _, n := range notifiers {
		n.shutdown()
	}
	p.wg.Wait()
	if p.ownTransport != nil {
		p.ownTransport.CloseIdleConnections()
	}
}

// Drain blocks until every subscription queue is empty or the timeout
// elapses, and returns the remaining depth. Use it before Close during
// shutdown so queued notifications are delivered rather than discarded —
// a stalled endpoint bounds the wait at the timeout instead of wedging
// shutdown.
func (p *WebhookPool) Drain(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		d := p.Depth()
		if d == 0 || time.Now().After(deadline) {
			return d
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Depth returns the total number of pending notifications across all
// subscription queues.
func (p *WebhookPool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := 0
	for _, n := range p.notifiers {
		d += int(n.pending.Load())
	}
	return d
}

// HTTPNotifier implements Notifier by POSTing NGSI notification payloads
// to one subscription's callback URL. Notify never blocks: it enqueues
// onto its entity's lane and drops (counted) once the subscription holds its
// bound, so a stalled endpoint cannot back-pressure the broker's dispatchers.
type HTTPNotifier struct {
	pool  *WebhookPool
	subID string
	url   string
	lanes [webhookLanes]chan Notification
	// pending is the subscription-wide depth: queued on any lane, not taken.
	pending atomic.Int64
	stop    chan struct{}

	// owner is the subscription's tenant, set once via SetOwner before
	// the subscription starts receiving traffic; tenant.None exempts the
	// notifier from per-tenant queue caps and delivery delays.
	owner tenant.ID

	closed   atomic.Bool
	stopOnce sync.Once

	// statMu orders the lanes' outcomes: consecFail and failed advance in
	// completion order, and OnStatus runs under it so flips arrive in order.
	statMu     sync.Mutex
	consecFail int
	failed     bool
}

// Endpoint implements Endpointer: it returns the callback URL, marking
// webhook subscriptions as durable for the journal.
func (n *HTTPNotifier) Endpoint() string { return n.url }

// SetOwner binds the notifier to its subscription's tenant for webhook
// quota accounting. Call it after Notifier and before the subscription is
// registered with the broker (registration is the synchronization point —
// no notification can race a SetOwner that precedes it).
func (n *HTTPNotifier) SetOwner(id tenant.ID) { n.owner = id }

// Notify implements Notifier.
func (n *HTTPNotifier) Notify(note Notification) {
	if n.closed.Load() {
		n.pool.cDropped.Inc()
		return
	}
	// The bound is subscription-wide: no lane drops below it. The tenant's
	// webhook share lowers it for an owned subscription: an over-subscribed
	// tenant's backlog saturates at its share, others keep their full queue.
	bound := n.pool.cfg.QueueLen
	if adm := n.pool.cfg.Admission; adm.Enabled() && !n.owner.IsNone() {
		bound = adm.WebhookQueueCap(n.owner, bound)
	}
	if n.pending.Add(1) > int64(bound) {
		n.pending.Add(-1)
		n.pool.cDropped.Inc()
		return
	}
	lane := n.lanes[shardhash.Index(webhookLanes, note.Entity.ID)]
	lane <- note // cannot block: len(lane) ≤ pending ≤ QueueLen = cap(lane)
	n.pool.depth.Add(1)
	n.pool.cfg.Admission.AddQueueDepth(n.owner, 1)
	// Re-check after the enqueue: if shutdown ran (and drained)
	// concurrently, nobody will ever service the lane again, so drain one
	// item ourselves to keep the depth gauge truthful.
	if n.closed.Load() {
		select {
		case <-lane:
			n.dequeued()
			n.pool.cDropped.Inc()
		default:
		}
	}
}

// dequeued accounts for one notification taken off a lane.
func (n *HTTPNotifier) dequeued() {
	n.pending.Add(-1)
	n.pool.depth.Add(-1)
	n.pool.cfg.Admission.AddQueueDepth(n.owner, -1)
}

func (n *HTTPNotifier) shutdown() {
	n.stopOnce.Do(func() {
		n.closed.Store(true)
		close(n.stop)
	})
}

// run is one lane's delivery goroutine.
func (n *HTTPNotifier) run(lane chan Notification) {
	for {
		select {
		case <-n.stop:
			// Discard whatever is still pending so the depth gauge
			// stays truthful.
			for {
				select {
				case <-lane:
					n.dequeued()
					n.pool.cDropped.Inc()
				default:
					return
				}
			}
		case note := <-lane:
			n.dequeued()
			n.deliver(note)
		}
	}
}

// appendNotificationJSON appends the NGSI-v2 notification wire format:
// {"subscriptionId": id, "data": [entity]}.
func appendNotificationJSON(dst []byte, subscriptionID string, e *Entity) ([]byte, error) {
	dst = append(dst, `{"subscriptionId":`...)
	dst = appendJSONString(dst, subscriptionID)
	dst = append(dst, `,"data":[`...)
	dst, err := e.AppendJSON(dst)
	return append(dst, "]}"...), err
}

// deliver POSTs one notification with per-delivery retry/backoff and
// subscription-wide consecutive-failure tracking. The lane only occupies a
// pool slot while the HTTP request is in flight — backoff sleeps release it.
func (n *HTTPNotifier) deliver(note Notification) {
	cfg := &n.pool.cfg
	// Delay rung of the tenant shed ladder: an indebted tenant's webhooks
	// are postponed, not dropped — the sleep happens on this notifier's
	// own lane, before a pool slot is held, so no other tenant waits.
	if d := cfg.Admission.WebhookDelay(n.owner); d > 0 {
		select {
		case <-n.stop:
			return
		case <-cfg.Clock.After(d):
		}
	}
	body, err := appendNotificationJSON(nil, n.subID, note.Entity)
	if err != nil {
		n.pool.cFailed.Inc()
		return
	}
	backoff := cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		err := n.post(body)
		if err == nil {
			n.pool.cSent.Inc()
			n.completed(true)
			return
		}
		if errors.Is(err, ErrPoolClosed) {
			return
		}
		if attempt >= cfg.MaxRetries {
			n.pool.cFailed.Inc()
			n.completed(false)
			return
		}
		n.pool.cRetries.Inc()
		select {
		case <-n.stop:
			return
		case <-cfg.Clock.After(backoff):
		}
		backoff *= 2
	}
}

// completed records one delivery's outcome — sent, or failed with its
// retries exhausted — and reports a status change of the subscription.
func (n *HTTPNotifier) completed(ok bool) {
	n.statMu.Lock()
	defer n.statMu.Unlock()
	var flipped bool
	if ok {
		n.consecFail = 0
		flipped = n.failed
	} else {
		n.consecFail++
		flipped = !n.failed && n.consecFail >= n.pool.cfg.FailureThreshold
	}
	if flipped {
		n.failed = !ok
		if onStatus := n.pool.cfg.OnStatus; onStatus != nil {
			onStatus(n.subID, ok)
		}
	}
}

// post performs one delivery attempt under the pool's concurrency bound.
func (n *HTTPNotifier) post(body []byte) error {
	select {
	case n.pool.sem <- struct{}{}:
	case <-n.stop:
		return ErrPoolClosed
	}
	defer func() { <-n.pool.sem }()
	resp, err := n.pool.cfg.Client.Post(n.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.CopyN(io.Discard, resp.Body, webhookDrainLimit)
	resp.Body.Close()
	if resp.StatusCode >= http.StatusMultipleChoices {
		return fmt.Errorf("ngsi: webhook %s: status %d", n.url, resp.StatusCode)
	}
	return nil
}
