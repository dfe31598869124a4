package ngsi

import (
	"bufio"
	"cmp"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/shardhash"
	"github.com/swamp-project/swamp/internal/tenant"
)

const (
	// DefaultWebhookTimeout bounds a lane's dial and each of its rounds.
	DefaultWebhookTimeout = 5 * time.Second

	// webhookWorkers bounds the connections in use — lanes delivering a
	// batch — across all subscriptions.
	webhookWorkers = 8
	// webhookQueueLen bounds each subscription's pending notifications,
	// summed over its lanes. Overflow drops the newest notification for
	// that subscription only.
	webhookQueueLen = 64
	// webhookRetries is the number of redelivery attempts per notification
	// after its first failed one.
	webhookRetries = 2
	// webhookBackoff is the first retry delay; it doubles per attempt.
	webhookBackoff = 250 * time.Millisecond
	// webhookFailureThreshold is how many consecutive exhausted deliveries
	// flip a subscription to SubFailed.
	webhookFailureThreshold = 3

	// webhookLanes is the number of delivery goroutines per subscription; a
	// notification's lane is the hash of its entity id. Measured at 2 / 4 / 8
	// on bench's ingest_farm (notify_p50_us 1 193 / 913 / 913 µs) and
	// ingest_fleet (no difference): 4 is where it stops paying on two cores.
	webhookLanes = 4
	// webhookDrainLimit bounds the response body a lane reads before it drops
	// the connection, so an endless body cannot pin the lane.
	webhookDrainLimit = 64 << 10
)

// WebhookConfig configures a WebhookPool.
type WebhookConfig struct {
	// Timeout bounds each dial and each round — a batch's write and its
	// answers (default DefaultWebhookTimeout). Supply a short one in tests.
	Timeout time.Duration
	// Clock drives retry backoff; nil means the wall clock.
	Clock clock.Clock
	// Metrics receives the webhook counters; nil allocates a private
	// registry.
	Metrics *metrics.Registry
	// OnStatus, if set, is invoked when a subscription's endpoint
	// crosses the failure threshold (healthy=false) or recovers
	// (healthy=true). Wire it to Broker.SetSubscriptionStatus.
	OnStatus func(subscriptionID string, healthy bool)
	// Admission is the shared per-tenant admission controller. Subscribe,
	// Restore and Unsubscribe hold each owned subscription's slot in it.
	// While it is enabled, owned subscriptions' lanes cap their queue at
	// the tenant's webhook share; deliveries are never paced, since what
	// they carry was admitted at its door. nil changes nothing.
	Admission *tenant.Admission
}

// WebhookPool delivers NGSI notifications to subscription callback URLs.
// Each subscription owns a bounded pending queue spread over a fixed number
// of entity-hashed lanes, with one goroutine and one keep-alive connection
// per lane, so a stalled endpoint backs up (and overflows) only its own
// queue, while a shared semaphore bounds the connections in use.
type WebhookPool struct {
	cfg WebhookConfig
	// sem is the delivery-concurrency semaphore, webhookWorkers slots.
	sem chan struct{}

	mu        sync.Mutex
	notifiers map[string]*httpNotifier
	closed    bool
	wg        sync.WaitGroup

	depth                                               *metrics.Gauge
	cSent, cFailed, cRetries, cDropped, cWrites, cDials *metrics.Counter
}

// NewWebhookPool builds a pool; Close releases the delivery goroutines.
func NewWebhookPool(cfg WebhookConfig) *WebhookPool {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultWebhookTimeout
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &WebhookPool{
		cfg:       cfg,
		sem:       make(chan struct{}, webhookWorkers),
		notifiers: make(map[string]*httpNotifier),
		depth:     cfg.Metrics.Gauge("ngsi.webhook.depth"),
		cSent:     cfg.Metrics.Counter("ngsi.webhook.sent"),
		cFailed:   cfg.Metrics.Counter("ngsi.webhook.failed"),
		cRetries:  cfg.Metrics.Counter("ngsi.webhook.retries"),
		cDropped:  cfg.Metrics.Counter("ngsi.webhook.dropped"),
		cWrites:   cfg.Metrics.Counter("ngsi.webhook.writes"),
		cDials:    cfg.Metrics.Counter("ngsi.webhook.dials"),
	}
}

// ErrPoolClosed is returned by Subscribe and Restore on a closed pool.
var ErrPoolClosed = errors.New("ngsi: webhook pool closed")

// ErrWebhookURL is returned by Subscribe and Restore for a URL that is not
// absolute http(s).
var ErrWebhookURL = errors.New("ngsi: notification URL must be an absolute http(s) URL")

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

// webhookTarget is what a lane needs of a callback URL.
type webhookTarget struct {
	addr string // host:port to dial
	dial func(network, addr string) (net.Conn, error)
	// head starts every request: the request line, Host, Authorization
	// (from the URL's userinfo), Content-Type and the Content-Length name.
	head string
}

// parseWebhookURL is the lanes' URL check, an absolute http(s) URL; timeout bounds the dial.
func parseWebhookURL(raw string, timeout time.Duration) (webhookTarget, error) {
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return webhookTarget{}, ErrWebhookURL
	}
	target := strings.ReplaceAll(u.RequestURI(), " ", "%20") // url.Parse leaves a query's spaces raw
	d := &net.Dialer{Timeout: timeout}
	t, port := webhookTarget{dial: d.Dial}, "80"
	if u.Scheme == "https" {
		t.dial, port = (&tls.Dialer{NetDialer: d}).Dial, "443" // verified against the system roots
	}
	t.addr = net.JoinHostPort(u.Hostname(), cmp.Or(u.Port(), port))
	t.head = "POST " + target + " HTTP/1.1\r\nHost: " + u.Host + "\r\n"
	if u.User != nil {
		pass, _ := u.User.Password()
		t.head += "Authorization: Basic " + base64.StdEncoding.EncodeToString([]byte(u.User.Username()+":"+pass)) + "\r\n"
	}
	t.head += "Content-Type: application/json\r\nContent-Length: "
	return t, nil
}

// appendWebhookRequest appends one POST of body, behind a target's head.
func appendWebhookRequest(dst []byte, head string, body []byte) []byte {
	dst = append(dst, head...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// Subscribe registers a webhook subscription: it claims the owner's
// subscription slot, takes an id from the broker if sub has none, starts
// the delivery lanes to sub.URL, owned by sub.Owner, and registers the
// subscription with b, so its lanes exist before b can queue to them. A
// failure undoes the earlier steps: it wraps tenant.ErrSubscriptionQuota,
// ErrWebhookURL, ErrPoolClosed or the broker's error.
func (p *WebhookPool) Subscribe(b *Broker, sub Subscription) (string, error) {
	if err := p.cfg.Admission.ReserveSubscription(sub.Owner); err != nil {
		return "", err
	}
	if sub.ID == "" {
		b.subMu.Lock()
		sub.ID = b.nextSubIDLocked()
		b.subMu.Unlock()
	}
	id, err := p.register(b, sub)
	if err != nil {
		p.cfg.Admission.ReleaseSubscription(sub.Owner)
	}
	return id, err
}

// Restore re-registers a recovered webhook subscription — the WAL replay
// path. One with the same id is replaced, so a subscription in both the
// snapshot and the tail holds one slot; the owner's slot is restored
// without enforcing the quota, which was enforced at create time.
func (p *WebhookPool) Restore(b *Broker, sub Subscription) error {
	if err := p.Unsubscribe(b, sub.ID); err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	if _, err := p.register(b, sub); err != nil {
		return err
	}
	p.cfg.Admission.RestoreSubscription(sub.Owner)
	return nil
}

// Unsubscribe removes a subscription: the broker entry first, so nothing
// more is queued to its lanes, then the lanes, then the owner's slot.
func (p *WebhookPool) Unsubscribe(b *Broker, id string) error {
	sub, err := b.unsubscribe(id)
	if err != nil {
		return err
	}
	p.remove(id)
	p.cfg.Admission.ReleaseSubscription(sub.Owner)
	return nil
}

// register starts sub's lanes and registers it with b; if b refuses it,
// the lanes stop.
func (p *WebhookPool) register(b *Broker, sub Subscription) (string, error) {
	n, err := p.notifier(sub.ID, sub.URL, sub.Owner)
	if err != nil {
		return "", err
	}
	sub.Notifier = n
	id, err := b.Subscribe(sub)
	if err != nil {
		p.remove(sub.ID)
	}
	return id, err
}

// notifier starts the delivery lanes for one subscription, owned by
// owner, and returns its notifier. The subscription id keys them: remove
// stops them.
func (p *WebhookPool) notifier(subscriptionID, rawURL string, owner tenant.ID) (*httpNotifier, error) {
	if subscriptionID == "" {
		return nil, fmt.Errorf("ngsi: webhook notifier needs a subscription id")
	}
	target, err := parseWebhookURL(rawURL, p.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if _, dup := p.notifiers[subscriptionID]; dup {
		return nil, fmt.Errorf("ngsi: duplicate webhook notifier for subscription %q", subscriptionID)
	}
	n := &httpNotifier{
		pool:   p,
		subID:  subscriptionID,
		target: target,
		owner:  owner,
		stop:   make(chan struct{}),
	}
	p.notifiers[subscriptionID] = n
	for i := range n.lanes {
		l := &n.lanes[i]
		l.queue = make(chan Notification, webhookQueueLen) // each can hold the whole bound
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			n.run(l)
		}()
	}
	return n, nil
}

// remove stops and forgets the subscription's delivery lanes; pending
// notifications are discarded and the lanes' connections closed.
func (p *WebhookPool) remove(subscriptionID string) {
	p.mu.Lock()
	n := p.notifiers[subscriptionID]
	delete(p.notifiers, subscriptionID)
	p.mu.Unlock()
	if n != nil {
		n.shutdown()
	}
}

// Close stops every delivery lane, and its connection, and waits for them.
func (p *WebhookPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	notifiers := p.notifiers
	p.notifiers = make(map[string]*httpNotifier)
	p.mu.Unlock()
	for _, n := range notifiers {
		n.shutdown()
	}
	p.wg.Wait()
}

// Drain blocks until every notification the pool holds has had its first
// attempt, or the timeout elapses, and returns the remaining depth. Use it
// before Close, which lets a round on the wire finish but drops what is
// unsent; a stalled endpoint bounds the wait at the timeout.
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

// httpNotifier implements Notifier by POSTing NGSI notification payloads
// to one subscription's callback URL. Notify never blocks: it enqueues
// onto its entity's lane and drops (counted) once the subscription holds its
// bound, so a stalled endpoint cannot back-pressure the broker's dispatchers.
type httpNotifier struct {
	pool   *WebhookPool
	subID  string
	target webhookTarget
	lanes  [webhookLanes]lane
	// pending is the depth: what the lanes hold and have not yet attempted.
	pending atomic.Int64
	stop    chan struct{}

	// owner is the subscription's tenant; tenant.None exempts the
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

// lane is one delivery goroutine's state; Notify only sends on queue.
type lane struct {
	queue chan Notification
	// head, if set, starts the next batch: it cut the last, which had its entity.
	head Notification
	// conn survived its last round only if that answered HTTP/1.1 keep-alive.
	conn net.Conn
	br   *bufio.Reader
	// items is what the batch has still to deliver, in order, each request a
	// slice of reqs; body and out are scratch.
	items           []laneItem
	unsent          int // the last unsent items, never attempted, are in pending
	reqs, body, out []byte
}

// laneItem is one notification of a lane's batch.
type laneItem struct {
	id    string // entity id
	req   []byte
	fails int // failed attempts so far
}

// Notify implements Notifier.
func (n *httpNotifier) Notify(note Notification) {
	if n.closed.Load() {
		n.pool.cDropped.Inc()
		return
	}
	// The bound is subscription-wide: no lane drops below it. The tenant's
	// webhook share lowers it for an owned subscription: an over-subscribed
	// tenant's backlog saturates at its share, others keep their full queue.
	bound := webhookQueueLen
	if adm := n.pool.cfg.Admission; adm.Enabled() && !n.owner.IsNone() {
		bound = adm.WebhookQueueCap(n.owner, bound)
	}
	if n.pending.Add(1) > int64(bound) {
		n.pending.Add(-1)
		n.pool.cDropped.Inc()
		return
	}
	queue := n.lanes[shardhash.Index(webhookLanes, note.Entity.ID)].queue
	queue <- note // cannot block: len(queue) ≤ pending ≤ webhookQueueLen = cap(queue)
	n.pool.depth.Add(1)
	n.pool.cfg.Admission.AddQueueDepth(n.owner, 1)
	// Re-check after the enqueue: if shutdown ran (and drained)
	// concurrently, nobody will ever service the lane again, so drain it
	// ourselves to keep the depth gauge truthful.
	if n.closed.Load() {
		n.dropQueued(queue)
	}
}

// dropQueued drops, counted, what is queued on a lane.
func (n *httpNotifier) dropQueued(queue chan Notification) {
	for {
		select {
		case <-queue:
			n.pool.cDropped.Inc()
			n.release(1)
		default:
			return
		}
	}
}

// release takes k notifications out of the subscription's bound: each has
// had its first attempt, or was dropped or failed before one.
func (n *httpNotifier) release(k int) {
	n.pending.Add(int64(-k))
	n.pool.depth.Add(float64(-k))
	n.pool.cfg.Admission.AddQueueDepth(n.owner, int64(-k))
}

func (n *httpNotifier) shutdown() {
	n.stopOnce.Do(func() {
		n.closed.Store(true)
		close(n.stop)
	})
}

// run is one lane's delivery goroutine, one batch per wake-up. Once the
// notifier stops, it closes the lane's connection and drops, counted, all
// the lane holds: its batch, the next batch's head and its queue.
func (n *httpNotifier) run(l *lane) {
	for n.deliver(l) {
	}
	if l.conn != nil {
		l.conn.Close()
	}
	n.pool.cDropped.Add(uint64(len(l.items)))
	n.release(l.unsent)
	if l.head.Entity != nil {
		n.pool.cDropped.Inc()
		n.release(1)
	}
	n.dropQueued(l.queue)
}

// appendNotificationJSON appends the NGSI-v2 notification wire format:
// {"subscriptionId": id, "data": [entity]}.
func appendNotificationJSON(dst []byte, subscriptionID string, e *Entity) ([]byte, error) {
	dst = append(dst, `{"subscriptionId":`...)
	dst = AppendJSONString(dst, subscriptionID)
	dst = append(dst, `,"data":[`...)
	dst, err := e.AppendJSON(dst)
	return append(dst, "]}"...), err
}

// deliver takes one batch — l.head or the next queued notification, plus
// what is queued behind it, cut at the first entity the batch carries — and
// delivers it with per-notification retry/backoff; false once the notifier
// stops. The lane holds a pool slot only while a round is on the wire.
func (n *httpNotifier) deliver(l *lane) bool {
	if l.head.Entity == nil {
		select {
		case <-n.stop:
			return false
		case l.head = <-l.queue:
		}
	}
	l.items, l.reqs = l.items[:0], l.reqs[:0]
	n.add(l, l.head)
	l.head = Notification{}
	// The batch takes what is queued, up to a quarter of the bound, so the
	// lanes put at most one bound's worth on the wire.
	for more := true; more && len(l.items) < webhookQueueLen/webhookLanes; {
		select {
		case note := <-l.queue:
			same := func(it laneItem) bool { return it.id == note.Entity.ID }
			if more = !slices.ContainsFunc(l.items, same); more {
				n.add(l, note)
			} else {
				l.head = note
			}
		default:
			more = false
		}
	}
	for wait, backoff := time.Duration(0), webhookBackoff; len(l.items) > 0; {
		if wait > 0 {
			select {
			case <-n.stop:
				return false
			case <-n.pool.cfg.Clock.After(wait):
			}
		}
		select {
		case n.pool.sem <- struct{}{}:
		case <-n.stop:
			return false
		}
		failed := n.round(l)
		<-n.pool.sem
		if wait = 0; failed {
			wait, backoff = backoff, 2*backoff
		}
	}
	return true
}

// add encodes one notification's request onto the lane's batch. One whose
// entity has no JSON body counts failed and is not sent.
func (n *httpNotifier) add(l *lane, note Notification) {
	var err error
	if l.body, err = appendNotificationJSON(l.body[:0], n.subID, note.Entity); err != nil {
		n.pool.cFailed.Inc()
		n.release(1)
		return
	}
	start := len(l.reqs)
	l.reqs = appendWebhookRequest(l.reqs, n.target.head, l.body)
	l.items = append(l.items, laneItem{id: note.Entity.ID, req: l.reqs[start:]})
	l.unsent++
}

// round writes the batch in one write — only its first request on a fresh
// connection — and reads the answers in order, all within one Timeout. What
// must go again stays in l.items, in order; failed: some of it failed an
// attempt, earning a backoff.
func (n *httpNotifier) round(l *lane) (failed bool) {
	p := n.pool
	reused, sent := l.conn != nil, len(l.items)
	var err error
	if !reused {
		sent = 1
		p.cDials.Inc()
		if l.conn, err = n.target.dial("tcp", n.target.addr); err == nil {
			l.br = bufio.NewReader(l.conn)
		}
	}
	fresh := max(0, sent-(len(l.items)-l.unsent)) // first attempts leave the bound
	n.release(fresh)
	l.unsent -= fresh
	if err == nil {
		l.out = l.out[:0]
		for _, it := range l.items[:sent] {
			l.out = append(l.out, it.req...)
		}
		l.conn.SetDeadline(time.Now().Add(p.cfg.Timeout))
		_, err = l.conn.Write(l.out)
		p.cWrites.Inc()
	}
	kept := 0 // l.items[:kept] go again
	again := func(it laneItem, attempt bool) {
		if attempt {
			if it.fails++; it.fails > webhookRetries {
				p.cFailed.Inc()
				n.completed(false)
				return
			}
			p.cRetries.Inc()
			failed = true
		}
		l.items[kept] = it
		kept++
	}
	answered, keepAlive := 0, true
	for ; err == nil && keepAlive && answered < sent; answered++ {
		resp, rerr := http.ReadResponse(l.br, nil)
		for rerr == nil && resp.StatusCode < http.StatusOK { // interim 1xx
			resp, rerr = http.ReadResponse(l.br, nil)
		}
		if err = rerr; err != nil {
			break
		}
		if _, err = io.CopyN(io.Discard, resp.Body, webhookDrainLimit+1); err == io.EOF {
			err, keepAlive = nil, resp.ProtoAtLeast(1, 1) && !resp.Close
		} else if err == nil {
			err = errors.New("ngsi: webhook answer body exceeds the drain limit")
		}
		if resp.StatusCode/100 == 2 {
			p.cSent.Inc()
			n.completed(true)
		} else {
			again(l.items[answered], true)
		}
	}
	// What was sent and not answered goes again: a failed attempt, unless the
	// endpoint cannot have read it — it closed the connection after an answer,
	// or a kept-alive one broke before its first answer, closed while idle.
	counted := err != nil && (!reused || answered > 0 || errors.Is(err, os.ErrDeadlineExceeded))
	for i := answered; i < len(l.items); i++ {
		again(l.items[i], counted && i < sent)
	}
	l.items = l.items[:kept]
	if l.conn != nil && (err != nil || !keepAlive) {
		l.conn.Close()
		l.conn = nil // the next round dials afresh
	}
	return failed
}

// completed records one delivery's outcome — sent, or failed with its
// retries exhausted — and reports a status change of the subscription.
func (n *httpNotifier) completed(ok bool) {
	n.statMu.Lock()
	defer n.statMu.Unlock()
	var flipped bool
	if ok {
		n.consecFail = 0
		flipped = n.failed
	} else {
		n.consecFail++
		flipped = !n.failed && n.consecFail >= webhookFailureThreshold
	}
	if flipped {
		n.failed = !ok
		if onStatus := n.pool.cfg.OnStatus; onStatus != nil {
			onStatus(n.subID, ok)
		}
	}
}
