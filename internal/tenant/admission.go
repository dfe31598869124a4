package tenant

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
)

// The shed ladder, in seconds of accumulated quota debt (DESIGN.md
// §11.2): debt is the tenant's overdraft. A tenant within budget pays
// nothing; a tenant in debt is paced, then refused.
const (
	// delayDebtSec is the pacing window: up to this much debt a message
	// is charged and admitted, and its ingress waits until the bucket is
	// back at zero (never longer than this); past it ingress is refused
	// (HTTP 429 + Retry-After, MQTT withheld PUBACK), uncharged.
	delayDebtSec = 1.0
	// rejectCapSec caps accumulated debt, bounding the post-abuse
	// recovery time.
	rejectCapSec = 3.0
)

// Ledger bounds: per-tenant states are created on first sight, so an
// unbounded ID source (a misconfigured fleet, a harness minting tenants)
// would otherwise grow the tenants map — and every /admin/tenants and
// Export snapshot — without limit.
const (
	// idleEvictAfter is how long a tenant must go without charging its
	// buckets (while holding no inflight requests, subscription slots or
	// queued webhooks) before its state is reclaimable. Long enough that
	// any capped debt (≤ rejectCapSec) has refilled, so eviction and
	// recreation both land on the same full-burst ledger.
	idleEvictAfter = 10 * time.Minute
	// idleSweepInterval paces the opportunistic idle sweep that runs as
	// new states are created.
	idleSweepInterval = time.Minute
	// maxTenants bounds the number of live per-tenant ledger states. At
	// the bound, creating a state for an unseen tenant first reclaims the
	// longest-idle unused states. The bound is soft: states with live
	// usage (inflight, subscription slots, queued webhooks) are never
	// reclaimed, so a genuinely busy fleet exceeds the bound rather than
	// losing enforcement state.
	maxTenants = 8192
	// topK caps per-tenant metric cardinality: the K busiest tenants get
	// named swamp_tenant_* series, the rest aggregate into "_other".
	topK = 8
)

// Action is an admission decision's disposition.
type Action uint8

// Admission dispositions, in ladder order.
const (
	// ActAllow admits the message; Decision.Wait is how long its ingress
	// waits before doing the work.
	ActAllow Action = iota
	// ActRejected refuses the message, uncharged: HTTP surfaces 429 +
	// Retry-After, MQTT withholds the ack so QoS 1 clients back off and
	// retry.
	ActRejected
	// ActDisconnected refuses the message of a suspended tenant
	// (msgs_per_sec = 0), uncharged: its MQTT session is dropped, and
	// CONNECT is refused with 0x97 while the suspension lasts.
	ActDisconnected
)

// String names the action for logs and metrics.
func (a Action) String() string {
	switch a {
	case ActAllow:
		return "allow"
	case ActRejected:
		return "rejected"
	case ActDisconnected:
		return "disconnected"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Decision is the outcome of one admission check.
type Decision struct {
	Action Action
	// Wait is, on ActAllow, the pace: how long the ingress waits before
	// doing the work, until the tenant's bucket is back at zero (0 within
	// budget, never above delayDebtSec). On a refusal it is how long the
	// tenant should wait before retrying — the HTTP Retry-After value.
	Wait time.Duration
}

// Allowed reports whether the message was admitted.
func (d Decision) Allowed() bool { return d.Action == ActAllow }

// Config configures an Admission controller.
type Config struct {
	// Enabled turns enforcement on. A disabled controller still exists
	// (wiring is unconditional) but admits everything and keeps no
	// per-tenant ledger hot; the flag is a dynamic knob.
	Enabled bool
	// Limits is the initial quota table.
	Limits Limits
	// Clock drives bucket refill (nil → wall clock). Tests and
	// simulations pass clock.Sim.
	Clock clock.Clock
	// Burst is the token-bucket capacity expressed as a duration of
	// sustained rate (capacity = rate × Burst). 0 → 2s.
	Burst time.Duration
}

// Admission is the per-tenant admission controller. It acts once per
// message, at the two doors that authenticate a tenant: the MQTT
// session reader and the HTTP API's authorize. What those doors admitted
// travels on uncharged (the fog uplink, webhook egress). All methods are
// safe for concurrent use, and all are nil-safe: a nil *Admission admits
// everything, so wiring stays unconditional and the controller is the
// single on/off switch.
//
// Isolation invariant: a tenant that stays within its quota is never
// paced, rejected or disconnected — regardless of what any other tenant
// does. Each tenant draws on its own budget only.
type Admission struct {
	clk     clock.Clock
	enabled atomic.Bool

	mu        sync.RWMutex
	limits    Limits
	burst     time.Duration
	lastSweep time.Time
	tenants   map[ID]*state

	// expMu guards exported, the metric labels published by the last
	// Export round; labels that fall out of the set get their series
	// deleted so stale per-tenant gauges never freeze at old values.
	expMu    sync.Mutex
	exported map[string]bool
}

// state is one tenant's live admission ledger. Token counts may go
// negative: the debt depth sets the pace and selects the shed-ladder
// rung.
type state struct {
	mu         sync.Mutex
	quota      Quota
	override   bool
	msgTokens  float64
	byteTokens float64
	last       time.Time

	inflight atomic.Int64
	subs     atomic.Int64
	// queueDepth mirrors the tenant's aggregate MQTT outbound queue
	// depth, maintained by the broker's enqueue/dequeue accounting.
	queueDepth atomic.Int64

	admitted    atomic.Uint64
	throttled   atomic.Uint64
	disconnects atomic.Uint64
	bytesIn     atomic.Uint64
}

// NewAdmission builds a controller.
func NewAdmission(cfg Config) *Admission {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 2 * time.Second
	}
	a := &Admission{
		clk:     cfg.Clock,
		limits:  cfg.Limits.clone(),
		burst:   cfg.Burst,
		tenants: make(map[ID]*state),
	}
	a.enabled.Store(cfg.Enabled)
	return a
}

// SetEnabled flips enforcement — the tenant.enabled dynamic knob.
func (a *Admission) SetEnabled(on bool) {
	if a != nil {
		a.enabled.Store(on)
	}
}

// Enabled reports whether enforcement is on.
func (a *Admission) Enabled() bool { return a != nil && a.enabled.Load() }

// SetBurst updates the token-bucket capacity window (dynamic knob).
func (a *Admission) SetBurst(d time.Duration) {
	if a == nil || d <= 0 {
		return
	}
	a.mu.Lock()
	a.burst = d
	a.mu.Unlock()
}

// SetLimits swaps the quota table — the reload path. Every live tenant's
// governing quota updates immediately; token balances are clamped to the
// new burst capacity, so a reload that shrinks a quota below current
// usage throttles the tenant on its very next message instead of letting
// an old surplus ride.
func (a *Admission) SetLimits(l Limits) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.limits = l.clone()
	for id, st := range a.tenants {
		q := a.limits.For(id)
		_, over := a.limits.Overrides[id]
		st.mu.Lock()
		st.quota = q
		st.override = over
		st.clampLocked(a.burst)
		st.mu.Unlock()
	}
	a.mu.Unlock()
}

// Limits returns a copy of the installed quota table.
func (a *Admission) Limits() Limits {
	if a == nil {
		return Limits{}
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.limits.clone()
}

// QuotaFor returns the quota governing id and whether it is an explicit
// override (vs the table default).
func (a *Admission) QuotaFor(id ID) (Quota, bool) {
	if a == nil {
		return Quota{}, false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	q, over := a.limits.Overrides[id]
	if !over {
		q = a.limits.Default
	}
	return q, over
}

// get returns the tenant's state, creating it on first sight. The
// create path bounds the ledger: a paced idle sweep reclaims states
// that have been fully idle past idleEvictAfter, and at maxTenants the
// longest-idle unused states are reclaimed immediately.
func (a *Admission) get(id ID) *state {
	a.mu.RLock()
	st := a.tenants[id]
	a.mu.RUnlock()
	if st != nil {
		return st
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.tenants[id]; st != nil {
		return st
	}
	now := a.clk.Now()
	if now.Sub(a.lastSweep) >= idleSweepInterval {
		a.lastSweep = now
		a.evictLocked(now, idleEvictAfter)
	}
	if len(a.tenants) >= maxTenants {
		a.evictLocked(now, 0)
	}
	q := a.limits.For(id)
	_, over := a.limits.Overrides[id]
	st = &state{quota: q, override: over, last: now}
	// A new tenant starts with a full burst allowance.
	st.msgTokens = float64(q.MsgsPerSec) * a.burst.Seconds()
	st.byteTokens = float64(q.BytesPerSec) * a.burst.Seconds()
	a.tenants[id] = st
	return st
}

// evictLocked reclaims unused tenant states, longest-idle first. A
// state is reclaimable when it holds no live usage — no inflight
// requests, subscription slots or queued webhooks — and last charged
// its buckets at least minIdle ago; explicit overrides are kept (their
// cardinality is bounded by the config). With minIdle 0 (the ledger is
// at maxTenants) reclamation stops as soon as the map is back under the
// bound. Reclaiming drops the tenant's cumulative counters and resets
// its ledger to the full-burst starting state — which, past
// idleEvictAfter, is exactly what refill would have restored anyway
// (debt is capped at rejectCapSec seconds). Callers hold a.mu for
// writing.
func (a *Admission) evictLocked(now time.Time, minIdle time.Duration) {
	type cand struct {
		id   ID
		last time.Time
	}
	var cands []cand
	for id, st := range a.tenants {
		if st.inflight.Load() != 0 || st.subs.Load() != 0 || st.queueDepth.Load() != 0 {
			continue
		}
		st.mu.Lock()
		c := cand{id: id, last: st.last}
		over := st.override
		st.mu.Unlock()
		if over || now.Sub(c.last) < minIdle {
			continue
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].last.Before(cands[j].last) })
	for _, c := range cands {
		if minIdle == 0 && len(a.tenants) < maxTenants {
			return
		}
		delete(a.tenants, c.id)
	}
}

// clampLocked bounds token balances to the (possibly new) burst capacity
// and the debt floor. Callers hold st.mu.
func (st *state) clampLocked(burst time.Duration) {
	capMsgs := float64(st.quota.MsgsPerSec) * burst.Seconds()
	capBytes := float64(st.quota.BytesPerSec) * burst.Seconds()
	st.msgTokens = math.Min(st.msgTokens, capMsgs)
	st.byteTokens = math.Min(st.byteTokens, capBytes)
	st.msgTokens = math.Max(st.msgTokens, -rejectCapSec*float64(st.quota.MsgsPerSec))
	st.byteTokens = math.Max(st.byteTokens, -rejectCapSec*float64(st.quota.BytesPerSec))
}

// lockRefilled locks st and advances its buckets to now, returning the
// burst window it refilled against. Callers unlock st.mu.
func (a *Admission) lockRefilled(st *state) (burst time.Duration) {
	a.mu.RLock()
	burst = a.burst
	a.mu.RUnlock()
	st.mu.Lock()
	st.refillLocked(a.clk.Now(), burst)
	return burst
}

// refillLocked advances the buckets to now. Callers hold st.mu.
func (st *state) refillLocked(now time.Time, burst time.Duration) {
	dt := now.Sub(st.last).Seconds()
	if dt <= 0 {
		return
	}
	st.last = now
	st.msgTokens += dt * float64(st.quota.MsgsPerSec)
	st.byteTokens += dt * float64(st.quota.BytesPerSec)
	st.clampLocked(burst)
}

// debtSecLocked returns the deeper of the two buckets' debt, in seconds
// of sustained quota. Callers hold st.mu.
func (st *state) debtSecLocked() float64 {
	var d float64
	if q := st.quota.MsgsPerSec; q > 0 {
		d = -st.msgTokens / float64(q)
	}
	if q := st.quota.BytesPerSec; q > 0 {
		d = max(d, -st.byteTokens/float64(q))
	}
	return max(d, 0)
}

// Admit charges one message of the given payload size against the tenant
// and walks the shed ladder. The None tenant (internal platform traffic)
// is always admitted.
func (a *Admission) Admit(id ID, bytes int64) Decision {
	if !a.Enabled() || id.IsNone() {
		return Decision{Action: ActAllow}
	}
	return a.admit(a.get(id), bytes)
}

func (a *Admission) admit(st *state, bytes int64) Decision {
	burst := a.lockRefilled(st)
	defer st.mu.Unlock()

	// MsgsPerSec 0 suspends the tenant outright (an operator kill
	// switch); the other dimensions treat 0 as unenforced.
	if st.quota.MsgsPerSec == 0 {
		st.disconnects.Add(1)
		return Decision{Action: ActDisconnected, Wait: time.Second}
	}

	// Reject rung: debt is already past the pacing window. Refused
	// messages are not charged — debt is capped so recovery time is
	// bounded by rejectCapSec.
	if debt := st.debtSecLocked(); debt > delayDebtSec {
		st.throttled.Add(1)
		return Decision{Action: ActRejected, Wait: time.Duration(debt * float64(time.Second))}
	}

	// Charge the buckets (they may go negative — that is the pace).
	st.msgTokens--
	if st.quota.BytesPerSec > 0 {
		st.byteTokens -= float64(bytes)
	}
	st.clampLocked(burst)
	st.admitted.Add(1)
	st.bytesIn.Add(uint64(bytes))
	wait := min(st.debtSecLocked(), delayDebtSec)
	return Decision{Action: ActAllow, Wait: time.Duration(wait * float64(time.Second))}
}

// Pace waits out an admitted message's Wait on the controller's clock.
// It reports false if done closed first.
func (a *Admission) Pace(d Decision, done <-chan struct{}) bool {
	if a == nil || d.Wait <= 0 {
		return true
	}
	select {
	case <-a.clk.After(d.Wait):
		return true
	case <-done:
		return false
	}
}

// ChargeBytes settles payload bytes that were unknown at admission time
// (a chunked HTTP request body carries no Content-Length). It debits
// the byte bucket only — the message was already admitted and charged
// one message token — deepening debt that the tenant's next admission
// check observes, so oversized chunked uploads cannot evade the
// bytes/s quota; they just pay for it one request late.
func (a *Admission) ChargeBytes(id ID, n int64) {
	if !a.Enabled() || id.IsNone() || n <= 0 {
		return
	}
	st := a.get(id)
	burst := a.lockRefilled(st)
	if st.quota.BytesPerSec > 0 {
		st.byteTokens -= float64(n)
		st.clampLocked(burst)
	}
	st.mu.Unlock()
	st.bytesIn.Add(uint64(n))
}

// AdmitConnect gates an MQTT CONNECT. It charges nothing: it only
// refuses while the tenant is suspended or already deep enough in debt
// that its next publish would be refused anyway.
func (a *Admission) AdmitConnect(id ID) bool {
	if !a.Enabled() || id.IsNone() {
		return true
	}
	st := a.get(id)
	a.lockRefilled(st)
	defer st.mu.Unlock()
	if st.quota.MsgsPerSec == 0 || st.debtSecLocked() > delayDebtSec {
		st.throttled.Add(1)
		return false
	}
	return true
}

// AdmitRequest admits one HTTP request: the inflight bound plus the rate
// check. The inflight slot is reserved first and atomically, so
// concurrent requests never overshoot the bound, and it is held while
// the request is paced. On ActAllow the returned release func MUST be
// called when the request completes; it is nil otherwise.
func (a *Admission) AdmitRequest(id ID, bytes int64) (Decision, func()) {
	if !a.Enabled() || id.IsNone() {
		return Decision{Action: ActAllow}, func() {}
	}
	st := a.get(id)
	st.mu.Lock()
	lim := st.quota.Inflight
	st.mu.Unlock()
	if !reserve(&st.inflight, lim) {
		st.throttled.Add(1)
		return Decision{Action: ActRejected, Wait: time.Second}, nil
	}
	d := a.admit(st, bytes)
	if !d.Allowed() {
		st.inflight.Add(-1)
		return d, nil
	}
	var once sync.Once
	return d, func() { once.Do(func() { st.inflight.Add(-1) }) }
}

// reserve claims one unit of c while it is below lim (0 = unbounded).
func reserve(c *atomic.Int64, lim int) bool {
	for {
		cur := c.Load()
		if lim > 0 && cur >= int64(lim) {
			return false
		}
		if c.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// ErrSubscriptionQuota is wrapped by ReserveSubscription's refusal.
var ErrSubscriptionQuota = errors.New("subscription quota exhausted")

// ReserveSubscription claims one of the tenant's subscription slots —
// NGSI subscriptions and MQTT topic filters alike — failing when the
// quota is exhausted. Slots are counted while admission is off too, so
// turning it on enforces the bound against what the tenant already
// holds; only the bound waits for Enabled. Callers pair it with
// ReleaseSubscription on teardown.
func (a *Admission) ReserveSubscription(id ID) error {
	if a == nil || id.IsNone() {
		return nil
	}
	st := a.get(id)
	st.mu.Lock()
	lim := st.quota.Subscriptions
	st.mu.Unlock()
	if !a.Enabled() {
		lim = 0 // counted, not bounded
	}
	if !reserve(&st.subs, lim) {
		st.throttled.Add(1)
		return fmt.Errorf("tenant %s: %w (%d)", id, ErrSubscriptionQuota, lim)
	}
	return nil
}

// RestoreSubscription re-claims a subscription slot without enforcing
// the quota bound — the WAL-replay path. Recovered subscriptions were
// admitted (and charged a slot) when created, so replay must restore
// the slot unconditionally to keep reserve/release counts paired: a
// quota shrunk below the recovered count would otherwise leave live
// subscriptions uncounted, and a later delete would decrement a slot
// legitimately held by a post-restart subscription of the same tenant.
func (a *Admission) RestoreSubscription(id ID) {
	if a == nil || id.IsNone() {
		return
	}
	a.get(id).subs.Add(1)
}

// ReleaseSubscription returns a subscription slot.
func (a *Admission) ReleaseSubscription(id ID) {
	if a == nil || id.IsNone() {
		return
	}
	st := a.get(id)
	for {
		cur := st.subs.Load()
		if cur <= 0 {
			return
		}
		if st.subs.CompareAndSwap(cur, cur-1) {
			return
		}
	}
}

// WebhookQueueCap returns the tenant's share of a webhook queue of the
// given full length, per its WebhookSharePct (0 → the full queue).
func (a *Admission) WebhookQueueCap(id ID, full int) int {
	if !a.Enabled() || id.IsNone() {
		return full
	}
	q, _ := a.QuotaFor(id)
	if q.WebhookSharePct <= 0 || q.WebhookSharePct >= 100 {
		return full
	}
	cap := full * q.WebhookSharePct / 100
	if cap < 1 {
		cap = 1
	}
	return cap
}

// AddQueueDepth adjusts the tenant's webhook-backlog gauge — the
// pool's per-tenant enqueue/dequeue accounting. Informational only (the
// enforced bound is WebhookQueueCap), so toggling enablement mid-flight
// can only skew the gauge, never an enforcement decision.
func (a *Admission) AddQueueDepth(id ID, delta int64) {
	if !a.Enabled() || id.IsNone() {
		return
	}
	a.get(id).queueDepth.Add(delta)
}

// Status is one tenant's live usage snapshot — the GET /admin/tenants row.
type Status struct {
	ID            ID      `json:"id"`
	Quota         Quota   `json:"quota"`
	Override      bool    `json:"override"`
	DebtSec       float64 `json:"debt_sec"`
	Inflight      int64   `json:"inflight"`
	Subscriptions int64   `json:"subscriptions"`
	QueueDepth    int64   `json:"queue_depth"`
	Admitted      uint64  `json:"admitted"`
	Throttled     uint64  `json:"throttled"`
	Disconnects   uint64  `json:"disconnects"`
	BytesIn       uint64  `json:"bytes_in"`
}

// Tenants snapshots every tenant the controller has seen (live usage)
// plus configured-but-idle overrides, sorted by id.
func (a *Admission) Tenants() []Status {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	burst := a.burst
	seen := make(map[ID]*state, len(a.tenants))
	for id, st := range a.tenants {
		seen[id] = st
	}
	idle := make([]ID, 0)
	for id := range a.limits.Overrides {
		if _, ok := seen[id]; !ok {
			idle = append(idle, id)
		}
	}
	limits := a.limits
	a.mu.RUnlock()

	out := make([]Status, 0, len(seen)+len(idle))
	now := a.clk.Now()
	for id, st := range seen {
		st.mu.Lock()
		st.refillLocked(now, burst)
		s := Status{
			ID:       id,
			Quota:    st.quota,
			Override: st.override,
			DebtSec:  st.debtSecLocked(),
		}
		st.mu.Unlock()
		s.Inflight = st.inflight.Load()
		s.Subscriptions = st.subs.Load()
		s.QueueDepth = st.queueDepth.Load()
		s.Admitted = st.admitted.Load()
		s.Throttled = st.throttled.Load()
		s.Disconnects = st.disconnects.Load()
		s.BytesIn = st.bytesIn.Load()
		out = append(out, s)
	}
	for _, id := range idle {
		out = append(out, Status{ID: id, Quota: limits.For(id), Override: true})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
