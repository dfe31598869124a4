// Package pep implements the SWAMP policy enforcement point and policy
// decision point — the stand-ins for the FIWARE Wilma (PEP proxy) and
// AuthZForce (PDP) generic enablers. Every northbound read and southbound
// command crosses the PEP: bearer token introspection, then an RBAC/ABAC
// policy decision with deny-overrides combining, then an audit record.
//
// This is the mechanism behind the paper's §III requirement that "each
// owner controls their data and decides the access control to the data and
// the services".
//
// Because the PEP fronts every authenticated request, its hot path is
// built to stay off locks: policy decisions are memoized per
// (principal, action, resource) and validated against the PDP's version
// counter (any AddPolicy/RemovePolicy bump invalidates every cached
// decision at once — see the invariant on Authorize), and the audit
// trail is a fixed-size lock-free ring of atomic slots instead of a
// mutex-guarded slice. Memoization switches itself off while any policy
// carries a Condition closure, whose result a cache key cannot capture.
package pep

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/security/oauth"
	"github.com/swamp-project/swamp/internal/tenant"
)

// Effect is a policy outcome.
type Effect int

// Effects. The zero value is Deny so an incompletely built policy fails
// closed.
const (
	Deny Effect = iota
	Permit
)

// String implements fmt.Stringer.
func (e Effect) String() string {
	if e == Permit {
		return "permit"
	}
	return "deny"
}

// Request is one authorization question: may Principal perform Action on
// Resource?
type Request struct {
	Principal identity.Principal
	Action    string            // "read", "write", "subscribe", "command", ...
	Resource  string            // e.g. "ngsi:urn:swamp:farm1:plot:3"
	Attrs     map[string]string // extra ABAC context
}

// Policy is one rule. A policy matches a request when every non-empty
// selector matches; Condition, if set, must also return true.
type Policy struct {
	ID          string
	Description string
	// Roles: the principal must hold at least one; empty matches any role.
	Roles []identity.Role
	// Owners: the principal's tenant must be listed; empty matches any.
	Owners []tenant.ID
	// Actions: the request action must be listed; empty matches any.
	Actions []string
	// ResourcePattern: exact resource or prefix ending in '*'; empty
	// matches any resource.
	ResourcePattern string
	// Condition is an optional ABAC predicate evaluated last. Policies
	// with a Condition disable PEP decision memoization while installed.
	Condition func(Request) bool
	Effect    Effect
}

func (p Policy) matches(req Request) bool {
	if len(p.Roles) > 0 {
		ok := false
		for _, r := range p.Roles {
			if req.Principal.HasRole(r) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(p.Owners) > 0 {
		ok := false
		for _, o := range p.Owners {
			if req.Principal.Owner == o {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(p.Actions) > 0 {
		ok := false
		for _, a := range p.Actions {
			if a == req.Action {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if p.ResourcePattern != "" && !matchResource(p.ResourcePattern, req.Resource) {
		return false
	}
	if p.Condition != nil && !p.Condition(req) {
		return false
	}
	return true
}

func matchResource(pattern, resource string) bool {
	if pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(resource, strings.TrimSuffix(pattern, "*"))
	}
	return pattern == resource
}

// Decision is the PDP's answer.
type Decision struct {
	Effect   Effect
	PolicyID string // the deciding policy; empty for the default deny
}

// PDP evaluates policies with deny-overrides combining: any matching deny
// policy denies; otherwise any matching permit permits; otherwise the
// default (deny) applies.
type PDP struct {
	mu       sync.RWMutex
	policies []Policy
	// version counts policy-set mutations. Caches key their entries to
	// the version observed *before* deciding, so by the time AddPolicy or
	// RemovePolicy returns, every previously cached decision has become
	// unreachable.
	version atomic.Uint64
	// conditional counts installed policies with a Condition closure;
	// while nonzero, decisions are not cacheable.
	conditional atomic.Int64
}

// NewPDP builds a PDP over the given policies.
func NewPDP(policies ...Policy) *PDP {
	p := &PDP{}
	for _, pol := range policies {
		p.policies = append(p.policies, pol)
		if pol.Condition != nil {
			p.conditional.Add(1)
		}
	}
	return p
}

// AddPolicy appends a policy at runtime (a farmer granting an agronomist
// access).
func (p *PDP) AddPolicy(pol Policy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.policies = append(p.policies, pol)
	if pol.Condition != nil {
		p.conditional.Add(1)
	}
	p.version.Add(1)
}

// RemovePolicy deletes the policy with the given id; it reports whether a
// policy was removed.
func (p *PDP) RemovePolicy(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, pol := range p.policies {
		if pol.ID == id {
			if pol.Condition != nil {
				p.conditional.Add(-1)
			}
			p.policies = append(p.policies[:i], p.policies[i+1:]...)
			p.version.Add(1)
			return true
		}
	}
	return false
}

// Version returns the mutation counter. A cached decision is valid only
// while the version it was computed under is still current.
func (p *PDP) Version() uint64 { return p.version.Load() }

// Cacheable reports whether decisions are pure functions of
// (principal, action, resource) right now — false while any installed
// policy carries a Condition closure.
func (p *PDP) Cacheable() bool { return p.conditional.Load() == 0 }

// Decide answers one request.
func (p *PDP) Decide(req Request) Decision {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var permit *Policy
	for i := range p.policies {
		pol := &p.policies[i]
		if !pol.matches(req) {
			continue
		}
		if pol.Effect == Deny {
			return Decision{Effect: Deny, PolicyID: pol.ID}
		}
		if permit == nil {
			permit = pol
		}
	}
	if permit != nil {
		return Decision{Effect: Permit, PolicyID: permit.ID}
	}
	return Decision{Effect: Deny}
}

// AuditEntry records one enforcement outcome.
type AuditEntry struct {
	At        time.Time
	Principal string
	Action    string
	Resource  string
	Effect    Effect
	PolicyID  string
	Err       string // token failure reason, if enforcement failed pre-PDP
}

// ErrDenied is wrapped by Authorize when the PDP denies.
var ErrDenied = errors.New("pep: denied")

// DefaultAuditCap is the audit-ring capacity when no option overrides it.
const DefaultAuditCap = 4096

// auditRing is a fixed-size lock-free ring: writers claim a slot with one
// atomic increment and publish the entry with one atomic pointer store.
// Once the ring has wrapped, every write overwrites the oldest slot (the
// drop is counted). Audit snapshots are taken slot-by-slot: each entry
// read is internally consistent, though a snapshot racing heavy writes
// may miss a concurrent entry — the audit trail is an operator-facing
// window, not a transaction log.
type auditRing struct {
	slots   []atomic.Pointer[AuditEntry]
	mask    uint64
	head    atomic.Uint64 // next sequence number to claim
	dropped *metrics.Counter
}

func newAuditRing(capacity int, dropped *metrics.Counter) *auditRing {
	if capacity <= 0 {
		capacity = DefaultAuditCap
	}
	// Round up to a power of two so slot = seq & mask.
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &auditRing{slots: make([]atomic.Pointer[AuditEntry], c), mask: uint64(c - 1), dropped: dropped}
}

func (r *auditRing) add(e AuditEntry) {
	seq := r.head.Add(1) - 1
	if seq > r.mask {
		r.dropped.Inc()
	}
	r.slots[seq&r.mask].Store(&e)
}

// snapshot returns the retained entries, oldest first.
func (r *auditRing) snapshot() []AuditEntry {
	head := r.head.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if head > n {
		start = head - n
	}
	out := make([]AuditEntry, 0, head-start)
	for seq := start; seq < head; seq++ {
		if e := r.slots[seq&r.mask].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// memoEntry is one cached decision, valid while version is current.
type memoEntry struct {
	version uint64
	dec     Decision
}

// memoTable is one cache generation. When a generation grows past
// memoCap distinct keys the whole table is swapped for a fresh one —
// cheaper and simpler than eviction, and a full re-decide of the working
// set costs one PDP pass per key.
type memoTable struct {
	m     sync.Map // string key -> memoEntry
	count atomic.Int64
}

const memoCap = 1 << 14

// Option configures a PEP.
type Option func(*PEP)

// WithAuditCap bounds the audit ring (entries; rounded up to a power of
// two). Zero or negative means DefaultAuditCap.
func WithAuditCap(n int) Option { return func(p *PEP) { p.auditCap = n } }

// PEP couples token introspection with policy decisions and keeps a
// bounded audit ring.
type PEP struct {
	tokens *oauth.Server
	pdp    *PDP
	reg    *metrics.Registry

	auditCap int
	ring     *auditRing
	memo     atomic.Pointer[memoTable]

	cPermitted *metrics.Counter
	cDenied    *metrics.Counter
	cRejected  *metrics.Counter
	cMemoHit   *metrics.Counter
}

// NewPEP builds an enforcement point. metricsReg may be nil.
func NewPEP(tokens *oauth.Server, pdp *PDP, metricsReg *metrics.Registry, opts ...Option) *PEP {
	if metricsReg == nil {
		metricsReg = metrics.NewRegistry()
	}
	p := &PEP{tokens: tokens, pdp: pdp, reg: metricsReg, auditCap: DefaultAuditCap}
	for _, o := range opts {
		o(p)
	}
	p.ring = newAuditRing(p.auditCap, metricsReg.Counter("security.audit.dropped"))
	p.memo.Store(&memoTable{})
	p.cPermitted = metricsReg.Counter("pep.permitted")
	p.cDenied = metricsReg.Counter("pep.denied")
	p.cRejected = metricsReg.Counter("pep.token.rejected")
	p.cMemoHit = metricsReg.Counter("pep.memo.hits")
	return p
}

// memoKey identifies a decision. It covers everything Decide can read
// from a condition-free request: the principal's identity, tenant and
// role set (two tokens for the same ID issued across a role change must
// not share an entry), plus action and resource.
func memoKey(pr *identity.Principal, action, resource string) string {
	n := len(pr.ID) + len(pr.Owner) + len(action) + len(resource) + 4
	for _, r := range pr.Roles {
		n += len(r) + 1
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(pr.ID)
	b.WriteByte(0)
	b.WriteString(string(pr.Owner))
	for _, r := range pr.Roles {
		b.WriteByte(0)
		b.WriteString(string(r))
	}
	b.WriteByte(1)
	b.WriteString(action)
	b.WriteByte(0)
	b.WriteString(resource)
	return b.String()
}

// decide answers via the memo when possible.
//
// Invariant (no stale permit): the PDP version is read BEFORE Decide and
// stored with the entry. AddPolicy/RemovePolicy bump the version after
// mutating, so an entry cached under the old version — even one computed
// concurrently with the mutation — fails the version check on every
// lookup after the mutation returns. Revocation needs no invalidation
// here: Introspect rejects the token before the memo is consulted.
func (p *PEP) decide(req Request) Decision {
	if !p.pdp.Cacheable() {
		return p.pdp.Decide(req)
	}
	ver := p.pdp.Version()
	key := memoKey(&req.Principal, req.Action, req.Resource)
	tbl := p.memo.Load()
	if v, ok := tbl.m.Load(key); ok {
		if e := v.(memoEntry); e.version == ver {
			p.cMemoHit.Inc()
			return e.dec
		}
	}
	dec := p.pdp.Decide(req)
	if _, loaded := tbl.m.LoadOrStore(key, memoEntry{version: ver, dec: dec}); loaded {
		tbl.m.Store(key, memoEntry{version: ver, dec: dec})
	} else if tbl.count.Add(1) > memoCap {
		p.memo.CompareAndSwap(tbl, &memoTable{})
	}
	return dec
}

// Authorize enforces one access: it introspects the bearer token, asks the
// PDP (through the decision memo), audits, and returns the principal on
// permit.
func (p *PEP) Authorize(tokenValue, action, resource string) (identity.Principal, error) {
	tok, err := p.tokens.Introspect(tokenValue)
	if err != nil {
		p.ring.add(AuditEntry{At: time.Now(), Action: action, Resource: resource, Effect: Deny, Err: err.Error()})
		p.cRejected.Inc()
		return identity.Principal{}, fmt.Errorf("pep: token: %w", err)
	}
	req := Request{Principal: tok.Principal, Action: action, Resource: resource}
	dec := p.decide(req)
	p.ring.add(AuditEntry{
		At: time.Now(), Principal: tok.Principal.ID, Action: action,
		Resource: resource, Effect: dec.Effect, PolicyID: dec.PolicyID,
	})
	if dec.Effect != Permit {
		p.cDenied.Inc()
		return identity.Principal{}, fmt.Errorf("%w: %s on %s for %s (policy %q)",
			ErrDenied, action, resource, tok.Principal.ID, dec.PolicyID)
	}
	p.cPermitted.Inc()
	return tok.Principal, nil
}

// Audit returns a copy of the retained audit entries, oldest first.
func (p *PEP) Audit() []AuditEntry { return p.ring.snapshot() }

// Metrics returns the PEP's metric registry.
func (p *PEP) Metrics() *metrics.Registry { return p.reg }
