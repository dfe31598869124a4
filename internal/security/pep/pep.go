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
// Because the PEP fronts every authenticated request, its audit trail is
// a fixed-size lock-free ring of atomic slots instead of a mutex-guarded
// slice.
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
	// Condition is an optional ABAC predicate evaluated last.
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
}

// NewPDP builds a PDP over the given policies.
func NewPDP(policies ...Policy) *PDP {
	return &PDP{policies: append([]Policy(nil), policies...)}
}

// AddPolicy appends a policy at runtime (a farmer granting an agronomist
// access).
func (p *PDP) AddPolicy(pol Policy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.policies = append(p.policies, pol)
}

// RemovePolicy deletes the policy with the given id; it reports whether a
// policy was removed.
func (p *PDP) RemovePolicy(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, pol := range p.policies {
		if pol.ID == id {
			p.policies = append(p.policies[:i], p.policies[i+1:]...)
			return true
		}
	}
	return false
}

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

// auditCap is the audit-ring capacity (a power of two).
const auditCap = 4096

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

// newAuditRing builds a ring of capacity slots; capacity must be a power
// of two so that slot = seq & mask.
func newAuditRing(capacity int, dropped *metrics.Counter) *auditRing {
	return &auditRing{slots: make([]atomic.Pointer[AuditEntry], capacity), mask: uint64(capacity - 1), dropped: dropped}
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

// PEP couples token introspection with policy decisions and keeps a
// bounded audit ring.
type PEP struct {
	tokens *oauth.Server
	pdp    *PDP
	reg    *metrics.Registry
	ring   *auditRing

	cPermitted *metrics.Counter
	cDenied    *metrics.Counter
	cRejected  *metrics.Counter
}

// NewPEP builds an enforcement point. metricsReg may be nil.
func NewPEP(tokens *oauth.Server, pdp *PDP, metricsReg *metrics.Registry) *PEP {
	if metricsReg == nil {
		metricsReg = metrics.NewRegistry()
	}
	return &PEP{
		tokens:     tokens,
		pdp:        pdp,
		reg:        metricsReg,
		ring:       newAuditRing(auditCap, metricsReg.Counter("security.audit.dropped")),
		cPermitted: metricsReg.Counter("pep.permitted"),
		cDenied:    metricsReg.Counter("pep.denied"),
		cRejected:  metricsReg.Counter("pep.token.rejected"),
	}
}

// Authorize enforces one access: it introspects the bearer token, asks the
// PDP, audits, and returns the principal on permit. A policy change or a
// token revocation therefore takes effect on the next call.
func (p *PEP) Authorize(tokenValue, action, resource string) (identity.Principal, error) {
	tok, err := p.tokens.Introspect(tokenValue)
	if err != nil {
		p.ring.add(AuditEntry{At: time.Now(), Action: action, Resource: resource, Effect: Deny, Err: err.Error()})
		p.cRejected.Inc()
		return identity.Principal{}, fmt.Errorf("pep: token: %w", err)
	}
	dec := p.pdp.Decide(Request{Principal: tok.Principal, Action: action, Resource: resource})
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
