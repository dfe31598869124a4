package pep

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/security/oauth"
	"github.com/swamp-project/swamp/internal/tenant"
)

func farmer(owner string) identity.Principal {
	return identity.Principal{ID: owner + "-farmer", Roles: []identity.Role{identity.RoleFarmer}, Owner: tenant.ID(owner)}
}

func TestPDPDefaultDeny(t *testing.T) {
	pdp := NewPDP()
	dec := pdp.Decide(Request{Principal: farmer("f1"), Action: "read", Resource: "x"})
	if dec.Effect != Deny || dec.PolicyID != "" {
		t.Errorf("decision = %+v", dec)
	}
}

func TestPDPPermitByRoleActionResource(t *testing.T) {
	pdp := NewPDP(Policy{
		ID:              "farmers-read-own",
		Roles:           []identity.Role{identity.RoleFarmer},
		Actions:         []string{"read"},
		ResourcePattern: "ngsi:farm1:*",
		Effect:          Permit,
	})
	ok := pdp.Decide(Request{Principal: farmer("farm1"), Action: "read", Resource: "ngsi:farm1:plot3"})
	if ok.Effect != Permit || ok.PolicyID != "farmers-read-own" {
		t.Errorf("permit case = %+v", ok)
	}
	for i, req := range []Request{
		{Principal: farmer("farm1"), Action: "write", Resource: "ngsi:farm1:plot3"},
		{Principal: farmer("farm1"), Action: "read", Resource: "ngsi:farm2:plot3"},
		{Principal: identity.Principal{ID: "dev", Roles: []identity.Role{identity.RoleDevice}}, Action: "read", Resource: "ngsi:farm1:plot3"},
	} {
		if dec := pdp.Decide(req); dec.Effect != Deny {
			t.Errorf("case %d: expected deny, got %+v", i, dec)
		}
	}
}

func TestPDPDenyOverrides(t *testing.T) {
	pdp := NewPDP(
		Policy{ID: "allow-all-reads", Actions: []string{"read"}, Effect: Permit},
		Policy{ID: "block-quarantined", ResourcePattern: "ngsi:quarantine:*", Effect: Deny},
	)
	dec := pdp.Decide(Request{Principal: farmer("f"), Action: "read", Resource: "ngsi:quarantine:device7"})
	if dec.Effect != Deny || dec.PolicyID != "block-quarantined" {
		t.Errorf("deny-overrides failed: %+v", dec)
	}
	if dec := pdp.Decide(Request{Principal: farmer("f"), Action: "read", Resource: "ngsi:ok:1"}); dec.Effect != Permit {
		t.Errorf("unrelated resource denied: %+v", dec)
	}
}

func TestPDPOwnerSelector(t *testing.T) {
	pdp := NewPDP(Policy{ID: "farm1-only", Owners: []tenant.ID{"farm1"}, Effect: Permit})
	if dec := pdp.Decide(Request{Principal: farmer("farm1"), Action: "read", Resource: "r"}); dec.Effect != Permit {
		t.Error("owner match denied")
	}
	if dec := pdp.Decide(Request{Principal: farmer("farm2"), Action: "read", Resource: "r"}); dec.Effect != Deny {
		t.Error("foreign owner permitted")
	}
}

func TestPDPABACCondition(t *testing.T) {
	pdp := NewPDP(Policy{
		ID:      "commands-in-maintenance-window",
		Actions: []string{"command"},
		Condition: func(r Request) bool {
			return r.Attrs["window"] == "open"
		},
		Effect: Permit,
	})
	base := Request{Principal: farmer("f"), Action: "command", Resource: "valve1"}
	closed := base
	closed.Attrs = map[string]string{"window": "closed"}
	if dec := pdp.Decide(closed); dec.Effect != Deny {
		t.Error("condition false but permitted")
	}
	open := base
	open.Attrs = map[string]string{"window": "open"}
	if dec := pdp.Decide(open); dec.Effect != Permit {
		t.Error("condition true but denied")
	}
}

func TestPDPAddRemovePolicy(t *testing.T) {
	pdp := NewPDP()
	pdp.AddPolicy(Policy{ID: "p1", Effect: Permit})
	if dec := pdp.Decide(Request{Principal: farmer("f"), Action: "a", Resource: "r"}); dec.Effect != Permit {
		t.Error("added policy ignored")
	}
	if !pdp.RemovePolicy("p1") {
		t.Error("remove returned false")
	}
	if pdp.RemovePolicy("p1") {
		t.Error("double remove returned true")
	}
	if dec := pdp.Decide(Request{Principal: farmer("f"), Action: "a", Resource: "r"}); dec.Effect != Deny {
		t.Error("removed policy still effective")
	}
}

func newStack(t *testing.T) (*oauth.Server, *PEP) {
	t.Helper()
	idm := identity.NewStore()
	if err := idm.Register(farmer("farm1"), "pw"); err != nil {
		t.Fatal(err)
	}
	if err := idm.Register(identity.Principal{ID: "intruder", Owner: "elsewhere"}, "pw"); err != nil {
		t.Fatal(err)
	}
	tokens := oauth.NewServer(idm, oauth.Config{})
	pdp := NewPDP(Policy{
		ID:              "farmers-own-data",
		Roles:           []identity.Role{identity.RoleFarmer},
		ResourcePattern: "ngsi:farm1:*",
		Effect:          Permit,
	})
	return tokens, NewPEP(tokens, pdp, nil)
}

func TestPEPAuthorizeFlow(t *testing.T) {
	tokens, pep := newStack(t)
	tok, err := tokens.GrantPassword("farm1-farmer", "pw")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pep.Authorize(tok.Value, "read", "ngsi:farm1:plot1")
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != "farm1-farmer" {
		t.Errorf("principal = %+v", p)
	}
	// Cross-tenant access denied.
	if _, err := pep.Authorize(tok.Value, "read", "ngsi:farm2:plot1"); !errors.Is(err, ErrDenied) {
		t.Errorf("cross-tenant: %v", err)
	}
	// Principal without the farmer role denied.
	itok, _ := tokens.GrantPassword("intruder", "pw")
	if _, err := pep.Authorize(itok.Value, "read", "ngsi:farm1:plot1"); !errors.Is(err, ErrDenied) {
		t.Errorf("intruder: %v", err)
	}
	// Garbage token rejected before the PDP.
	if _, err := pep.Authorize("bogus", "read", "ngsi:farm1:plot1"); err == nil {
		t.Error("garbage token authorized")
	}
}

func TestPEPRevokedTokenRejected(t *testing.T) {
	tokens, pep := newStack(t)
	tok, _ := tokens.GrantPassword("farm1-farmer", "pw")
	tokens.Revoke(tok.Value)
	if _, err := pep.Authorize(tok.Value, "read", "ngsi:farm1:plot1"); err == nil {
		t.Error("revoked token authorized")
	}
}

func TestPEPAuditTrail(t *testing.T) {
	tokens, pep := newStack(t)
	tok, _ := tokens.GrantPassword("farm1-farmer", "pw")
	pep.Authorize(tok.Value, "read", "ngsi:farm1:a")
	pep.Authorize(tok.Value, "read", "ngsi:farm2:b") // denied
	pep.Authorize("junk", "read", "ngsi:farm1:c")    // token error

	audit := pep.Audit()
	if len(audit) != 3 {
		t.Fatalf("audit entries = %d, want 3", len(audit))
	}
	if audit[0].Effect != Permit || audit[0].Principal != "farm1-farmer" {
		t.Errorf("entry 0 = %+v", audit[0])
	}
	if audit[1].Effect != Deny {
		t.Errorf("entry 1 = %+v", audit[1])
	}
	if audit[2].Err == "" {
		t.Errorf("entry 2 should carry a token error: %+v", audit[2])
	}
	if pep.Metrics().Counter("pep.denied").Value() != 1 {
		t.Error("denied counter wrong")
	}
}

func TestPEPAuditRingWraps(t *testing.T) {
	tokens, base := newStack(t)
	pep := NewPEP(tokens, base.pdp, nil)
	pep.ring = newAuditRing(8, pep.Metrics().Counter("security.audit.dropped"))
	tok, _ := tokens.GrantPassword("farm1-farmer", "pw")
	for i := 0; i < 20; i++ {
		pep.Authorize(tok.Value, "read", fmt.Sprintf("ngsi:farm1:%d", i))
	}
	audit := pep.Audit()
	if len(audit) != 8 {
		t.Fatalf("ring size = %d, want 8", len(audit))
	}
	if audit[0].Resource != "ngsi:farm1:12" || audit[7].Resource != "ngsi:farm1:19" {
		t.Errorf("ring order wrong: first %q last %q", audit[0].Resource, audit[7].Resource)
	}
}

func TestEffectString(t *testing.T) {
	if Permit.String() != "permit" || Deny.String() != "deny" {
		t.Error("effect strings wrong")
	}
}

// TestNeverServesStalePermit is the -race proof that every decision is
// current: while workers hammer Authorize, the main goroutine flip-flops
// a deny policy and revokes tokens — and every Authorize issued after a
// mutation returns must observe it.
func TestNeverServesStalePermit(t *testing.T) {
	tokens, pep := newStack(t)
	tok, err := tokens.GrantPassword("farm1-farmer", "pw")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pep.Authorize(tok.Value, "read", fmt.Sprintf("ngsi:farm1:%d", i%8))
			}
		}()
	}

	for i := 0; i < 100; i++ {
		res := fmt.Sprintf("ngsi:farm1:%d", i%8)
		if _, err := pep.Authorize(tok.Value, "read", res); err != nil {
			t.Fatalf("warm-up authorize: %v", err)
		}
		pep.pdp.AddPolicy(Policy{ID: "ban", ResourcePattern: res, Effect: Deny})
		if _, err := pep.Authorize(tok.Value, "read", res); !errors.Is(err, ErrDenied) {
			t.Fatalf("iteration %d: stale permit served after AddPolicy: err=%v", i, err)
		}
		pep.pdp.RemovePolicy("ban")
		if _, err := pep.Authorize(tok.Value, "read", res); err != nil {
			t.Fatalf("iteration %d: stale deny served after RemovePolicy: %v", i, err)
		}
	}

	// Revocation path: Introspect rejects a revoked token before the PDP
	// is asked.
	if err := tokens.Revoke(tok.Value); err != nil {
		t.Fatal(err)
	}
	if _, err := pep.Authorize(tok.Value, "read", "ngsi:farm1:0"); err == nil || errors.Is(err, ErrDenied) {
		t.Fatalf("revoked token: got %v, want token rejection", err)
	}
	close(stop)
	wg.Wait()
}

// TestConditionDecidesEveryCall: a Condition policy's answer is asked
// afresh on each Authorize, so a predicate that flips flips the outcome.
func TestConditionDecidesEveryCall(t *testing.T) {
	tokens, pep := newStack(t)
	tok, _ := tokens.GrantPassword("farm1-farmer", "pw")
	allow := true
	pep.pdp.AddPolicy(Policy{
		ID:              "flaky",
		ResourcePattern: "ngsi:farm1:cond",
		Effect:          Deny,
		Condition:       func(Request) bool { return !allow },
	})
	if _, err := pep.Authorize(tok.Value, "read", "ngsi:farm1:cond"); err != nil {
		t.Fatalf("condition-false should permit: %v", err)
	}
	allow = false
	if _, err := pep.Authorize(tok.Value, "read", "ngsi:farm1:cond"); !errors.Is(err, ErrDenied) {
		t.Fatalf("condition-true should deny: %v", err)
	}
}

func TestAuditDroppedCounter(t *testing.T) {
	tokens, base := newStack(t)
	pep := NewPEP(tokens, base.pdp, nil)
	pep.ring = newAuditRing(8, pep.Metrics().Counter("security.audit.dropped"))
	tok, _ := tokens.GrantPassword("farm1-farmer", "pw")
	for i := 0; i < 20; i++ {
		pep.Authorize(tok.Value, "read", "ngsi:farm1:a")
	}
	if got := pep.Metrics().Counter("security.audit.dropped").Value(); got != 12 {
		t.Fatalf("security.audit.dropped = %d, want 12", got)
	}
	if n := len(pep.Audit()); n != 8 {
		t.Fatalf("retained audit = %d, want 8", n)
	}
}

// TestAuthorizeAllocs: a permit allocates only its audit entry.
func TestAuthorizeAllocs(t *testing.T) {
	tokens, pep := newStack(t)
	tok, err := tokens.GrantPassword("farm1-farmer", "pw")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := pep.Authorize(tok.Value, "read", "ngsi:farm1:plot1"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("permit: %v allocs/op, want at most 1 (the audit entry)", allocs)
	}
}
