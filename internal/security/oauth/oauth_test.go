package oauth

import (
	"errors"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/security/identity"
)

func newIDM(t *testing.T) *identity.Store {
	t.Helper()
	idm := identity.NewStore()
	if err := idm.Register(identity.Principal{ID: "alice", Roles: []identity.Role{identity.RoleFarmer}, Owner: "farm1"}, "pw"); err != nil {
		t.Fatal(err)
	}
	if err := idm.Register(identity.Principal{ID: "svc-irrigation", Roles: []identity.Role{identity.RoleService}}, "svc-secret"); err != nil {
		t.Fatal(err)
	}
	return idm
}

func TestPasswordGrantAndIntrospect(t *testing.T) {
	srv := NewServer(newIDM(t), Config{})
	tok, err := srv.GrantPassword("alice", "pw", "read", "write")
	if err != nil {
		t.Fatal(err)
	}
	if tok.Value == "" || len(tok.Value) != 48 {
		t.Errorf("token value %q", tok.Value)
	}
	got, err := srv.Introspect(tok.Value)
	if err != nil {
		t.Fatal(err)
	}
	if got.Principal.ID != "alice" || !got.HasScope("read") || got.HasScope("admin") {
		t.Errorf("introspected %+v", got)
	}
}

func TestGrantRejectsBadCredentials(t *testing.T) {
	srv := NewServer(newIDM(t), Config{})
	if _, err := srv.GrantPassword("alice", "wrong"); err == nil {
		t.Error("bad password granted")
	}
	if _, err := srv.GrantClientCredentials("ghost", "x"); err == nil {
		t.Error("unknown client granted")
	}
}

func TestClientCredentialsGrant(t *testing.T) {
	srv := NewServer(newIDM(t), Config{})
	tok, err := srv.GrantClientCredentials("svc-irrigation", "svc-secret", "command")
	if err != nil {
		t.Fatal(err)
	}
	if !tok.Principal.HasRole(identity.RoleService) {
		t.Error("service role missing")
	}
}

func TestTokenExpiry(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC))
	srv := NewServer(newIDM(t), Config{Clock: sim})
	tok, err := srv.GrantPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Introspect(tok.Value); err != nil {
		t.Fatalf("fresh token rejected: %v", err)
	}
	sim.Advance(tokenTTL - time.Minute)
	if _, err := srv.Introspect(tok.Value); err != nil {
		t.Fatalf("token rejected before its TTL: %v", err)
	}
	sim.Advance(2 * time.Minute)
	if _, err := srv.Introspect(tok.Value); !errors.Is(err, ErrExpired) {
		t.Errorf("expired token: %v", err)
	}
}

func TestRevoke(t *testing.T) {
	srv := NewServer(newIDM(t), Config{})
	tok, _ := srv.GrantPassword("alice", "pw")
	if err := srv.Revoke(tok.Value); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Introspect(tok.Value); !errors.Is(err, ErrRevoked) {
		t.Errorf("revoked token: %v", err)
	}
	if err := srv.Revoke("nonexistent"); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("revoke unknown: %v", err)
	}
}

func TestRevokePrincipal(t *testing.T) {
	srv := NewServer(newIDM(t), Config{})
	t1, _ := srv.GrantPassword("alice", "pw")
	t2, _ := srv.GrantPassword("alice", "pw")
	t3, _ := srv.GrantClientCredentials("svc-irrigation", "svc-secret")
	if n := srv.RevokePrincipal("alice"); n != 2 {
		t.Errorf("revoked %d tokens, want 2", n)
	}
	for _, tok := range []Token{t1, t2} {
		if _, err := srv.Introspect(tok.Value); !errors.Is(err, ErrRevoked) {
			t.Errorf("alice token still valid: %v", err)
		}
	}
	if _, err := srv.Introspect(t3.Value); err != nil {
		t.Errorf("unrelated token revoked: %v", err)
	}
}

func TestPurgeExpired(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	srv := NewServer(newIDM(t), Config{Clock: sim})
	srv.GrantPassword("alice", "pw")
	tok2, _ := srv.GrantPassword("alice", "pw")
	srv.Revoke(tok2.Value)
	sim.Advance(tokenTTL + time.Minute)
	srv.GrantPassword("alice", "pw") // fresh
	if n := srv.PurgeExpired(); n != 2 {
		t.Errorf("purged %d, want 2", n)
	}
	if srv.LiveTokens() != 1 {
		t.Errorf("live = %d, want 1", srv.LiveTokens())
	}
}

func TestIntrospectUnknown(t *testing.T) {
	srv := NewServer(newIDM(t), Config{})
	if _, err := srv.Introspect("deadbeef"); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("unknown token: %v", err)
	}
}

func TestTokensAreUnique(t *testing.T) {
	srv := NewServer(newIDM(t), Config{})
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		tok, err := srv.GrantPassword("alice", "pw")
		if err != nil {
			t.Fatal(err)
		}
		if seen[tok.Value] {
			t.Fatal("duplicate token value issued")
		}
		seen[tok.Value] = true
	}
}
