// Package oauth implements the OAuth 2.0 subset the SWAMP paper mandates
// for platform access ("the access to the platform must be allowed only for
// identified and authorized users, using FIWARE security generic enablers
// and the OAuth 2.0 protocol"): resource-owner-password and
// client-credentials grants, opaque bearer tokens, introspection,
// revocation and expiry.
//
// Introspect sits on every authenticated request, so the token store is
// built for lock-free reads: tokens live in a sync.Map (issue-once,
// read-mostly — exactly its sweet spot) and revocation is an atomic flag
// on the record, so neither a grant burst nor a revocation sweep stalls
// the read path. Expired and revoked records are reclaimed by
// PurgeExpired, either called directly or from the StartPurge loop the
// platform drives on its clock.
package oauth

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/security/identity"
)

// Errors returned by the server.
var (
	ErrInvalidToken = errors.New("oauth: invalid token")
	ErrExpired      = errors.New("oauth: token expired")
	ErrRevoked      = errors.New("oauth: token revoked")
)

// Token is an issued bearer token.
type Token struct {
	Value     string
	Principal identity.Principal
	Scopes    []string
	IssuedAt  time.Time
	ExpiresAt time.Time
}

// HasScope reports whether the token carries scope (an empty scope list
// grants nothing beyond introspection).
func (t Token) HasScope(scope string) bool {
	for _, s := range t.Scopes {
		if s == scope {
			return true
		}
	}
	return false
}

// tokenTTL is the lifetime of an issued token.
const tokenTTL = time.Hour

// Config tunes the token server.
type Config struct {
	// Clock drives expiry; nil means the wall clock.
	Clock clock.Clock
}

// Server issues and validates tokens against an identity store.
type Server struct {
	idm *identity.Store
	clk clock.Clock

	tokens sync.Map // token value -> *tokenRecord
	live   atomic.Int64

	purgeOnce sync.Once
	purgeDone chan struct{}
	purgeWG   sync.WaitGroup
}

type tokenRecord struct {
	token   Token
	revoked atomic.Bool
}

// NewServer constructs a token server over idm.
func NewServer(idm *identity.Store, cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	return &Server{idm: idm, clk: cfg.Clock, purgeDone: make(chan struct{})}
}

// GrantPassword implements the resource-owner-password grant: it
// authenticates (id, secret) against the identity store and issues a token.
func (s *Server) GrantPassword(id, secret string, scopes ...string) (Token, error) {
	p, err := s.idm.Authenticate(id, secret)
	if err != nil {
		return Token{}, fmt.Errorf("oauth: password grant: %w", err)
	}
	return s.issue(p, scopes)
}

// GrantClientCredentials implements the client-credentials grant for
// service accounts and devices. The mechanics equal the password grant; the
// distinction is kept because audit trails record the grant type.
func (s *Server) GrantClientCredentials(clientID, clientSecret string, scopes ...string) (Token, error) {
	p, err := s.idm.Authenticate(clientID, clientSecret)
	if err != nil {
		return Token{}, fmt.Errorf("oauth: client-credentials grant: %w", err)
	}
	return s.issue(p, scopes)
}

func (s *Server) issue(p identity.Principal, scopes []string) (Token, error) {
	raw := make([]byte, 24)
	if _, err := rand.Read(raw); err != nil {
		return Token{}, fmt.Errorf("oauth: token entropy: %w", err)
	}
	now := s.clk.Now()
	tok := Token{
		Value:     hex.EncodeToString(raw),
		Principal: p,
		Scopes:    append([]string(nil), scopes...),
		IssuedAt:  now,
		ExpiresAt: now.Add(tokenTTL),
	}
	s.tokens.Store(tok.Value, &tokenRecord{token: tok})
	s.live.Add(1)
	return tok, nil
}

// Introspect validates a bearer token value and returns the token. It is
// lock-free: one sync.Map read plus an atomic revocation check, so the
// hot authenticated path never contends with grants or revocations.
func (s *Server) Introspect(value string) (Token, error) {
	v, ok := s.tokens.Load(value)
	if !ok {
		return Token{}, ErrInvalidToken
	}
	rec := v.(*tokenRecord)
	if rec.revoked.Load() {
		return Token{}, ErrRevoked
	}
	if s.clk.Now().After(rec.token.ExpiresAt) {
		return Token{}, ErrExpired
	}
	return rec.token, nil
}

// Revoke invalidates a token immediately.
func (s *Server) Revoke(value string) error {
	v, ok := s.tokens.Load(value)
	if !ok {
		return ErrInvalidToken
	}
	v.(*tokenRecord).revoked.Store(true)
	return nil
}

// RevokePrincipal invalidates every live token of a principal — the
// response to a compromised device (§III actuator takeover).
func (s *Server) RevokePrincipal(principalID string) int {
	n := 0
	s.tokens.Range(func(_, v any) bool {
		rec := v.(*tokenRecord)
		if rec.token.Principal.ID == principalID && rec.revoked.CompareAndSwap(false, true) {
			n++
		}
		return true
	})
	return n
}

// PurgeExpired drops expired and revoked tokens, returning how many were
// removed. The StartPurge loop calls it periodically; it is also safe to
// call directly, concurrently with everything else.
func (s *Server) PurgeExpired() int {
	now := s.clk.Now()
	n := 0
	s.tokens.Range(func(k, v any) bool {
		rec := v.(*tokenRecord)
		if rec.revoked.Load() || now.After(rec.token.ExpiresAt) {
			// LoadAndDelete keeps the live count exact when two purge
			// passes race over the same record.
			if _, loaded := s.tokens.LoadAndDelete(k); loaded {
				s.live.Add(-1)
				n++
			}
		}
		return true
	})
	return n
}

// LiveTokens returns the number of stored (not yet purged) tokens.
func (s *Server) LiveTokens() int { return int(s.live.Load()) }

// StartPurge reclaims expired and revoked tokens every interval on the
// server's clock until Close. With a Sim clock, tests drive the loop via
// Advance.
func (s *Server) StartPurge(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.purgeWG.Add(1)
	go func() {
		defer s.purgeWG.Done()
		for {
			select {
			case <-s.purgeDone:
				return
			case <-s.clk.After(interval):
				s.PurgeExpired()
			}
		}
	}()
}

// Close stops the purge loop (if any). The server remains usable for
// issuing and validating tokens; only the background reclamation stops.
func (s *Server) Close() {
	s.purgeOnce.Do(func() { close(s.purgeDone) })
	s.purgeWG.Wait()
}
