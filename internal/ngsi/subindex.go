package ngsi

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// patternShape classifies a subscription's EntityIDPattern so the index can
// bucket it. The shape is computed once at Subscribe time; the index and
// every shard's update path only read it afterwards.
type patternShape int

const (
	shapeExact  patternShape = iota // literal entity id
	shapePrefix                     // "urn:farm:*"
	shapeWild                       // "" or "*"
)

// subState is one registered subscription plus its throttling memory. The
// throttle map is touched from every shard's update path, so it carries its
// own lock instead of relying on a broker-wide one.
type subState struct {
	sub   Subscription
	shape patternShape
	pfx   string // pattern prefix, pre-trimmed ("urn:x:*" → "urn:x:")

	// failed is the delivery-health flag behind SubStatus. It is written
	// by webhook delivery workers and read by API snapshots, so it is
	// atomic rather than guarded by mu.
	failed atomic.Bool

	mu           sync.Mutex
	lastNotified map[string]time.Time // per entity id
}

func (st *subState) status() SubStatus {
	if st.failed.Load() {
		return SubFailed
	}
	return SubActive
}

func (st *subState) setStatus(s SubStatus) { st.failed.Store(s == SubFailed) }

func newSubState(sub Subscription) *subState {
	st := &subState{sub: sub, lastNotified: make(map[string]time.Time)}
	switch p := sub.EntityIDPattern; {
	case p == "" || p == "*":
		st.shape = shapeWild
	case strings.HasSuffix(p, "*"):
		st.shape = shapePrefix
		st.pfx = strings.TrimSuffix(p, "*")
	default:
		st.shape = shapeExact
	}
	return st
}

// matchesType reports whether the subscription's (optional) type
// restriction admits typ.
func (st *subState) matchesType(typ string) bool {
	return st.sub.EntityType == "" || st.sub.EntityType == typ
}

// subIndex buckets subscriptions by pattern shape so an update only touches
// the subscriptions that can possibly match, instead of scanning all of
// them:
//
//   - exact:      pattern is a literal entity id → map lookup, O(1)
//   - prefix:     pattern ends in '*' ("urn:farm:*") → scan of prefix subs
//     only (typically a handful of per-farm views)
//   - wildByType: pattern is ""/"*" with an EntityType restriction → map
//     lookup by type
//   - wild:       pattern is ""/"*" with no type → always notified
//
// An index is immutable once published: Subscribe/Unsubscribe rebuild a
// fresh index from the subscription set and atomically swap it in, so shard
// update paths read it without any lock.
type subIndex struct {
	exact      map[string][]*subState
	prefix     []*subState
	wildByType map[string][]*subState
	wild       []*subState
}

func newSubIndex() *subIndex {
	return &subIndex{
		exact:      make(map[string][]*subState),
		wildByType: make(map[string][]*subState),
	}
}

func (ix *subIndex) add(st *subState) {
	switch st.shape {
	case shapeWild:
		if st.sub.EntityType != "" {
			ix.wildByType[st.sub.EntityType] = append(ix.wildByType[st.sub.EntityType], st)
		} else {
			ix.wild = append(ix.wild, st)
		}
	case shapePrefix:
		ix.prefix = append(ix.prefix, st)
	default:
		ix.exact[st.sub.EntityIDPattern] = append(ix.exact[st.sub.EntityIDPattern], st)
	}
}

// collect appends to out every subscription whose pattern and type admit
// the entity (id, typ). Condition-attribute and throttling checks remain
// with the caller.
func (ix *subIndex) collect(id, typ string, out []*subState) []*subState {
	for _, st := range ix.exact[id] {
		if st.matchesType(typ) {
			out = append(out, st)
		}
	}
	for _, st := range ix.prefix {
		if strings.HasPrefix(id, st.pfx) && st.matchesType(typ) {
			out = append(out, st)
		}
	}
	out = append(out, ix.wildByType[typ]...)
	out = append(out, ix.wild...)
	return out
}
