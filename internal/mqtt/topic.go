package mqtt

import (
	"fmt"
	"strings"
	"sync"
)

// ValidateTopicName checks a concrete topic (no wildcards) used in PUBLISH.
func ValidateTopicName(topic string) error {
	if topic == "" {
		return fmt.Errorf("mqtt: empty topic")
	}
	if strings.ContainsAny(topic, "+#") {
		return fmt.Errorf("mqtt: wildcard in topic name %q", topic)
	}
	if strings.ContainsRune(topic, 0) {
		return fmt.Errorf("mqtt: NUL in topic name")
	}
	return nil
}

// ValidateTopicFilter checks a subscription filter, allowing '+' and a
// trailing '#' per the 3.1.1 rules.
func ValidateTopicFilter(filter string) error {
	if filter == "" {
		return fmt.Errorf("mqtt: empty topic filter")
	}
	if strings.ContainsRune(filter, 0) {
		return fmt.Errorf("mqtt: NUL in topic filter")
	}
	levels := strings.Split(filter, "/")
	for i, lv := range levels {
		switch {
		case lv == "#":
			if i != len(levels)-1 {
				return fmt.Errorf("mqtt: '#' not at end of filter %q", filter)
			}
		case lv == "+":
			// single-level wildcard is fine anywhere
		case strings.ContainsAny(lv, "+#"):
			return fmt.Errorf("mqtt: wildcard mixed into level %q of filter %q", lv, filter)
		}
	}
	return nil
}

// MatchTopic reports whether the concrete topic matches the filter under
// MQTT 3.1.1 wildcard semantics. Topics beginning with '$' are not matched
// by wildcard-leading filters (the $SYS rule).
func MatchTopic(filter, topic string) bool {
	if filter == topic {
		return true
	}
	fl := strings.Split(filter, "/")
	tl := strings.Split(topic, "/")
	// $-prefixed topics must not match filters starting with a wildcard.
	if len(tl) > 0 && strings.HasPrefix(tl[0], "$") && (fl[0] == "+" || fl[0] == "#") {
		return false
	}
	for i, f := range fl {
		if f == "#" {
			return true
		}
		if i >= len(tl) {
			return false
		}
		if f != "+" && f != tl[i] {
			return false
		}
	}
	return len(fl) == len(tl)
}

// subTree is an immutable trie over topic levels used by the broker to find
// matching subscribers without taking a lock. Published trees are never
// mutated: the with*/without* constructors clone only the nodes along the
// touched path and share every other subtree, so the broker can swap whole
// trees through an atomic.Pointer while route() keeps reading the old one.
type subTree struct {
	children map[string]*subTree
	subs     map[string]byte // client id -> granted QoS
}

func newSubTree() *subTree { return &subTree{} }

func cloneSubs(src map[string]byte) map[string]byte {
	dst := make(map[string]byte, len(src)+1)
	for id, q := range src {
		dst[id] = q
	}
	return dst
}

func cloneChildren(src map[string]*subTree) map[string]*subTree {
	dst := make(map[string]*subTree, len(src)+1)
	for lv, c := range src {
		dst[lv] = c
	}
	return dst
}

// withSub returns a tree in which clientID is subscribed to filter at qos
// (replacing any previous QoS). The receiver is not modified.
func (t *subTree) withSub(filter, clientID string, qos byte) *subTree {
	return t.cowAdd(strings.Split(filter, "/"), clientID, qos)
}

func (t *subTree) cowAdd(levels []string, id string, qos byte) *subTree {
	if len(levels) == 0 {
		ns := cloneSubs(t.subs)
		ns[id] = qos
		return &subTree{children: t.children, subs: ns}
	}
	child := t.children[levels[0]]
	if child == nil {
		child = newSubTree()
	}
	nc := cloneChildren(t.children)
	nc[levels[0]] = child.cowAdd(levels[1:], id, qos)
	return &subTree{children: nc, subs: t.subs}
}

// withoutSub returns a tree in which clientID's subscription under filter is
// removed, and reports whether a subscription was actually removed. Emptied
// branches are pruned. The receiver is not modified.
func (t *subTree) withoutSub(filter, clientID string) (*subTree, bool) {
	nt, removed := t.cowRemove(strings.Split(filter, "/"), clientID)
	if nt == nil {
		nt = newSubTree()
	}
	return nt, removed
}

// cowRemove returns nil for a node that became empty (pruned by the caller).
func (t *subTree) cowRemove(levels []string, id string) (*subTree, bool) {
	if len(levels) == 0 {
		if _, ok := t.subs[id]; !ok {
			return t, false
		}
		ns := cloneSubs(t.subs)
		delete(ns, id)
		if len(ns) == 0 && len(t.children) == 0 {
			return nil, true
		}
		return &subTree{children: t.children, subs: ns}, true
	}
	child := t.children[levels[0]]
	if child == nil {
		return t, false
	}
	nchild, removed := child.cowRemove(levels[1:], id)
	if !removed {
		return t, false
	}
	nc := cloneChildren(t.children)
	if nchild == nil {
		delete(nc, levels[0])
	} else {
		nc[levels[0]] = nchild
	}
	if len(nc) == 0 && len(t.subs) == 0 {
		return nil, true
	}
	return &subTree{children: nc, subs: t.subs}, true
}

// withoutClient returns a tree with every subscription of clientID removed
// anywhere in it, and reports whether anything was removed. The receiver is
// not modified.
func (t *subTree) withoutClient(clientID string) (*subTree, bool) {
	nt, changed := t.cowRemoveClient(clientID)
	if nt == nil {
		nt = newSubTree()
	}
	return nt, changed
}

func (t *subTree) cowRemoveClient(id string) (*subTree, bool) {
	subs := t.subs
	changed := false
	if _, ok := subs[id]; ok {
		subs = cloneSubs(t.subs)
		delete(subs, id)
		changed = true
	}
	children := t.children
	childrenCloned := false
	for lv, child := range t.children {
		nchild, chChanged := child.cowRemoveClient(id)
		if !chChanged {
			continue
		}
		if !childrenCloned {
			children = cloneChildren(t.children)
			childrenCloned = true
		}
		changed = true
		if nchild == nil {
			delete(children, lv)
		} else {
			children[lv] = nchild
		}
	}
	if !changed {
		return t, false
	}
	if len(subs) == 0 && len(children) == 0 {
		return nil, true
	}
	return &subTree{children: children, subs: subs}, true
}

// subMatch is one matched subscription: a client id and its granted QoS.
type subMatch struct {
	id  string
	qos byte
}

// matchScratch is a pooled buffer for matchInto results, so the steady-state
// match path allocates nothing.
type matchScratch struct {
	buf []subMatch
}

var matchScratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

// matchInto appends every (clientID, qos) subscription matching topic to out
// and returns it, plus the number of trie nodes that contributed matches.
// A client subscribed via several overlapping filters appears once per
// matching filter; callers that need one entry per client at the highest
// QoS dedup with dedupMatches when more than one node contributed (a single
// node's subscriber map already holds unique client ids).
//
// The walk is index-based: topic levels are taken as substrings of the
// original string, so matching splits no strings and allocates nothing
// beyond out's growth.
func (t *subTree) matchInto(topic string, out []subMatch) ([]subMatch, int) {
	nodes := 0
	dollar := len(topic) > 0 && topic[0] == '$'
	out = t.walk(topic, true, dollar, out, &nodes)
	return out, nodes
}

func (t *subTree) walk(rest string, first, dollar bool, out []subMatch, nodes *int) []subMatch {
	level := rest
	next := ""
	more := false
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		level, next, more = rest[:i], rest[i+1:], true
	}
	if child := t.children[level]; child != nil {
		if more {
			out = child.walk(next, false, dollar, out, nodes)
		} else {
			out = child.terminal(out, nodes)
		}
	}
	// Wildcards never match the first level of $-topics.
	if dollar && first {
		return out
	}
	if child := t.children["+"]; child != nil {
		if more {
			out = child.walk(next, false, dollar, out, nodes)
		} else {
			out = child.terminal(out, nodes)
		}
	}
	if child := t.children["#"]; child != nil {
		out = child.appendSubs(out, nodes)
	}
	return out
}

// terminal collects a node reached by the topic's last level: its own
// subscribers plus a '#' child ("sport/#" matches "sport" too).
func (t *subTree) terminal(out []subMatch, nodes *int) []subMatch {
	out = t.appendSubs(out, nodes)
	if h := t.children["#"]; h != nil {
		out = h.appendSubs(out, nodes)
	}
	return out
}

func (t *subTree) appendSubs(out []subMatch, nodes *int) []subMatch {
	if len(t.subs) == 0 {
		return out
	}
	*nodes++
	for id, q := range t.subs {
		out = append(out, subMatch{id: id, qos: q})
	}
	return out
}

// dedupMatches collapses duplicate client ids in ms, keeping the highest
// QoS, and returns the shortened slice. Order is not preserved for
// duplicates. Quadratic in the unique-client count, which only matters on
// the rare multi-node (overlapping filter) path; large fan-outs from a
// single filter never get here.
func dedupMatches(ms []subMatch) []subMatch {
	if len(ms) < 2 {
		return ms
	}
	w := 0
outer:
	for i := 0; i < len(ms); i++ {
		for j := 0; j < w; j++ {
			if ms[j].id == ms[i].id {
				if ms[i].qos > ms[j].qos {
					ms[j].qos = ms[i].qos
				}
				continue outer
			}
		}
		ms[w] = ms[i]
		w++
	}
	return ms[:w]
}
