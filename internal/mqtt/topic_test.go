package mqtt

import (
	"fmt"
	"testing"
)

// match collects (clientID, qos) pairs whose filters match topic, one entry
// per client at the highest granted QoS: the allocating map view of matchInto
// the trie tests compare against.
func (t *subTree) match(topic string) map[string]byte {
	ms, _ := t.matchInto(topic, nil)
	out := make(map[string]byte, len(ms))
	for _, m := range ms {
		if cur, ok := out[m.id]; !ok || m.qos > cur {
			out[m.id] = m.qos
		}
	}
	return out
}

func TestMatchTopic(t *testing.T) {
	tests := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b/d", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"a/+/+", "a/b/c", true},
		{"+/+/+", "a/b/c", true},
		{"+/+", "a/b/c", false},
		{"a/#", "a/b/c", true},
		{"a/#", "a", true},
		{"#", "a/b/c", true},
		{"#", "$SYS/stats", false},
		{"+/stats", "$SYS/stats", false},
		{"$SYS/#", "$SYS/stats", true},
		{"a/b", "a/b/c", false},
		{"a/b/c", "a/b", false},
		{"swamp/+/soil/+", "swamp/farm1/soil/probe2", true},
		{"swamp/farm1/#", "swamp/farm1/soil/probe2", true},
		{"swamp/farm2/#", "swamp/farm1/soil/probe2", false},
		{"+", "a", true},
		{"+", "a/b", false},
	}
	for _, tc := range tests {
		if got := MatchTopic(tc.filter, tc.topic); got != tc.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", tc.filter, tc.topic, got, tc.want)
		}
	}
}

func TestValidateTopicFilter(t *testing.T) {
	valid := []string{"a", "a/b", "+", "#", "a/+/b", "a/b/#", "+/+/#", "$SYS/#"}
	for _, f := range valid {
		if err := ValidateTopicFilter(f); err != nil {
			t.Errorf("ValidateTopicFilter(%q) = %v, want nil", f, err)
		}
	}
	invalid := []string{"", "a/#/b", "a+/b", "#/a", "a#", "+a"}
	for _, f := range invalid {
		if err := ValidateTopicFilter(f); err == nil {
			t.Errorf("ValidateTopicFilter(%q) = nil, want error", f)
		}
	}
}

func TestValidateTopicName(t *testing.T) {
	if err := ValidateTopicName("swamp/farm/soil"); err != nil {
		t.Errorf("valid topic rejected: %v", err)
	}
	for _, name := range []string{"", "a/+/b", "a/#", "x\x00y"} {
		if err := ValidateTopicName(name); err == nil {
			t.Errorf("ValidateTopicName(%q) = nil, want error", name)
		}
	}
}

func TestSubTreeAddMatchRemove(t *testing.T) {
	tr := newSubTree()
	tr = tr.withSub("a/+/c", "c1", 1)
	tr = tr.withSub("a/#", "c2", 0)
	tr = tr.withSub("a/b/c", "c3", 1)
	tr = tr.withSub("a/b/c", "c1", 0) // c1 twice via overlapping filters

	m := tr.match("a/b/c")
	if len(m) != 3 {
		t.Fatalf("match: got %d subscribers (%v), want 3", len(m), m)
	}
	if m["c1"] != 1 {
		t.Errorf("c1 should keep highest QoS 1, got %d", m["c1"])
	}
	if m["c2"] != 0 || m["c3"] != 1 {
		t.Errorf("unexpected QoS map: %v", m)
	}

	var removed bool
	tr, removed = tr.withoutSub("a/+/c", "c1")
	if !removed {
		t.Error("remove existing subscription returned false")
	}
	tr, removed = tr.withoutSub("a/+/c", "c1")
	if removed {
		t.Error("double remove returned true")
	}
	m = tr.match("a/b/c")
	if m["c1"] != 0 {
		t.Errorf("after removing a/+/c, c1 QoS should come from a/b/c (0), got %d", m["c1"])
	}

	tr, _ = tr.withoutClient("c2")
	m = tr.match("a/zzz")
	if _, ok := m["c2"]; ok {
		t.Error("c2 still matched after withoutClient")
	}
}

// TestSubTreeCopyOnWrite pins the COW contract route() relies on: a
// published tree is never mutated by later subscription changes.
func TestSubTreeCopyOnWrite(t *testing.T) {
	old := newSubTree().withSub("a/b", "c1", 1)
	newer := old.withSub("a/b", "c2", 0)
	newer, _ = newer.withoutSub("a/b", "c1")

	if m := old.match("a/b"); len(m) != 1 || m["c1"] != 1 {
		t.Errorf("old tree changed under mutation: %v", m)
	}
	if m := newer.match("a/b"); len(m) != 1 || m["c2"] != 0 {
		t.Errorf("new tree wrong: %v", m)
	}
}

func TestSubTreeHashAtParentLevel(t *testing.T) {
	tr := newSubTree().withSub("sport/#", "c1", 0)
	if m := tr.match("sport"); len(m) != 1 {
		t.Errorf("'sport/#' should match 'sport' itself, got %v", m)
	}
}

func TestSubTreePruning(t *testing.T) {
	tr := newSubTree()
	for i := 0; i < 50; i++ {
		tr = tr.withSub(fmt.Sprintf("deep/%d/leaf", i), "c", 0)
	}
	for i := 0; i < 50; i++ {
		tr, _ = tr.withoutSub(fmt.Sprintf("deep/%d/leaf", i), "c")
	}
	if len(tr.children) != 0 {
		t.Errorf("tree not pruned: %d root children remain", len(tr.children))
	}
}
