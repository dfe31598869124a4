// Package cluster is the SWAMP scale-out plane: consistent-hash
// partitioning of entities and series across nodes, WAL-shipped
// replication (followers bootstrap from a snapshot transfer, then tail
// the leader's live segments — the crash-recovery path applied remotely),
// and leader promotion with epoch fencing so a deposed leader's late
// acks are rejected.
//
// A Node wraps one platform's durable stores (broker + time-series store
// + WAL). Partition ownership lives in a Map: partition → (leader,
// followers, epoch). Leaders stream committed records to followers over
// a Conn transport (in-process pipe or TCP) and, with MinISR >
// 0, acknowledge a write only after enough followers covering its
// partition have acked the write's log position — that synchronous hop
// is what makes "zero acked-write loss across a leader kill" hold. The
// Router on top gives the northbound a cluster-wide surface: writes
// route to the owning leader, queries scatter-gather across partitions
// and merge with ordering/limit/count preserved (DESIGN.md §10).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/shardhash"
)

// Errors of the write path. Each satisfies errors.Is(err,
// ngsi.ErrUnavailable): the write may be retried against the (possibly
// re-elected) owner.
var (
	// ErrNotLeader rejects a write routed to a node that does not lead
	// the key's partition (per the node's view of the Map).
	ErrNotLeader = unavailablef("cluster: not the partition leader")
	// ErrFenced rejects a write on a partition for which this node has
	// observed a higher epoch: it has been deposed, and acknowledging —
	// even if a late follower ack arrives — would hand the client a
	// durability promise the new leader never made.
	ErrFenced = unavailablef("cluster: partition fenced by a higher epoch")
	// ErrAckTimeout reports that not enough in-sync followers acked the
	// write's position in time. The write is locally durable but was
	// NOT acknowledged; the caller must treat it as failed.
	ErrAckTimeout = unavailablef("cluster: replication ack timeout")
)

// kindError is an error with its own text that satisfies errors.Is
// against one ngsi sentinel, its kind (none when nil).
type kindError struct {
	msg  string
	kind error
}

func (e *kindError) Error() string { return e.msg }
func (e *kindError) Unwrap() error { return e.kind }

// unavailablef builds a failure the client should retry: it satisfies
// errors.Is(err, ngsi.ErrUnavailable).
func unavailablef(format string, args ...any) error {
	return &kindError{msg: fmt.Sprintf(format, args...), kind: ngsi.ErrUnavailable}
}

// Topology is the static cluster layout: every node id plus the
// partition and replication counts. All nodes must agree on it (it is
// config in multi-process deployments); the derived Map is then
// identical everywhere because assignment is deterministic.
type Topology struct {
	// Partitions is the consistent-hash partition count. Fixed for the
	// lifetime of the cluster.
	Partitions int
	// Replicas is how many nodes hold each partition (leader included).
	Replicas int
	// Nodes lists every node id. Order does not matter; assignment
	// sorts them.
	Nodes []string
}

// PartitionInfo is one partition's ownership: its current leader, the
// follower set, and the fencing epoch (bumped on every promotion).
type PartitionInfo struct {
	Leader    string
	Followers []string
	Epoch     uint64
}

// Map is the partition-ownership table. In-process clusters share one
// Map (the harness's stand-in for an external control plane); multi-
// process deployments derive identical Maps from static config, and
// promotion is an operator action. All methods are safe for concurrent
// use.
type Map struct {
	mu      sync.RWMutex
	nodes   []string
	parts   []PartitionInfo
	version uint64
}

// NewMap derives the partition assignment from a topology: partitions
// round-robin over the sorted node list, each one's replicas on the
// consecutive nodes after its leader. Deterministic, so every process
// that agrees on the Topology agrees on the Map.
func NewMap(t Topology) (*Map, error) {
	if t.Partitions < 1 {
		return nil, fmt.Errorf("cluster: partitions must be >= 1, got %d", t.Partitions)
	}
	if t.Replicas < 1 {
		return nil, fmt.Errorf("cluster: replicas must be >= 1, got %d", t.Replicas)
	}
	if len(t.Nodes) == 0 {
		return nil, errors.New("cluster: topology has no nodes")
	}
	nodes := append([]string(nil), t.Nodes...)
	sort.Strings(nodes)
	for i := 1; i < len(nodes); i++ {
		if nodes[i] == nodes[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", nodes[i])
		}
	}
	if t.Replicas > len(nodes) {
		return nil, fmt.Errorf("cluster: %d replicas but only %d nodes", t.Replicas, len(nodes))
	}
	m := &Map{nodes: nodes, parts: make([]PartitionInfo, t.Partitions), version: 1}
	for p := range m.parts {
		info := PartitionInfo{Leader: nodes[p%len(nodes)], Epoch: 1}
		for j := 1; j < t.Replicas; j++ {
			info.Followers = append(info.Followers, nodes[(p+j)%len(nodes)])
		}
		m.parts[p] = info
	}
	return m, nil
}

// Nodes returns the sorted node ids.
func (m *Map) Nodes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.nodes...)
}

// Partitions returns the partition count.
func (m *Map) Partitions() int { return len(m.parts) }

// PartitionOf hashes a key (entity id or series device) to its
// partition.
func (m *Map) PartitionOf(key string) int {
	return shardhash.Index(len(m.parts), key)
}

// Version increments on every mutation; pollers use it to notice
// promotions cheaply.
func (m *Map) Version() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version
}

// Info returns a copy of one partition's ownership.
func (m *Map) Info(p int) PartitionInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	info := m.parts[p]
	info.Followers = append([]string(nil), info.Followers...)
	return info
}

// Leader returns a partition's leader and epoch.
func (m *Map) Leader(p int) (string, uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.parts[p].Leader, m.parts[p].Epoch
}

// Epoch returns a partition's fencing epoch.
func (m *Map) Epoch(p int) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.parts[p].Epoch
}

// LedBy returns the sorted partitions the node currently leads.
func (m *Map) LedBy(node string) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []int
	for p := range m.parts {
		if m.parts[p].Leader == node {
			out = append(out, p)
		}
	}
	return out
}

// FollowedBy returns, per leader id, the sorted partitions the node
// follows under that leader. This is the follower manager's work list:
// one replication session per (leader, this node) pair.
func (m *Map) FollowedBy(node string) map[string][]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string][]int)
	for p := range m.parts {
		for _, f := range m.parts[p].Followers {
			if f == node {
				out[m.parts[p].Leader] = append(out[m.parts[p].Leader], p)
			}
		}
	}
	return out
}

// Promote makes newLeader the partition's leader and bumps the epoch —
// the fencing term. The old leader joins the follower set (it may be
// dead; a dead follower is just a session that never connects), the new
// leader leaves it, and any replacements are added so the replica count
// survives losing a node. Promote does not check that newLeader was the
// most caught-up follower; the caller (harness or operator) chooses.
func (m *Map) Promote(p int, newLeader string, replacements ...string) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	info := &m.parts[p]
	if info.Leader == newLeader {
		return info.Epoch, nil
	}
	known := false
	for _, n := range m.nodes {
		if n == newLeader {
			known = true
			break
		}
	}
	if !known {
		return 0, fmt.Errorf("cluster: promote: unknown node %q", newLeader)
	}
	set := map[string]bool{info.Leader: true}
	for _, f := range info.Followers {
		set[f] = true
	}
	for _, r := range replacements {
		set[r] = true
	}
	delete(set, newLeader)
	followers := make([]string, 0, len(set))
	for f := range set {
		followers = append(followers, f)
	}
	sort.Strings(followers)
	info.Leader = newLeader
	info.Followers = followers
	info.Epoch++
	m.version++
	return info.Epoch, nil
}

// ReplaceFollower swaps one follower for another without a leadership
// change — the repair move for a partition whose LEADER survived a node
// loss but whose follower set did not. No epoch bump: leadership is
// unchanged, so no fencing is needed; the version bump alone makes the
// follower managers reconcile. Replacing a follower with the current
// leader or an unknown node is rejected.
func (m *Map) ReplaceFollower(p int, old, repl string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	info := &m.parts[p]
	if repl == info.Leader {
		return fmt.Errorf("cluster: replace: %q already leads partition %d", repl, p)
	}
	known := false
	for _, n := range m.nodes {
		if n == repl {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("cluster: replace: unknown node %q", repl)
	}
	for _, f := range info.Followers {
		if f == repl {
			return fmt.Errorf("cluster: replace: %q already follows partition %d", repl, p)
		}
	}
	for i, f := range info.Followers {
		if f == old {
			info.Followers[i] = repl
			sort.Strings(info.Followers)
			m.version++
			return nil
		}
	}
	return fmt.Errorf("cluster: replace: %q does not follow partition %d", old, p)
}

// Bump adopts an observed higher epoch for a partition (fencing
// feedback: some peer has seen a promotion this Map hasn't). The local
// leader entry is left alone — the node only knows it is deposed, not
// who won — so Leader() consumers must treat a bumped epoch with an
// unchanged leader as "unknown"; the write path does, via ErrFenced.
func (m *Map) Bump(p int, epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch > m.parts[p].Epoch {
		m.parts[p].Epoch = epoch
		m.version++
	}
}

// ParsePeers parses the swampd -cluster-peers syntax:
// "id=host:port,id2=host2:port2". Whitespace around entries is ignored.
func ParsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=host:port)", part)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		out[id] = addr
	}
	return out, nil
}
