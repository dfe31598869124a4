package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
	"github.com/swamp-project/swamp/internal/wal"
)

// --- harness: a minimal durable platform per node, clustered over pipes ---

// testPlat is the slice of a platform the cluster plane needs: broker +
// store + WAL with journals attached, and a snapshot hook — the same
// wiring core.OpenDurability does, minus subscriptions.
type testPlat struct {
	ctx   *ngsi.Broker
	store *timeseries.Store
	wm    *wal.Manager
	snaps atomic.Int64 // snapshot invocations, to tell resume from bootstrap
}

func openPlat(t *testing.T, dir string) *testPlat {
	t.Helper()
	p := &testPlat{
		ctx:   ngsi.NewBroker(ngsi.BrokerConfig{}),
		store: timeseries.New(),
	}
	m, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p.wm = m
	replay := &wal.Applier{Context: p.ctx, Store: p.store}
	if _, err := m.Recover(replay.Apply); err != nil {
		t.Fatal(err)
	}
	p.ctx.SetJournal(m.ContextJournal())
	p.store.SetJournal(m.TelemetryJournal())
	return p
}

func (p *testPlat) snapshot() error {
	p.snaps.Add(1)
	return p.wm.Snapshot(func(rotate func() error, sink func(wal.Record) error) error {
		return wal.DumpStores(p.ctx, p.store, rotate, sink)
	})
}

func (p *testPlat) close() { _ = p.wm.Close() }

// testCluster wires N nodes over in-process pipes, sharing one registry.
type testCluster struct {
	t     *testing.T
	m     *Map
	reg   *metrics.Registry
	mu    sync.Mutex
	nodes map[string]*testMember
}

type testMember struct {
	plat   *testPlat
	node   *Node
	router *Router
	alive  bool
}

type clusterOpts struct {
	partitions, replicas, minISR int
	ackTimeout                   time.Duration
}

func newTestCluster(t *testing.T, ids []string, dirs map[string]string, o clusterOpts) *testCluster {
	t.Helper()
	m, err := NewMap(Topology{Partitions: o.partitions, Replicas: o.replicas, Nodes: ids})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{t: t, m: m, reg: metrics.NewRegistry(), nodes: make(map[string]*testMember)}
	for _, id := range ids {
		tc.addNode(id, dirs[id], o)
	}
	return tc
}

func (tc *testCluster) addNode(id, dir string, o clusterOpts) *testMember {
	tc.t.Helper()
	plat := openPlat(tc.t, dir)
	node, err := NewNode(NodeConfig{
		ID:         id,
		Map:        tc.m,
		Context:    plat.ctx,
		Store:      plat.store,
		WAL:        plat.wm,
		Snapshot:   plat.snapshot,
		MinISR:     o.minISR,
		AckTimeout: o.ackTimeout,
		Dial:       func(peer string) (Conn, error) { return tc.dial(peer) },
		Metrics:    tc.reg,
		Logf:       func(format string, args ...any) { tc.t.Logf("[%s] "+format, append([]any{id}, args...)...) },
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	member := &testMember{plat: plat, node: node, router: NewRouter(node), alive: true}
	tc.mu.Lock()
	tc.nodes[id] = member
	tc.mu.Unlock()
	node.Start()
	return member
}

func (tc *testCluster) dial(peer string) (Conn, error) {
	tc.mu.Lock()
	member, ok := tc.nodes[peer]
	alive := ok && member.alive // written under mu by kill and stop
	tc.mu.Unlock()
	if !alive {
		return nil, fmt.Errorf("peer %s down", peer)
	}
	a, b := tcpPipe()
	go member.node.ServeConn(b)
	return a, nil
}

// tcpPipe connects two nodes in-process through the length-prefixed framing
// the TCP transport runs.
func tcpPipe() (Conn, Conn) {
	a, b := net.Pipe()
	return newTCPConn(a), newTCPConn(b)
}

// kill severs a member abruptly: future dials fail, its node is killed.
func (tc *testCluster) kill(id string) {
	tc.mu.Lock()
	member := tc.nodes[id]
	member.alive = false
	tc.mu.Unlock()
	member.node.Kill()
}

func (tc *testCluster) stop(id string) {
	tc.mu.Lock()
	member := tc.nodes[id]
	member.alive = false
	tc.mu.Unlock()
	member.node.Close()
	member.plat.close()
}

func (tc *testCluster) closeAll() {
	tc.mu.Lock()
	ids := make([]string, 0, len(tc.nodes))
	for id, m := range tc.nodes {
		if m.alive {
			ids = append(ids, id)
		}
	}
	tc.mu.Unlock()
	for _, id := range ids {
		tc.stop(id)
	}
}

func (tc *testCluster) member(id string) *testMember {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.nodes[id]
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func attrsOf(v float64) map[string]ngsi.Attribute {
	return map[string]ngsi.Attribute{"level": {Type: "Number", Value: v}}
}

// --- Map tests ---

func TestMapAssignmentDeterministic(t *testing.T) {
	m1, err := NewMap(Topology{Partitions: 16, Replicas: 2, Nodes: []string{"c", "a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMap(Topology{Partitions: 16, Replicas: 2, Nodes: []string{"b", "c", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 16; p++ {
		i1, i2 := m1.Info(p), m2.Info(p)
		if i1.Leader != i2.Leader || len(i1.Followers) != len(i2.Followers) {
			t.Fatalf("partition %d differs across node orderings: %+v vs %+v", p, i1, i2)
		}
		if i1.Leader == i1.Followers[0] {
			t.Fatalf("partition %d leader also a follower", p)
		}
	}
	// Each node leads a fair share.
	for _, n := range []string{"a", "b", "c"} {
		if led := len(m1.LedBy(n)); led < 4 || led > 6 {
			t.Fatalf("node %s leads %d of 16 partitions", n, led)
		}
	}
}

func TestMapPromoteAndBump(t *testing.T) {
	m, err := NewMap(Topology{Partitions: 4, Replicas: 2, Nodes: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	p := m.LedBy("a")[0]
	info := m.Info(p)
	follower := info.Followers[0]
	v := m.Version()
	epoch, err := m.Promote(p, follower, "c")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch after promote = %d, want 2", epoch)
	}
	if m.Version() == v {
		t.Fatal("version did not change on promote")
	}
	after := m.Info(p)
	if after.Leader != follower {
		t.Fatalf("leader = %s, want %s", after.Leader, follower)
	}
	found := false
	for _, f := range after.Followers {
		if f == "a" {
			found = true
		}
		if f == follower {
			t.Fatal("new leader still in follower set")
		}
	}
	if !found {
		t.Fatal("old leader not demoted to follower")
	}
	// Bump adopts only higher epochs.
	m.Bump(p, 1)
	if m.Epoch(p) != 2 {
		t.Fatal("Bump regressed the epoch")
	}
	m.Bump(p, 7)
	if m.Epoch(p) != 7 {
		t.Fatal("Bump did not adopt the higher epoch")
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=host1:9301, b = host2:9301 ,c=host3:9301")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers["b"] != "host2:9301" {
		t.Fatalf("peers = %v", peers)
	}
	for _, bad := range []string{"a", "=addr", "a=", "a=x,a=y"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}

// --- replication end to end ---

// TestReplicationSyncAck: with MinISR=1 a write returns only after the
// follower applied it, so the follower's stores are queryable the moment
// the leader acks.
func TestReplicationSyncAck(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 8, replicas: 2, minISR: 1, ackTimeout: 5 * time.Second})
	defer tc.closeAll()

	at := time.Now()
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("urn:dev:%03d", i)
		leader, _ := tc.m.Leader(tc.m.PartitionOf(id))
		owner := tc.member(leader)
		if err := owner.node.UpdateAttrs(id, "Device", attrsOf(float64(i))); err != nil {
			t.Fatalf("write %s via %s: %v", id, leader, err)
		}
		key := timeseries.SeriesKey{Device: id, Quantity: "moisture"}
		if _, _, err := owner.node.AppendBatch([]timeseries.BatchPoint{
			{Key: key, Point: timeseries.Point{At: at.Add(time.Duration(i) * time.Second), Value: float64(i)}},
		}); err != nil {
			t.Fatalf("append %s: %v", id, err)
		}
	}

	// Every write must now be present on BOTH nodes (leader + follower).
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("urn:dev:%03d", i)
		for _, nid := range ids {
			member := tc.member(nid)
			if _, err := member.plat.ctx.GetEntity(id); err != nil {
				t.Fatalf("entity %s missing on %s: %v", id, nid, err)
			}
			key := timeseries.SeriesKey{Device: id, Quantity: "moisture"}
			pt, ok := member.plat.store.Latest(key)
			if !ok || pt.Value != float64(i) {
				t.Fatalf("series %s on %s: ok=%v pt=%+v", id, nid, ok, pt)
			}
		}
	}

	// Deletes replicate too.
	victim := "urn:dev:000"
	leader, _ := tc.m.Leader(tc.m.PartitionOf(victim))
	if err := tc.member(leader).node.DeleteEntity(victim); err != nil {
		t.Fatal(err)
	}
	for _, nid := range ids {
		if _, err := tc.member(nid).plat.ctx.GetEntity(victim); !errors.Is(err, ngsi.ErrNotFound) {
			t.Fatalf("deleted entity still on %s (err=%v)", nid, err)
		}
	}
}

// TestReplicationSyncAckConcurrent: three nodes each lead partitions and
// take concurrent batched ingest from several writers. At MinISR=1 every
// acked point has been applied on a follower before its ack, so the
// followers' applied count covers the acked points, and position chaining
// never saw a gap (no resync).
func TestReplicationSyncAckConcurrent(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir(), "n3": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 9, replicas: 2, minISR: 1, ackTimeout: 5 * time.Second})
	defer tc.closeAll()

	const writers, emissions, batch = 4, 25, 16 // per node
	at := time.Now()
	var acked atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, len(ids)*writers)
	for _, nid := range ids {
		if len(tc.m.LedBy(nid)) == 0 {
			t.Fatalf("%s leads no partition", nid)
		}
		node := tc.member(nid).node
		// Each writer owns one device whose partition this node leads.
		devs := make([]string, 0, writers)
		for i := 0; len(devs) < writers; i++ {
			dev := fmt.Sprintf("urn:%s:dev:%04d", nid, i)
			if leader, _ := tc.m.Leader(tc.m.PartitionOf(dev)); leader == nid {
				devs = append(devs, dev)
			}
		}
		for _, dev := range devs {
			wg.Add(1)
			go func(dev string) {
				defer wg.Done()
				key := timeseries.SeriesKey{Device: dev, Quantity: "moisture"}
				for e := 0; e < emissions; e++ {
					pts := make([]timeseries.BatchPoint, batch)
					for i := range pts {
						seq := e*batch + i
						pts[i] = timeseries.BatchPoint{Key: key, Point: timeseries.Point{At: at.Add(time.Duration(seq) * time.Millisecond), Value: float64(seq)}}
					}
					if _, _, err := node.AppendBatch(pts); err != nil {
						errs <- fmt.Errorf("append %s: %w", dev, err)
						return
					}
					acked.Add(batch)
				}
			}(dev)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if want := int64(len(ids) * writers * emissions * batch); acked.Load() != want {
		t.Fatalf("acked %d points, want %d", acked.Load(), want)
	}
	if applied := tc.reg.Counter("cluster.records.applied").Value(); applied < uint64(acked.Load()) {
		t.Fatalf("followers applied %d of %d acked points", applied, acked.Load())
	}
	if resyncs := tc.reg.Counter("cluster.resyncs").Value(); resyncs != 0 {
		t.Fatalf("cluster.resyncs = %d, want 0", resyncs)
	}
}

// TestNotLeaderRejected: writes routed to a non-leader bounce with
// ErrNotLeader instead of applying locally.
func TestNotLeaderRejected(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 8, replicas: 2, minISR: 0})
	defer tc.closeAll()

	id := "urn:dev:001"
	leader, _ := tc.m.Leader(tc.m.PartitionOf(id))
	wrong := "n1"
	if leader == "n1" {
		wrong = "n2"
	}
	err := tc.member(wrong).node.UpdateAttrs(id, "Device", attrsOf(1))
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
	if _, err := tc.member(wrong).plat.ctx.GetEntity(id); !errors.Is(err, ngsi.ErrNotFound) {
		t.Fatal("rejected write leaked into the store")
	}
}

// TestAckTimeoutWhenFollowerDown: with MinISR=1 and no live follower the
// write stays locally durable but reports ErrAckTimeout.
func TestAckTimeoutWhenFollowerDown(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 4, replicas: 2, minISR: 1, ackTimeout: 200 * time.Millisecond})
	defer tc.closeAll()

	id := "urn:dev:042"
	leader, _ := tc.m.Leader(tc.m.PartitionOf(id))
	other := "n1"
	if leader == "n1" {
		other = "n2"
	}
	tc.kill(other)
	// Give the leader a moment to notice the dead sessions.
	time.Sleep(50 * time.Millisecond)
	err := tc.member(leader).node.UpdateAttrs(id, "Device", attrsOf(1))
	if !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("err = %v, want ErrAckTimeout", err)
	}
	// Locally durable regardless: the record is in the leader's WAL.
	if _, err := tc.member(leader).plat.ctx.GetEntity(id); err != nil {
		t.Fatal("write not applied locally")
	}
}

// TestPromotionZeroAckedLoss is the in-process drill: kill the leader
// mid-stream, promote a follower, and verify every acked write survived.
func TestPromotionZeroAckedLoss(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir(), "n3": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 9, replicas: 2, minISR: 1, ackTimeout: 5 * time.Second})
	defer tc.closeAll()

	victim := "n1"
	acked := make(map[string]float64)
	write := func(i int) {
		id := fmt.Sprintf("urn:drill:%03d", i)
		leader, _ := tc.m.Leader(tc.m.PartitionOf(id))
		if err := tc.member(leader).node.UpdateAttrs(id, "Device", attrsOf(float64(i))); err == nil {
			acked[id] = float64(i)
		}
	}
	for i := 0; i < 60; i++ {
		write(i)
	}
	if len(acked) != 60 {
		t.Fatalf("only %d/60 pre-kill writes acked", len(acked))
	}

	// Kill the victim and promote each of its partitions to a follower,
	// backfilling the replica count from the survivors.
	tc.kill(victim)
	promoted := 0
	for _, p := range tc.m.LedBy(victim) {
		info := tc.m.Info(p)
		newLeader := ""
		for _, f := range info.Followers {
			if f != victim {
				newLeader = f
				break
			}
		}
		if newLeader == "" {
			t.Fatalf("partition %d has no surviving follower", p)
		}
		replacement := "n2"
		if newLeader == "n2" {
			replacement = "n3"
		}
		epoch, err := tc.m.Promote(p, newLeader, replacement)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 2 {
			t.Fatalf("partition %d epoch = %d after promotion, want 2", p, epoch)
		}
		promoted++
	}
	if promoted == 0 {
		t.Fatal("victim led no partitions")
	}
	// Partitions the victim FOLLOWED also need repair: their leader
	// survived, but it cannot meet MinISR again without a new follower.
	// (Skip partitions that already have a live replacement, e.g. the
	// just-promoted ones where the victim sits in the follower set only
	// as the demoted ex-leader.)
	for leader, parts := range tc.m.FollowedBy(victim) {
		for _, p := range parts {
			info := tc.m.Info(p)
			repl := ""
			for _, cand := range []string{"n2", "n3"} {
				if cand == leader {
					continue
				}
				already := false
				for _, f := range info.Followers {
					if f == cand {
						already = true
					}
				}
				if !already {
					repl = cand
					break
				}
			}
			if repl == "" {
				continue // a live follower already covers this partition
			}
			if err := tc.m.ReplaceFollower(p, victim, repl); err != nil {
				t.Fatalf("replace follower for partition %d: %v", p, err)
			}
		}
	}

	// Ingest continues: retry each write against the current map until
	// the new leaders accept (replacement followers need a beat to sync).
	for i := 60; i < 120; i++ {
		id := fmt.Sprintf("urn:drill:%03d", i)
		waitFor(t, "post-promotion write "+id, func() bool {
			leader, _ := tc.m.Leader(tc.m.PartitionOf(id))
			if leader == victim {
				t.Fatalf("map still routes %s to the dead victim", id)
			}
			err := tc.member(leader).node.UpdateAttrs(id, "Device", attrsOf(float64(i)))
			if err == nil {
				acked[id] = float64(i)
				return true
			}
			return false
		})
	}

	// Zero acked-write loss: every acked entity is on its current leader.
	lost := 0
	for id, want := range acked {
		leader, _ := tc.m.Leader(tc.m.PartitionOf(id))
		e, err := tc.member(leader).plat.ctx.GetEntity(id)
		if err != nil {
			lost++
			continue
		}
		if v, ok := e.Attrs["level"]; !ok || v.Value != want {
			t.Fatalf("entity %s has wrong value %v", id, e.Attrs["level"].Value)
		}
	}
	if lost != 0 {
		t.Fatalf("%d acked writes lost after promotion", lost)
	}
}

// TestFencingRejectsDeposedLeader: a hello carrying a higher epoch fences
// the stale leader — its writes fail with ErrFenced even though its own
// map still names it leader.
func TestFencingRejectsDeposedLeader(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 4, replicas: 2, minISR: 0})
	defer tc.closeAll()

	leaderID := "n1"
	p := tc.m.LedBy(leaderID)[0]
	member := tc.member(leaderID)

	// A peer that has seen epoch 5 for p introduces itself.
	a, b := tcpPipe()
	go member.node.ServeConn(b)
	if err := a.Send(encodeHello(nil, helloMsg{Node: "time-traveller", Parts: []partEpoch{{Part: p, Epoch: 5}}})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fence to land", func() bool {
		_, fenced := member.node.repl.fencedEpoch(p)
		return fenced
	})
	a.Close()

	// Pick an id hashing into the fenced partition.
	id := ""
	for i := 0; i < 10000; i++ {
		cand := fmt.Sprintf("urn:fence:%04d", i)
		if tc.m.PartitionOf(cand) == p {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no id hashed into partition")
	}
	err := member.node.UpdateAttrs(id, "Device", attrsOf(1))
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("err = %v, want ErrFenced", err)
	}
	// The epoch was adopted into the map.
	if tc.m.Epoch(p) != 5 {
		t.Fatalf("map epoch = %d, want 5", tc.m.Epoch(p))
	}
	// Other partitions are unaffected.
	otherID := "urn:fence:other"
	for i := 0; tc.m.PartitionOf(otherID) == p; i++ {
		otherID = fmt.Sprintf("urn:fence:other:%d", i)
	}
	otherLeader, _ := tc.m.Leader(tc.m.PartitionOf(otherID))
	if err := tc.member(otherLeader).node.UpdateAttrs(otherID, "Device", attrsOf(2)); err != nil {
		t.Fatalf("unfenced partition write failed: %v", err)
	}
}

// TestReadyLagGate: ReadyLag trips when a follower session trails by
// more than the threshold.
func TestReadyLagGate(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 4, replicas: 2, minISR: 1, ackTimeout: 5 * time.Second})
	defer tc.closeAll()

	id := "urn:lag:1"
	leader, _ := tc.m.Leader(tc.m.PartitionOf(id))
	member := tc.member(leader)
	if err := member.node.UpdateAttrs(id, "Device", attrsOf(1)); err != nil {
		t.Fatal(err)
	}
	// Healthy: acked through the watermark, lag 0.
	if err := member.node.ReadyLag(1000); err != nil {
		t.Fatalf("ReadyLag on healthy node: %v", err)
	}
	st := member.node.Status()
	if st.PartsLed == 0 || len(st.Sessions) == 0 {
		t.Fatalf("status = %+v", st)
	}
	// maxLag <= 0 disables the gate.
	if err := member.node.ReadyLag(0); err != nil {
		t.Fatal("disabled gate tripped")
	}
}
