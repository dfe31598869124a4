package cluster

import (
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
	"github.com/swamp-project/swamp/internal/wal"
)

// idsOwned generates n entity ids that hash to partitions led by the
// given node.
func idsOwned(t *testing.T, m *Map, leader, prefix string, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; len(out) < n && i < 100000; i++ {
		id := fmt.Sprintf("%s%04d", prefix, i)
		if l, _ := m.Leader(m.PartitionOf(id)); l == leader {
			out = append(out, id)
		}
	}
	if len(out) < n {
		t.Fatalf("could not generate %d ids owned by %s", n, leader)
	}
	return out
}

// TestCatchUpAcrossTornSegmentTail: a leader restarts with a torn record
// at the tail of a sealed segment. Catch-up must stream the segment's
// intact prefix, skip the torn record (which was never acked), continue
// into the next segment, and hand off to the live stream with the chain
// unbroken.
func TestCatchUpAcrossTornSegmentTail(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	opts := clusterOpts{partitions: 4, replicas: 2, minISR: 1, ackTimeout: 5 * time.Second}
	tc := newTestCluster(t, ids, dirs, opts)

	owned := idsOwned(t, tc.m, "n1", "urn:torn:", 6)
	for i, id := range owned {
		if err := tc.member("n1").node.UpdateAttrs(id, "Device", attrsOf(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	tc.closeAll()

	// Append three more upserts straight into n1's WAL (simulating writes
	// that raced a crash), then tear the last record's bytes off the
	// segment tail — it never committed, so no follower acked it.
	m, err := wal.Open(wal.Config{Dir: dirs["n1"]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(func(wal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	extras := idsOwned(t, tc.m, "n1", "urn:extra:", 3)
	for i, id := range extras {
		rec, err := wal.EncodeEntityUpsert(&ngsi.Entity{ID: id, Type: "Device", Attrs: attrsOf(float64(100 + i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AppendWait(rec); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := m.Segments()
	if err != nil {
		t.Fatal(err)
	}
	tornPath := m.SegmentPath(segs[len(segs)-1])
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tornPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Restart the cluster over the same directories. The follower resumes
	// from its sidecar offset, which predates the extra records.
	tc2 := newTestCluster(t, ids, dirs, opts)
	defer tc2.closeAll()

	waitFor(t, "follower to catch up across the torn segment", func() bool {
		for _, id := range extras[:2] {
			if _, err := tc2.member("n2").plat.ctx.GetEntity(id); err != nil {
				return false
			}
		}
		return true
	})
	// The torn third record must exist on neither node.
	for _, nid := range ids {
		if _, err := tc2.member(nid).plat.ctx.GetEntity(extras[2]); err == nil {
			t.Fatalf("torn record resurrected on %s", nid)
		}
	}
	// The chain survives into the live stream: a fresh acked write works.
	live := idsOwned(t, tc2.m, "n1", "urn:live:", 1)[0]
	if err := tc2.member("n1").node.UpdateAttrs(live, "Device", attrsOf(7)); err != nil {
		t.Fatalf("live write after torn catch-up: %v", err)
	}
	if _, err := tc2.member("n2").plat.ctx.GetEntity(live); err != nil {
		t.Fatal("live write not replicated after torn catch-up")
	}
}

// sentConn counts the frames sent on it and receives nothing.
type sentConn struct{ sent int }

func (c *sentConn) Send([]byte) error   { c.sent++; return nil }
func (c *sentConn) Recv() <-chan []byte { return nil }
func (c *sentConn) Close() error        { return nil }

// TestCatchUpEndsWhenSnapshotPrunedItsSegment: a snapshot on the leader
// after a session fixed its stream position prunes the segment holding the
// next record. Catch-up must end the session, so the follower re-syncs,
// rather than chain the first surviving record onto the stale position
// and lose the pruned one without a chain break.
func TestCatchUpEndsWhenSnapshotPrunedItsSegment(t *testing.T) {
	tc := newTestCluster(t, []string{"n1"}, map[string]string{"n1": t.TempDir()}, clusterOpts{partitions: 1, replicas: 1})
	defer tc.closeAll()
	m := tc.member("n1")

	segs, err := m.plat.wm.Segments()
	if err != nil {
		t.Fatal(err)
	}
	last := wal.Pos{Seg: segs[len(segs)-1]}
	if err := m.node.UpdateAttrs("urn:gap:1", "Device", attrsOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.plat.snapshot(); err != nil { // prunes last.Seg
		t.Fatal(err)
	}
	if err := m.node.UpdateAttrs("urn:gap:2", "Device", attrsOf(2)); err != nil {
		t.Fatal(err)
	}

	conn := &sentConn{}
	s := &session{r: m.node.repl, conn: conn, follower: "n2", parts: map[int]uint64{0: 1}, dead: make(chan struct{})}
	var buf []byte
	from := last
	if s.streamSegments(&buf, &last, m.node.repl.headPos()) || conn.sent != 0 {
		t.Fatalf("catch-up from %s across a pruned segment went on and sent %d records", from, conn.sent)
	}
}

// waitResumableBirth waits, nudging live records through both nodes, until
// the birth of the two-node cluster tc is quiescent and a restart of
// either node resumes instead of re-bootstrapping. Three birth-time events
// race that: each bootstrap's snapEnd persists the follower's offset, and
// each install or streaming-side snapshot truncates the node-wide log. A
// resume is granted only for an offset at or past the leader's oldest
// retained segment, so both directions must hold one: n2's offset into
// n1's log, and n1's into n2's — a stale one makes the restarted n2
// bootstrap n1, which fires n2's snapshot hook as a re-bootstrap would.
// Each node is nudged because an offset into a log moves only with that
// log's records.
func waitResumableBirth(t *testing.T, tc *testCluster) {
	t.Helper()
	nudges := map[string]string{}
	for _, n := range []string{"n1", "n2"} {
		nudges[n] = idsOwned(t, tc.m, n, "urn:nudge:", 1)[0]
	}
	resumable := func(follower, leader string) bool {
		off, ok := tc.member(follower).node.fmgr.offsets().get(leader)
		if !ok {
			return false
		}
		segs, err := tc.member(leader).plat.wm.Segments()
		return err == nil && len(segs) > 0 && off.Seg >= segs[0]
	}
	waitFor(t, "quiescent birth with resumable offsets both ways", func() bool {
		for n, id := range nudges {
			if err := tc.member(n).node.UpdateAttrs(id, "Device", attrsOf(1)); err != nil {
				return false
			}
		}
		return resumable("n2", "n1") && resumable("n1", "n2")
	})
}

// TestFollowerRestartResumesFromSidecar: a follower that restarts
// mid-stream resumes from its durable offset — segment replay, not a
// fresh snapshot bootstrap.
func TestFollowerRestartResumesFromSidecar(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	opts := clusterOpts{partitions: 4, replicas: 2, minISR: 0}
	tc := newTestCluster(t, ids, dirs, opts)
	defer tc.closeAll()

	phase1 := idsOwned(t, tc.m, "n1", "urn:res1:", 12)
	for i, id := range phase1 {
		if err := tc.member("n1").node.UpdateAttrs(id, "Device", attrsOf(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "initial sync", func() bool {
		for _, id := range phase1 {
			if _, err := tc.member("n2").plat.ctx.GetEntity(id); err != nil {
				return false
			}
		}
		return true
	})

	waitResumableBirth(t, tc)

	tc.stop("n2")

	phase2 := idsOwned(t, tc.m, "n1", "urn:res2:", 8)
	for i, id := range phase2 {
		if err := tc.member("n1").node.UpdateAttrs(id, "Device", attrsOf(float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	m2 := tc.addNode("n2", dirs["n2"], opts)
	waitFor(t, "restarted follower to catch up", func() bool {
		for _, id := range phase2 {
			if _, err := m2.plat.ctx.GetEntity(id); err != nil {
				return false
			}
		}
		return true
	})
	// Local recovery preserved phase 1 through the restart.
	for _, id := range phase1 {
		if _, err := m2.plat.ctx.GetEntity(id); err != nil {
			t.Fatalf("phase-1 entity %s lost across restart: %v", id, err)
		}
	}
	// Resume path: the restarted follower installs a snapshot (its
	// platform's snapshot hook fires at snapEnd) iff it re-bootstrapped
	// instead of resuming — the counter on the fresh platform must stay
	// zero. (Asserting on the leader's counter instead would conflate
	// this with its own birth-time install/stream snapshots.)
	if n := m2.plat.snaps.Load(); n != 0 {
		t.Fatalf("restarted follower took %d install snapshot(s): re-bootstrapped instead of resuming", n)
	}
}

// TestSnapshotSupersedesTailedSegment: while a follower is away, the
// leader snapshots and truncates the segments the follower was tailing.
// The follower's resume offset now predates the oldest segment, so it
// must discard its tail position, re-bootstrap from the newer snapshot,
// and converge without duplicating telemetry.
func TestSnapshotSupersedesTailedSegment(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	opts := clusterOpts{partitions: 4, replicas: 2, minISR: 0}
	tc := newTestCluster(t, ids, dirs, opts)
	defer tc.closeAll()

	at := time.Now().Truncate(time.Second)
	phase1 := idsOwned(t, tc.m, "n1", "urn:snapa:", 8)
	for i, id := range phase1 {
		if err := tc.member("n1").node.UpdateAttrs(id, "Device", attrsOf(float64(i))); err != nil {
			t.Fatal(err)
		}
		key := timeseries.SeriesKey{Device: id, Quantity: "flow"}
		if _, _, err := tc.member("n1").node.AppendBatch([]timeseries.BatchPoint{
			{Key: key, Point: timeseries.Point{At: at, Value: float64(i)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "initial sync", func() bool {
		for _, id := range phase1 {
			if _, err := tc.member("n2").plat.ctx.GetEntity(id); err != nil {
				return false
			}
		}
		return true
	})
	tc.stop("n2")

	// More writes, then a snapshot that prunes the tailed segments, then
	// a post-snapshot tail the follower must still receive.
	phase2 := idsOwned(t, tc.m, "n1", "urn:snapb:", 6)
	for i, id := range phase2 {
		if err := tc.member("n1").node.UpdateAttrs(id, "Device", attrsOf(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.member("n1").plat.snapshot(); err != nil {
		t.Fatal(err)
	}
	phase3 := idsOwned(t, tc.m, "n1", "urn:snapc:", 2)
	for i, id := range phase3 {
		if err := tc.member("n1").node.UpdateAttrs(id, "Device", attrsOf(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snapsBefore := tc.member("n1").plat.snaps.Load()

	m2 := tc.addNode("n2", dirs["n2"], opts)
	all := append(append(append([]string{}, phase1...), phase2...), phase3...)
	series := func(id string) timeseries.Aggregate {
		return m2.plat.store.Summarize(timeseries.SeriesKey{Device: id, Quantity: "flow"}, at.Add(-time.Hour), at.Add(time.Hour))
	}
	waitFor(t, "bootstrap from newer snapshot", func() bool {
		for _, id := range all {
			if _, err := m2.plat.ctx.GetEntity(id); err != nil {
				return false
			}
		}
		// An install applies its entities before its telemetry.
		for _, id := range phase1 {
			if series(id).Count == 0 {
				return false
			}
		}
		return true
	})
	// Bootstrap path taken: the leader cut a fresh snapshot for it.
	if after := tc.member("n1").plat.snaps.Load(); after <= snapsBefore {
		t.Fatal("follower resumed from a pruned segment instead of re-bootstrapping")
	}
	// The wipe+install must not duplicate telemetry delivered both via
	// the earlier tail and the snapshot image.
	for i, id := range phase1 {
		if agg := series(id); agg.Count != 1 || agg.Sum != float64(i) {
			t.Fatalf("series %s after re-bootstrap: count=%d sum=%v", id, agg.Count, agg.Sum)
		}
	}
}
