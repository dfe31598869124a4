package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/timeseries"
)

// appendAcked appends one point through the leader and fails the test
// unless the write is acked.
func appendAcked(t *testing.T, n *Node, key timeseries.SeriesKey, at time.Time, v float64) {
	t.Helper()
	if _, _, err := n.AppendBatch([]timeseries.BatchPoint{{Key: key, Point: timeseries.Point{At: at, Value: v}}}); err != nil {
		t.Fatalf("append (%s, %v): %v", at.Format(time.TimeOnly), v, err)
	}
}

// TestFollowerKeepsAckedBackfill: at MinISR=1 a leader acks an in-order
// point, a backfilled one and one at an already-used timestamp. Each ack
// means the follower applied the point, so the promoted follower holds
// all three.
func TestFollowerKeepsAckedBackfill(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 4, replicas: 2, minISR: 1, ackTimeout: 5 * time.Second})
	defer tc.closeAll()

	dev := idsOwned(t, tc.m, "n1", "urn:backfill:", 1)[0]
	key := timeseries.SeriesKey{Device: dev, Quantity: "moisture"}
	at := time.Now().Truncate(time.Second)
	leader := tc.member("n1").node
	appendAcked(t, leader, key, at, 1)
	appendAcked(t, leader, key, at.Add(-time.Minute), 2)
	appendAcked(t, leader, key, at, 3)

	tc.kill("n1")
	if _, err := tc.m.Promote(tc.m.PartitionOf(dev), "n2"); err != nil {
		t.Fatal(err)
	}
	store := tc.member("n2").plat.store
	if n := store.Len(key); n != 3 {
		t.Fatalf("promoted follower holds %d of 3 acked points: %v", n, store.Range(key, at.Add(-time.Hour), at.Add(time.Hour)))
	}
}

// TestFollowerResumeFromTrailingSidecarAddsNoRepeats: a follower whose
// offset sidecar trails what it applied resumes from the older offset,
// so the leader re-sends records the follower already holds, a
// backfilled point and a same-timestamp point among them. The follower
// must end with exactly the leader's points: none lost, none doubled.
func TestFollowerResumeFromTrailingSidecarAddsNoRepeats(t *testing.T) {
	ids := []string{"n1", "n2"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir()}
	opts := clusterOpts{partitions: 4, replicas: 2, minISR: 1, ackTimeout: 5 * time.Second}
	tc := newTestCluster(t, ids, dirs, opts)
	defer tc.closeAll()
	leader := tc.member("n1").node

	waitResumableBirth(t, tc)
	// caughtUp waits until m's offset for n1 reaches n1's log head.
	caughtUp := func(m *testMember) offsetEntry {
		t.Helper()
		head := leader.repl.headPos()
		var off offsetEntry
		waitFor(t, "follower offset at the leader's head", func() bool {
			off, _ = m.node.fmgr.offsets().get("n1")
			return off.Seg == head.Seg && off.Rec == head.Rec
		})
		return off
	}

	dev := idsOwned(t, tc.m, "n1", "urn:resend:", 1)[0]
	key := timeseries.SeriesKey{Device: dev, Quantity: "moisture"}
	at := time.Now().Truncate(time.Second)
	appendAcked(t, leader, key, at, 1)
	appendAcked(t, leader, key, at.Add(time.Minute), 2)
	trailing := caughtUp(tc.member("n2"))
	appendAcked(t, leader, key, at.Add(3*time.Minute), 3)
	appendAcked(t, leader, key, at.Add(2*time.Minute), 4) // backfill
	appendAcked(t, leader, key, at.Add(3*time.Minute), 5) // same timestamp
	caughtUp(tc.member("n2"))

	// Stop the follower and roll its sidecar back to the trailing offset.
	tc.stop("n2")
	path := filepath.Join(dirs["n2"], offsetsFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := map[string]offsetEntry{}
	if err := json.Unmarshal(b, &offs); err != nil {
		t.Fatal(err)
	}
	offs["n1"] = trailing
	if b, err = json.Marshal(offs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := tc.addNode("n2", dirs["n2"], opts)
	caughtUp(m2)
	if n := m2.plat.snaps.Load(); n != 0 {
		t.Fatalf("restarted follower took %d install snapshot(s): re-bootstrapped instead of resuming", n)
	}
	want := tc.member("n1").plat.store.Len(key)
	if got := m2.plat.store.Len(key); got != want {
		t.Fatalf("follower holds %d points, leader %d: %v", got, want, m2.plat.store.Range(key, at.Add(-time.Hour), at.Add(time.Hour)))
	}
}
