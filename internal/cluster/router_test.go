package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

func newRouterCluster(t *testing.T) (*testCluster, []string) {
	t.Helper()
	ids := []string{"n1", "n2", "n3"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir(), "n3": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 9, replicas: 2, minISR: 0})
	t.Cleanup(tc.closeAll)
	return tc, ids
}

// TestRouterWriteRouting: writes through any node's router land on the
// key's owning leader, wherever the request entered.
func TestRouterWriteRouting(t *testing.T) {
	tc, ids := newRouterCluster(t)
	entry := tc.member("n3").router

	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("urn:rt:%03d", i)
		if err := entry.UpdateAttrs(id, "Device", attrsOf(float64(i))); err != nil {
			t.Fatalf("routed write %s: %v", id, err)
		}
	}
	// Each entity lives on its owner (and only its owner, with minISR=0
	// followers may lag — so check the owner's local store directly).
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("urn:rt:%03d", i)
		owner, _ := tc.m.Leader(tc.m.PartitionOf(id))
		if _, err := tc.member(owner).plat.ctx.GetEntity(id); err != nil {
			t.Fatalf("entity %s missing on owner %s: %v", id, owner, err)
		}
	}
	// Reads route too: any entry node finds any entity.
	for _, nid := range ids {
		e, err := tc.member(nid).router.GetEntity("urn:rt:017")
		if err != nil || e.Attrs["level"].Value != 17.0 {
			t.Fatalf("routed read via %s: e=%+v err=%v", nid, e, err)
		}
	}
	// Missing ids map back to ngsi.ErrNotFound across the wire.
	for _, nid := range ids {
		if _, err := tc.member(nid).router.GetEntity("urn:rt:nope"); !errors.Is(err, ngsi.ErrNotFound) {
			t.Fatalf("missing entity via %s: err=%v, want ErrNotFound", nid, err)
		}
	}
	// Routed delete.
	if err := tc.member("n1").router.DeleteEntity("urn:rt:017"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.member("n2").router.GetEntity("urn:rt:017"); !errors.Is(err, ngsi.ErrNotFound) {
		t.Fatalf("deleted entity still readable: %v", err)
	}
}

// TestRouterScatterGather: list queries fan out to every leader and the
// merged result preserves global ordering, offset/limit, and exact
// counts — the same answer a single node would give.
func TestRouterScatterGather(t *testing.T) {
	tc, ids := newRouterCluster(t)
	entry := tc.member("n1").router

	const n = 40
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("urn:sg:%03d", i)
		if err := entry.UpdateAttrs(id, "Device", attrsOf(float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	// Ordered page with offset, exact count.
	res, err := entry.Query(ngsi.Query{
		IDPattern: "urn:sg:*", OrderBy: ngsi.OrderByID, Limit: 10, Offset: 5, Count: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != n {
		t.Fatalf("total = %d, want %d", res.Total, n)
	}
	if len(res.Entities) != 10 {
		t.Fatalf("page size = %d, want 10", len(res.Entities))
	}
	for i, e := range res.Entities {
		want := fmt.Sprintf("urn:sg:%03d", i+5)
		if e.ID != want {
			t.Fatalf("page[%d] = %s, want %s", i, e.ID, want)
		}
	}

	// Same answer from every entry node.
	for _, nid := range ids {
		r2, err := tc.member(nid).router.Query(ngsi.Query{
			IDPattern: "urn:sg:*", OrderBy: ngsi.OrderByID, Limit: 10, Offset: 5, Count: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(r2.Entities) != 10 || r2.Total != n || r2.Entities[0].ID != "urn:sg:005" {
			t.Fatalf("entry %s: len=%d total=%d first=%s", nid, len(r2.Entities), r2.Total, r2.Entities[0].ID)
		}
	}

	// Unordered limit honours the cap; count stays exact.
	res, err = entry.Query(ngsi.Query{IDPattern: "urn:sg:*", Limit: 7, Count: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entities) != 7 || res.Total != n {
		t.Fatalf("unordered: len=%d total=%d", len(res.Entities), res.Total)
	}

	// Attribute ordering with reversal crosses partitions correctly.
	res, err = entry.Query(ngsi.Query{IDPattern: "urn:sg:*", OrderBy: "!level", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entities) != 3 || res.Entities[0].ID != fmt.Sprintf("urn:sg:%03d", n-1) {
		t.Fatalf("reverse attr order: %+v", res.Entities)
	}
	// No count requested → Total is -1.
	if res.Total != -1 {
		t.Fatalf("total without count = %d, want -1", res.Total)
	}

	// Offset past the result set yields an empty page, not an error.
	res, err = entry.Query(ngsi.Query{IDPattern: "urn:sg:*", OrderBy: ngsi.OrderByID, Limit: 10, Offset: n + 5})
	if err != nil || len(res.Entities) != 0 {
		t.Fatalf("past-end page: len=%d err=%v", len(res.Entities), err)
	}
}

// TestRouterBatchAndTelemetry: batched entity updates split by owner,
// and series reads route to the owning leader.
func TestRouterBatchAndTelemetry(t *testing.T) {
	tc, ids := newRouterCluster(t)
	entry := tc.member("n2").router

	batch := make(map[string]ngsi.BatchEntry)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("urn:bt:%03d", i)
		batch[id] = ngsi.BatchEntry{Type: "Device", Attrs: attrsOf(float64(i))}
	}
	if err := entry.BatchUpdate(batch); err != nil {
		t.Fatal(err)
	}
	for id := range batch {
		owner, _ := tc.m.Leader(tc.m.PartitionOf(id))
		if _, err := tc.member(owner).plat.ctx.GetEntity(id); err != nil {
			t.Fatalf("batched entity %s missing on owner: %v", id, err)
		}
	}

	// Seed each device's series on its owner; the reads below route.
	at := time.Now().Truncate(time.Second)
	for i := 0; i < 20; i++ {
		key := timeseries.SeriesKey{Device: fmt.Sprintf("urn:bt:%03d", i), Quantity: "moisture"}
		var pts []timeseries.BatchPoint
		for j := 0; j < 5; j++ {
			pts = append(pts, timeseries.BatchPoint{
				Key:   key,
				Point: timeseries.Point{At: at.Add(time.Duration(j) * time.Minute), Value: float64(i*10 + j)},
			})
		}
		owner, _ := tc.m.Leader(tc.m.PartitionOf(key.Device))
		accepted, rejected, err := tc.member(owner).node.AppendBatch(pts)
		if err != nil || accepted != len(pts) || rejected != 0 {
			t.Fatalf("append on %s: accepted=%d rejected=%d err=%v", owner, accepted, rejected, err)
		}
	}

	// Aggregates route to the owner regardless of entry node.
	for _, nid := range ids {
		agg, err := tc.member(nid).router.Summary("urn:bt:007", "moisture", at.Add(-time.Hour), at.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if agg.Count != 5 || agg.Min != 70 || agg.Max != 74 {
			t.Fatalf("summary via %s: %+v", nid, agg)
		}
		wins, err := tc.member(nid).router.Windows("urn:bt:007", "moisture", at.Add(-time.Minute), at.Add(5*time.Minute), 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, w := range wins {
			sum += w.Count
		}
		if sum != 5 {
			t.Fatalf("windows via %s sum to %d points: %+v", nid, sum, wins)
		}
	}
}

// TestRouterErrorKeepsKind: a failure keeps its sentinel across the
// routed hop. A write whose owner cannot journal it is ErrDurability
// through every entry node, with the owner's text; an owner that cannot
// be reached is ErrUnavailable.
func TestRouterErrorKeepsKind(t *testing.T) {
	tc, ids := newRouterCluster(t)
	const id = "urn:rt:durable"
	owner, _ := tc.m.Leader(tc.m.PartitionOf(id))
	_ = tc.member(owner).plat.wm.Close()

	var texts []string
	for _, nid := range ids {
		err := tc.member(nid).router.UpdateAttrs(id, "Device", attrsOf(1))
		if !errors.Is(err, ngsi.ErrDurability) {
			t.Fatalf("write via %s to owner %s with a closed journal: err=%v, want ErrDurability", nid, owner, err)
		}
		if errors.Is(err, ngsi.ErrUnavailable) || errors.Is(err, ngsi.ErrNotFound) {
			t.Fatalf("write via %s: err=%v carries a second kind", nid, err)
		}
		texts = append(texts, err.Error())
	}
	for i := range texts {
		if texts[i] != texts[0] {
			t.Fatalf("error text differs by entry node: %q", texts)
		}
	}

	entry := ""
	for _, nid := range ids {
		if nid != owner {
			entry = nid
		}
	}
	tc.kill(owner)
	// A fresh router has no connection to the owner and must dial it.
	fresh := NewRouter(tc.member(entry).node)
	defer fresh.Close()
	if err := fresh.UpdateAttrs(id, "Device", attrsOf(2)); !errors.Is(err, ngsi.ErrUnavailable) {
		t.Fatalf("write via %s to dead owner %s: err=%v, want ErrUnavailable", entry, owner, err)
	}
	for _, err := range []error{ErrNotLeader, ErrFenced, ErrAckTimeout, ErrConnClosed} {
		if !errors.Is(err, ngsi.ErrUnavailable) {
			t.Fatalf("%v does not satisfy ErrUnavailable", err)
		}
	}
}
