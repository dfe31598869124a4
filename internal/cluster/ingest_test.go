package cluster

import (
	"fmt"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/agent"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// TestRouterAppendBatchCountsAsStore: a routed telemetry batch with two
// owners, a NaN value and an empty device key reports the (accepted,
// rejected) one local store reports for the same batch. The NaN point is
// counted before it is encoded (encoding/json refuses NaN), so it does not
// fail its owner's leg.
func TestRouterAppendBatchCountsAsStore(t *testing.T) {
	tc, ids := newRouterCluster(t)
	const entry = "n1"
	var local, remote string // a device n1 leads, and one it does not
	for i := 0; local == "" || remote == ""; i++ {
		dev := fmt.Sprintf("dev-%02d", i)
		if owner, _ := tc.m.Leader(tc.m.PartitionOf(dev)); owner == entry {
			local = dev
		} else {
			remote = dev
		}
	}
	at := time.Now().Truncate(time.Second)
	pt := func(dev string, min int, v float64) timeseries.BatchPoint {
		return timeseries.BatchPoint{
			Key:   timeseries.SeriesKey{Device: dev, Quantity: "moisture"},
			Point: timeseries.Point{At: at.Add(time.Duration(min) * time.Minute), Value: v},
		}
	}
	batch := []timeseries.BatchPoint{
		pt(remote, 0, 0.30), pt(remote, 1, math.NaN()), pt(remote, 2, 0.31),
		pt(local, 0, 0.20), pt("", 0, 0.25),
	}

	wantAcc, wantRej, err := timeseries.New().AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	acc, rej, err := tc.member(entry).router.AppendBatch(batch)
	if err != nil || acc != wantAcc || rej != wantRej {
		t.Fatalf("routed AppendBatch = (%d, %d, %v), want the store's (%d, %d, nil)", acc, rej, err, wantAcc, wantRej)
	}
	for _, nid := range ids {
		for dev, want := range map[string]int{remote: 2, local: 1} {
			agg, err := tc.member(nid).router.Summary(dev, "moisture", at.Add(-time.Hour), at.Add(time.Hour))
			if err != nil || agg.Count != want {
				t.Fatalf("summary of %s via %s: count %d, err %v; want %d", dev, nid, agg.Count, err, want)
			}
		}
	}
}

// TestMQTTIngestRoutesToOwner: a device publishes QoS 1 to n2, whose agent
// writes through n2's Router, for an entity n3 leads and n1 follows (the
// map places each partition's follower on the node after its leader). The
// reading is readable through every node, and, once n2 is killed, still
// through n1 and n3: it lives on the entity's leader and its follower, not
// on the node the device happened to reach.
func TestMQTTIngestRoutesToOwner(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	dirs := map[string]string{"n1": t.TempDir(), "n2": t.TempDir(), "n3": t.TempDir()}
	tc := newTestCluster(t, ids, dirs, clusterOpts{partitions: 9, replicas: 2, minISR: 1, ackTimeout: 5 * time.Second})
	t.Cleanup(tc.closeAll)
	var entity string
	for i := 0; entity == ""; i++ {
		id := fmt.Sprintf("urn:swamp:drill:probe:%02d", i)
		if info := tc.m.Info(tc.m.PartitionOf(id)); info.Leader == "n3" && slices.Contains(info.Followers, "n1") {
			entity = id
		}
	}

	broker := mqtt.NewBroker(mqtt.BrokerConfig{})
	t.Cleanup(broker.Close)
	reg := metrics.NewRegistry()
	ag, err := agent.New(agent.Config{Broker: broker, Writer: tc.member("n2").router, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ag.Stop)
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ag.Provision(agent.Provision{
		Desc:       model.Descriptor{ID: "drill-probe", Kind: model.KindSoilProbe, Owner: "drill", APIKey: "key"},
		EntityID:   entity,
		EntityType: "SoilProbe",
		AttrMap:    map[string]agent.AttrSpec{"m": {Quantity: model.QSoilMoisture, Depth: 0.2}},
	}); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	broker.AttachConn(server)
	dev, err := mqtt.Connect(client, mqtt.ClientConfig{ClientID: "drill-probe"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	if err := dev.Publish(agent.AttrsTopic("key", "drill-probe"), []byte("m|0.31"), 1, false); err != nil {
		t.Fatal(err)
	}
	if !ag.WaitNorthbound(1, 5*time.Second) {
		t.Fatalf("reading never flushed: agent.north.ctxerr = %d", reg.Counter("agent.north.ctxerr").Value())
	}

	readable := func(nid string) {
		t.Helper()
		e, err := tc.member(nid).router.GetEntity(entity)
		if err != nil || e.Attrs["soilMoisture_d20"].Value != 0.31 {
			t.Fatalf("%s through %s: entity %+v, err %v", entity, nid, e, err)
		}
	}
	for _, nid := range ids {
		readable(nid)
	}
	tc.kill("n2")
	for _, nid := range []string{"n1", "n3"} {
		readable(nid)
	}
	if _, err := tc.member("n1").plat.ctx.GetEntity(entity); err != nil {
		t.Fatalf("follower n1 holds no copy: %v", err)
	}
}
