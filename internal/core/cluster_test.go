package core

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/config"
)

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// newClusterPlatform builds node id of a cluster whose peers are addrs.
func newClusterPlatform(t *testing.T, id string, addrs map[string]string, edit func(*config.Cluster)) *Platform {
	t.Helper()
	cfg := config.Default()
	cfg.WAL.Dir = t.TempDir()
	cfg.Cluster.NodeID = id
	cfg.Cluster.Listen = addrs[id]
	for peer, addr := range addrs {
		if cfg.Cluster.Peers != "" {
			cfg.Cluster.Peers += ","
		}
		cfg.Cluster.Peers += peer + "=" + addr
	}
	if edit != nil {
		edit(&cfg.Cluster)
	}
	p, err := New(Options{Pilot: PilotIntercrop, Mode: ModeFarmFog, Seed: 7, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestMQTTIngestBoundByMinISR: with min_isr 1 and the only follower down,
// an MQTT reading for an entity this node leads fails its flush
// (agent.north.ctxerr): the agent's batcher writes through the Router, so
// the leader waits for a follower ack it cannot get.
func TestMQTTIngestBoundByMinISR(t *testing.T) {
	addrs := map[string]string{"n1": freeAddr(t), "n2": freeAddr(t)} // n2 never starts
	p := newClusterPlatform(t, "n1", addrs, func(c *config.Cluster) {
		c.MinISR = 1
		c.AckTimeout = 100 * time.Millisecond
	})
	var u *ProbeUnit
	for _, pu := range p.Probes {
		if p.Node.Leads(pu.Prov.EntityID) {
			u = pu
			break
		}
	}
	if u == nil {
		t.Fatal("n1 leads no probe entity")
	}
	readings, err := u.Probe.Sample(t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Send(readings); err != nil {
		t.Fatal(err)
	}
	failed, ok := p.reg.Counter("agent.north.ctxerr"), p.reg.Counter("agent.north.ok")
	deadline := time.Now().Add(5 * time.Second)
	for failed.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if failed.Value() != 1 || ok.Value() != 0 {
		t.Fatalf("agent.north.ctxerr = %d, agent.north.ok = %d; want the flush to fail on min_isr",
			failed.Value(), ok.Value())
	}
}

// TestSeriesStoredOnceAtOwner: two platforms, every partition on both.
// Probe readings enter through n1; each lands on its entity's leader,
// whose fog forwards it to the device's series owner. A follower's
// replicated apply fires no platform callback, so every series holds
// exactly one point, read through either node.
func TestSeriesStoredOnceAtOwner(t *testing.T) {
	addrs := map[string]string{"n1": freeAddr(t), "n2": freeAddr(t)}
	p1 := newClusterPlatform(t, "n1", addrs, nil)
	p2 := newClusterPlatform(t, "n2", addrs, nil)
	from := time.Now().Add(-time.Hour)
	if err := p1.PumpOnce(t0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	counts := func() (map[string]int, error) {
		out := make(map[string]int)
		for _, u := range p1.Probes {
			for _, q := range []string{"soilMoisture_d20", "soilMoisture_d50"} {
				for i, p := range []*Platform{p1, p2} {
					agg, err := p.Router.Summary(string(u.Prov.Desc.ID), q, from, time.Now().Add(time.Hour))
					if err != nil {
						return nil, err
					}
					out[fmt.Sprintf("%s/%s via n%d", u.Prov.Desc.ID, q, i+1)] = agg.Count
				}
			}
		}
		return out, nil
	}
	// Wait until every series has its point, then give a second copy
	// time to arrive before counting.
	settled := func() map[string]int {
		p1.Fog.Flush()
		p2.Fog.Flush()
		got, err := counts()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	deadline := time.Now().Add(10 * time.Second)
	for got := settled(); slices.Contains(slices.Collect(maps.Values(got)), 0); got = settled() {
		if time.Now().After(deadline) {
			t.Fatalf("series never stored: %v", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
	for series, n := range settled() {
		if n != 1 {
			t.Errorf("%s holds %d points, want 1", series, n)
		}
	}
}
