package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/cluster"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/simnet"
	"github.com/swamp-project/swamp/internal/timeseries"
	"github.com/swamp-project/swamp/internal/wal"
)

// clusterbench measures what the cluster plane buys and what it costs:
//
//	phase A  single durable node, no replication — the baseline
//	phase B  N-node cluster, RF=2, MinISR=1 over simnet — acked ingest
//	phase C  failure drill: kill -9 the busiest leader mid-ingest,
//	         promote its partitions, prove zero acked-write loss
//
// The scaling phases model the pilots' actual load: a fixed population
// of devices per farm node, each emitting a telemetry batch on a fixed
// sampling interval and blocking until the node acks it (durable, and
// in phase B follower-replicated). Adding farm nodes adds device
// population — weak scaling, the paper's multi-farm story — so the
// cluster phase carries N× the device count of the baseline. The
// points/s ratio is the scaling factor only if the cluster actually
// sustains that tripled load end to end: every point journaled on the
// leader, shipped, and applied on a follower before its ack. When
// replication can't keep up, acks slip past the sampling schedule,
// the measured window stretches, and the ratio collapses — that is
// the regression this bench guards.
//
// The default offered load is sized for a colocated harness: all N
// nodes share one machine, and fsyncs to separate WAL files serialize
// at the disk, a contention real per-farm-node deployments don't have.
// Past ~30k points/s/node on a typical CI disk that artifact — not the
// replication plane — dominates ack latency, so the defaults stay
// below it. Raise -cldevices / shrink -clinterval on real multi-disk
// hardware to probe the true capacity ceiling.
type clusterBenchConfig struct {
	Nodes      int // cluster size for phases B and C
	Partitions int
	Devices    int           // devices per node, both phases
	Points     int           // telemetry points through the single node (cluster carries Nodes×)
	Batch      int           // points per device emission
	Interval   time.Duration // per-device sampling interval
	AckTimeout time.Duration
}

// benchPlat is the slice of a platform each node replicates: broker +
// store + WAL with journals attached — the same wiring core's
// durability layer does, minus subscriptions.
type benchPlat struct {
	ctx   *ngsi.Broker
	store *timeseries.Store
	wm    *wal.Manager
}

func openBenchPlat(dir string) (*benchPlat, error) {
	p := &benchPlat{
		ctx:   ngsi.NewBroker(ngsi.BrokerConfig{}),
		store: timeseries.New(),
	}
	m, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	p.wm = m
	if _, err := m.Recover(p.applyRec); err != nil {
		return nil, err
	}
	p.ctx.SetJournal(m.ContextJournal())
	p.store.SetJournal(m.TelemetryJournal())
	return p, nil
}

func (p *benchPlat) applyRec(rec wal.Record) error {
	switch rec.Type {
	case wal.TypeEntityUpsert:
		e, err := wal.DecodeEntityUpsert(rec)
		if err != nil {
			return err
		}
		return p.ctx.UpsertEntity(e)
	case wal.TypeEntityMerge:
		entries, err := wal.DecodeEntityMerge(rec)
		if err != nil {
			return err
		}
		for _, en := range entries {
			if err := p.ctx.UpdateAttrs(en.ID, en.Type, en.Attrs); err != nil {
				return err
			}
		}
		return nil
	case wal.TypeEntityDelete:
		id, err := wal.DecodeID(rec)
		if err != nil {
			return err
		}
		if err := p.ctx.DeleteEntity(id); err != nil && !errors.Is(err, ngsi.ErrNotFound) {
			return err
		}
		return nil
	case wal.TypeTelemetry:
		pts, err := wal.DecodeTelemetry(rec)
		if err != nil {
			return err
		}
		_, _, err = p.store.AppendBatch(pts)
		return err
	}
	return nil
}

func (p *benchPlat) snapshot() error {
	return p.wm.Snapshot(func(rotate func() error, sink func(wal.Record) error) error {
		err := p.store.DumpFrozen(rotate, func(key timeseries.SeriesKey, pts []timeseries.Point) error {
			batch := make([]timeseries.BatchPoint, len(pts))
			for i, pt := range pts {
				batch[i] = timeseries.BatchPoint{Key: key, Point: pt}
			}
			rec, err := wal.EncodeTelemetry(batch)
			if err != nil {
				return err
			}
			return sink(rec)
		})
		if err != nil {
			return err
		}
		return p.ctx.DumpEntities(func(e *ngsi.Entity) error {
			rec, err := wal.EncodeEntityUpsert(e)
			if err != nil {
				return err
			}
			return sink(rec)
		})
	})
}

// benchCluster wires N nodes over simnet duplexes.
type benchCluster struct {
	m     *cluster.Map
	reg   *metrics.Registry
	mu    sync.Mutex
	nodes map[string]*benchMember
	seed  int64
}

type benchMember struct {
	plat  *benchPlat
	node  *cluster.Node
	alive bool
}

func newBenchCluster(ids []string, dir string, partitions, replicas, minISR int, ackTimeout time.Duration) (*benchCluster, error) {
	m, err := cluster.NewMap(cluster.Topology{Partitions: partitions, Replicas: replicas, Nodes: ids})
	if err != nil {
		return nil, err
	}
	bc := &benchCluster{m: m, reg: metrics.NewRegistry(), nodes: make(map[string]*benchMember), seed: 1}
	for _, id := range ids {
		plat, err := openBenchPlat(fmt.Sprintf("%s/%s", dir, id))
		if err != nil {
			return nil, err
		}
		node, err := cluster.NewNode(cluster.NodeConfig{
			ID:  id,
			Map: m,
			Hooks: cluster.Hooks{
				Context:  plat.ctx,
				Store:    plat.store,
				WAL:      plat.wm,
				Snapshot: plat.snapshot,
			},
			MinISR:     minISR,
			AckTimeout: ackTimeout,
			Dial:       func(peer string) (cluster.Conn, error) { return bc.dial(peer) },
			Metrics:    bc.reg,
			Logf:       benchLogf(id),
		})
		if err != nil {
			return nil, err
		}
		bc.mu.Lock()
		bc.nodes[id] = &benchMember{plat: plat, node: node, alive: true}
		bc.mu.Unlock()
		node.Start()
	}
	return bc, nil
}

// benchLogf reports cluster-plane events (resyncs, bootstraps, fences)
// on stderr when SWAMP_CLUSTERBENCH_VERBOSE is set.
func benchLogf(id string) func(string, ...any) {
	if os.Getenv("SWAMP_CLUSTERBENCH_VERBOSE") == "" {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[%s] "+format+"\n", append([]any{id}, args...)...)
	}
}

// counters prints the cluster-plane counters accumulated across nodes.
func (bc *benchCluster) counters(label string) {
	fmt.Printf("%s: shipped=%d skipped=%d applied=%d resyncs=%d fences=%d acks_rejected=%d\n",
		label,
		bc.reg.Counter("cluster.records.shipped").Value(),
		bc.reg.Counter("cluster.records.skipped").Value(),
		bc.reg.Counter("cluster.records.applied").Value(),
		bc.reg.Counter("cluster.resyncs").Value(),
		bc.reg.Counter("cluster.fences").Value(),
		bc.reg.Counter("cluster.acks.rejected").Value())
}

// dial connects through a fresh simnet duplex — an unimpaired link, but
// the same queue/drop discipline swamp's farm-cloud backhauls use. The
// queue must clear the node's in-flight window or the link, not flow
// control, becomes the bound.
func (bc *benchCluster) dial(peer string) (cluster.Conn, error) {
	bc.mu.Lock()
	member, ok := bc.nodes[peer]
	bc.seed++
	seed := bc.seed
	bc.mu.Unlock()
	if !ok || !member.alive {
		return nil, fmt.Errorf("peer %s down", peer)
	}
	d, err := simnet.NewDuplex(simnet.Config{QueueLen: 1 << 15, Seed: seed})
	if err != nil {
		return nil, err
	}
	a, b := cluster.SimnetPair(d)
	go member.node.ServeConn(b)
	return a, nil
}

func (bc *benchCluster) kill(id string) {
	bc.mu.Lock()
	member := bc.nodes[id]
	member.alive = false
	bc.mu.Unlock()
	member.node.Kill()
}

func (bc *benchCluster) closeAll() {
	bc.mu.Lock()
	members := make([]*benchMember, 0, len(bc.nodes))
	for _, m := range bc.nodes {
		if m.alive {
			m.alive = false
			members = append(members, m)
		}
	}
	bc.mu.Unlock()
	for _, m := range members {
		m.node.Close()
		_ = m.plat.wm.Close()
	}
}

func (bc *benchCluster) member(id string) *benchMember {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.nodes[id]
}

// devicesFor returns `want` device names whose partitions the node leads.
func devicesFor(m *cluster.Map, node string, want int) ([]string, error) {
	out := make([]string, 0, want)
	for i := 0; len(out) < want; i++ {
		if i > want*1000 {
			return nil, fmt.Errorf("node %s leads too few partitions for %d devices", node, want)
		}
		dev := fmt.Sprintf("dev-%05d", i)
		if leader, _ := m.Leader(m.PartitionOf(dev)); leader == node {
			out = append(out, dev)
		}
	}
	return out, nil
}

// ingestStats reports one paced-ingest run: the measured wall window
// (first emission to last ack) and the time devices spent blocked
// waiting for acks.
type ingestStats struct {
	points  int
	elapsed time.Duration
	ackNs   int64
	acks    int64
}

func (s ingestStats) rate() float64 { return float64(s.points) / s.elapsed.Seconds() }

func (s ingestStats) meanAckMs() float64 {
	if s.acks == 0 {
		return 0
	}
	return float64(s.ackNs) / float64(s.acks) / 1e6
}

// pacedIngest runs one goroutine per device. Each device emits a batch
// every interval on a wall-clock schedule (phase-staggered so the load
// is steady, catch-up immediate when an ack comes back late) and blocks
// until the node acks the batch. Timestamps are a strictly increasing
// per-series clock — out-of-order points would (correctly) be dropped
// by the follower's re-delivery filter, and a bench that feeds the
// cluster duplicates isn't measuring replication.
func pacedIngest(node *cluster.Node, devices []string, emissions, batch int, interval time.Duration, at time.Time) (ingestStats, error) {
	var (
		firstErr atomic.Value
		ackNs    atomic.Int64
		acks     atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	for d, dev := range devices {
		wg.Add(1)
		go func(d int, dev string) {
			defer wg.Done()
			key := timeseries.SeriesKey{Device: dev, Quantity: "soilMoisture"}
			offset := interval * time.Duration(d) / time.Duration(len(devices))
			seq := 0
			for e := 0; e < emissions; e++ {
				if wait := time.Until(start.Add(offset + interval*time.Duration(e))); wait > 0 {
					time.Sleep(wait)
				}
				pts := make([]timeseries.BatchPoint, batch)
				for i := range pts {
					seq++
					pts[i] = timeseries.BatchPoint{
						Key:   key,
						Point: timeseries.Point{At: at.Add(time.Duration(seq) * time.Millisecond), Value: float64(i)},
					}
				}
				t0 := time.Now()
				_, _, err := node.AppendBatch(pts)
				ackNs.Add(int64(time.Since(t0)))
				acks.Add(1)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(d, dev)
	}
	wg.Wait()
	stats := ingestStats{
		points:  len(devices) * emissions * batch,
		elapsed: time.Since(start),
		ackNs:   ackNs.Load(),
		acks:    acks.Load(),
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return stats, err
	}
	return stats, nil
}

func runClusterBench(cfg clusterBenchConfig) error {
	if cfg.Nodes < 3 {
		cfg.Nodes = 3
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	emissions := cfg.Points / (cfg.Devices * cfg.Batch)
	if emissions < 1 {
		emissions = 1
	}
	dir, err := os.MkdirTemp("", "swamp-clusterbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	at := time.Now().Truncate(time.Hour)

	offered := float64(cfg.Devices*cfg.Batch) / cfg.Interval.Seconds()
	fmt.Printf("clusterbench: %d nodes, %d partitions, %d devices/node x%d emissions x%d batch every %s (offered %.0f points/s/node)\n",
		cfg.Nodes, cfg.Partitions, cfg.Devices, emissions, cfg.Batch, cfg.Interval, offered)

	// Phase A: one durable node, no replication. Scoped so the baseline's
	// stores are collectable before phase B — the phases must not compete
	// for heap.
	singleStats, err := func() (ingestStats, error) {
		single, err := newBenchCluster([]string{"s1"}, dir+"/single", cfg.Partitions, 1, 0, cfg.AckTimeout)
		if err != nil {
			return ingestStats{}, err
		}
		defer single.closeAll()
		sDevices, err := devicesFor(single.m, "s1", cfg.Devices)
		if err != nil {
			return ingestStats{}, err
		}
		stats, err := pacedIngest(single.member("s1").node, sDevices, emissions, cfg.Batch, cfg.Interval, at)
		if err != nil {
			return stats, fmt.Errorf("single-node phase: %w", err)
		}
		return stats, nil
	}()
	if err != nil {
		return err
	}
	singleRate := singleStats.rate()
	fmt.Printf("single node:  %10.0f points/s sustained  (%.2fs, mean ack %.2fms)\n",
		singleRate, singleStats.elapsed.Seconds(), singleStats.meanAckMs())
	runtime.GC()

	// Phase B: N nodes, RF=2, synchronous replication (MinISR=1), each
	// carrying its own device population. Every write is journaled
	// locally AND acked by a follower before it returns.
	ids := make([]string, cfg.Nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	bc, err := newBenchCluster(ids, dir+"/cluster", cfg.Partitions, 2, 1, cfg.AckTimeout)
	if err != nil {
		return err
	}
	defer bc.closeAll()

	var (
		wg      sync.WaitGroup
		stats   = make([]ingestStats, cfg.Nodes)
		ingErrs = make([]error, cfg.Nodes)
	)
	start := time.Now()
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			devs, err := devicesFor(bc.m, id, cfg.Devices)
			if err != nil {
				ingErrs[i] = err
				return
			}
			stats[i], ingErrs[i] = pacedIngest(bc.member(id).node, devs, emissions, cfg.Batch, cfg.Interval, at)
		}(i, id)
	}
	wg.Wait()
	for i, err := range ingErrs {
		if err != nil {
			return fmt.Errorf("cluster phase, node %s: %w", ids[i], err)
		}
	}
	clusterElapsed := time.Since(start)
	var clusterPoints int
	var clusterAckNs, clusterAcks int64
	for _, s := range stats {
		clusterPoints += s.points
		clusterAckNs += s.ackNs
		clusterAcks += s.acks
	}
	clusterStats := ingestStats{points: clusterPoints, elapsed: clusterElapsed, ackNs: clusterAckNs, acks: clusterAcks}
	clusterRate := clusterStats.rate()
	scaling := clusterRate / singleRate
	fmt.Printf("cluster (%dx): %10.0f points/s sustained  (%.2fs, mean ack %.2fms)  scaling %.2fx\n",
		cfg.Nodes, clusterRate, clusterElapsed.Seconds(), clusterStats.meanAckMs(), scaling)
	bc.counters("cluster counters")
	if applied := bc.reg.Counter("cluster.records.applied").Value(); applied < uint64(clusterPoints) {
		return fmt.Errorf("clusterbench: followers applied %d of %d points — replication fell behind the acks", applied, clusterPoints)
	}

	// Phase C: the drill. Acked entity writes against every node, then
	// kill -9 the first node mid-role, promote its partitions to the
	// surviving followers, repair follower sets, and verify that every
	// write acked before or after the kill is present on the current
	// leader of its partition.
	acked, promoted, err := runClusterDrill(bc, ids)
	if err != nil {
		return err
	}
	lost := 0
	for id, want := range acked {
		leader, _ := bc.m.Leader(bc.m.PartitionOf(id))
		e, gerr := bc.member(leader).plat.ctx.GetEntity(id)
		if gerr != nil {
			lost++
			continue
		}
		if got := e.Attrs["seq"].Value; fmt.Sprint(got) != fmt.Sprint(want) {
			lost++
		}
	}
	fmt.Printf("drill: %d acked writes, %d lost, promotion: %d partitions\n", len(acked), lost, promoted)
	if lost > 0 {
		return fmt.Errorf("clusterbench: %d acked writes lost through promotion", lost)
	}
	fmt.Println("zero acked-write loss")
	return nil
}

// runClusterDrill writes acked entities, kills ids[0], promotes, and
// returns the acked id→seq map plus how many partitions were promoted.
func runClusterDrill(bc *benchCluster, ids []string) (map[string]int, int, error) {
	victim := ids[0]
	survivors := ids[1:]
	acked := make(map[string]int)
	upsert := func(seq int) error {
		id := fmt.Sprintf("urn:drill:%04d", seq)
		leader, _ := bc.m.Leader(bc.m.PartitionOf(id))
		member := bc.member(leader)
		if member == nil || !member.alive {
			return fmt.Errorf("leader %s down", leader)
		}
		err := member.node.UpsertEntity(&ngsi.Entity{
			ID: id, Type: "Drill",
			Attrs: map[string]ngsi.Attribute{"seq": {Type: "Number", Value: seq}},
		})
		if err == nil {
			acked[id] = seq
		}
		return err
	}

	// Pre-kill: acked writes across every partition.
	const preKill, postKill = 200, 200
	for seq := 0; seq < preKill; seq++ {
		if err := upsert(seq); err != nil {
			return nil, 0, fmt.Errorf("drill pre-kill write %d: %w", seq, err)
		}
	}

	bc.kill(victim)
	fmt.Printf("drill: killed %s\n", victim)

	// Promote every victim-led partition to a surviving follower; give it
	// a replacement follower so MinISR can be met again. Then repair
	// partitions that only *followed* the victim the same way.
	promoted := 0
	for _, p := range bc.m.LedBy(victim) {
		info := bc.m.Info(p)
		var heir string
		for _, f := range info.Followers {
			if f != victim {
				heir = f
				break
			}
		}
		if heir == "" {
			return nil, 0, fmt.Errorf("drill: partition %d has no surviving follower", p)
		}
		var repl string
		for _, s := range survivors {
			if s != heir {
				repl = s
				break
			}
		}
		if _, err := bc.m.Promote(p, heir, repl); err != nil {
			return nil, 0, fmt.Errorf("drill: promote partition %d: %w", p, err)
		}
		promoted++
	}
	for leader, parts := range bc.m.FollowedBy(victim) {
		if leader == victim {
			continue
		}
		for _, p := range parts {
			info := bc.m.Info(p)
			var repl string
			for _, s := range survivors {
				if s == info.Leader {
					continue
				}
				already := false
				for _, f := range info.Followers {
					if f == s {
						already = true
					}
				}
				if !already {
					repl = s
					break
				}
			}
			if repl == "" {
				continue // follower set already healthy
			}
			if err := bc.m.ReplaceFollower(p, victim, repl); err != nil {
				return nil, 0, fmt.Errorf("drill: repair partition %d: %w", p, err)
			}
		}
	}

	// Post-promotion: writes must ack again once the survivors' follower
	// links reconcile to the new map. Retry with a deadline.
	deadline := time.Now().Add(30 * time.Second)
	for seq := preKill; seq < preKill+postKill; seq++ {
		for {
			err := upsert(seq)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return nil, 0, fmt.Errorf("drill post-kill write %d never acked: %w", seq, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return acked, promoted, nil
}
