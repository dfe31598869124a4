package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
	"github.com/swamp-project/swamp/internal/wal"
)

// NodeConfig configures a cluster Node. core.New builds it from the
// platform's stores and WAL.
type NodeConfig struct {
	// ID is this node's id; it must appear in the Map's node list.
	ID string
	// Map is the shared (in-process) or config-derived (multi-process)
	// partition-ownership table.
	Map *Map
	// Context (the entity broker) and Store (the time-series store) are
	// the durable stores the node replicates.
	Context *ngsi.Broker
	Store   *timeseries.Store
	// WAL is the platform's write-ahead log; the Node installs a commit
	// hook on it and streams its segments to followers.
	WAL *wal.Manager
	// Snapshot compacts the WAL (core's Durability.Snapshot). Leaders
	// call it to produce a fresh bootstrap image for new followers;
	// followers call it right after installing one. Required for
	// bootstrap; a nil Snapshot limits the node to resume-mode peers.
	Snapshot func() error
	// MinISR is how many followers covering a partition must ack a
	// write's log position before the write returns. 0 disables
	// synchronous replication (acks are then only a lag signal).
	MinISR int
	// AckTimeout bounds the synchronous-replication wait (default 5s).
	// Adjustable at runtime via SetAckTimeout.
	AckTimeout time.Duration
	// Dial opens a transport to a peer node by id.
	Dial func(node string) (Conn, error)
	// Metrics receives the swamp_cluster_* gauges and counters
	// (optional).
	Metrics *metrics.Registry
}

// Node is one cluster member: leader for the partitions the Map assigns
// it, follower (via replication sessions) for the rest. It installs a
// WAL commit hook to learn every locally committed record's position and
// fans those out to follower sessions; its own follower manager keeps
// inbound sessions to every leader it replicates from.
type Node struct {
	cfg  NodeConfig
	id   string
	m    *Map
	repl *replicator
	fmgr *followerMgr

	ackTimeoutNs atomic.Int64
	closed       chan struct{}
	closeOnce    sync.Once
	wg           sync.WaitGroup

	gLed, gFollowed, gSessions, gLag, gEpoch, gRole *metrics.Gauge
	cShipped, cSkipped, cApplied, cFences, cAcksRejected,
	cResyncs *metrics.Counter
}

// NewNode builds a node and installs the WAL commit hook. Build the node
// before exposing the platform to traffic; records committed earlier are
// still replicated (they are in the segments), but the first session may
// need one resync round to see them.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("cluster: NodeConfig.ID required")
	}
	if cfg.Map == nil {
		return nil, errors.New("cluster: NodeConfig.Map required")
	}
	if cfg.Context == nil || cfg.Store == nil || cfg.WAL == nil {
		return nil, errors.New("cluster: NodeConfig requires Context, Store and WAL")
	}
	if !slices.Contains(cfg.Map.Nodes(), cfg.ID) {
		return nil, fmt.Errorf("cluster: node %q not in the map", cfg.ID)
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	n := &Node{
		cfg:    cfg,
		id:     cfg.ID,
		m:      cfg.Map,
		closed: make(chan struct{}),
	}
	n.ackTimeoutNs.Store(int64(cfg.AckTimeout))
	if reg := cfg.Metrics; reg != nil {
		n.gLed = reg.Gauge("cluster.partitions.led")
		n.gFollowed = reg.Gauge("cluster.partitions.followed")
		n.gSessions = reg.Gauge("cluster.sessions")
		n.gLag = reg.Gauge("cluster.replication.lag")
		n.gEpoch = reg.Gauge("cluster.epoch.max")
		n.gRole = reg.Gauge("cluster.role.leader")
		n.cShipped = reg.Counter("cluster.records.shipped")
		n.cSkipped = reg.Counter("cluster.records.skipped")
		n.cApplied = reg.Counter("cluster.records.applied")
		n.cFences = reg.Counter("cluster.fences")
		n.cAcksRejected = reg.Counter("cluster.acks.rejected")
		n.cResyncs = reg.Counter("cluster.resyncs")
	}
	n.repl = newReplicator(n)
	n.fmgr = newFollowerMgr(n)
	n.cfg.WAL.SetCommitHook(n.repl.onCommit)
	n.repl.seedHead()
	return n, nil
}

// Leads reports whether this node leads key's partition: the one node
// where the platform's callbacks for key run.
func (n *Node) Leads(key string) bool {
	leader, _ := n.m.Leader(n.m.PartitionOf(key))
	return leader == n.id
}

// Start launches the follower manager and the metrics updater.
func (n *Node) Start() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.fmgr.run()
	}()
	if n.cfg.Metrics != nil {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			t := time.NewTicker(250 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-n.closed:
					return
				case <-t.C:
					n.publishMetrics()
				}
			}
		}()
	}
}

// Close stops the node: the commit hook is removed, every replication
// session (both directions) is severed, and background loops exit. The
// underlying platform and WAL are left to their owner.
func (n *Node) Close() {
	n.shutdown(true)
}

// Kill is Close for the failure drill: it severs everything abruptly,
// simulating kill -9 — no offset flush, no goodbyes. A restart after
// Kill may re-bootstrap where one after Close would resume; it must
// never lose acked state (the sidecar only ever trails the stores).
func (n *Node) Kill() { n.shutdown(false) }

func (n *Node) shutdown(flushOffsets bool) {
	n.closeOnce.Do(func() {
		n.cfg.WAL.SetCommitHook(nil)
		close(n.closed)
		n.repl.closeAll()
		n.fmgr.closeAll()
	})
	n.wg.Wait()
	if flushOffsets {
		// All links are quiesced: persist the latest replication offsets
		// so a clean restart resumes instead of re-bootstrapping (the hot
		// path throttles sidecar writes, so the file may trail the
		// applied state).
		n.fmgr.offsets().flush()
	}
}

// SetAckTimeout adjusts the synchronous-replication wait at runtime
// (config plane dynamic knob).
func (n *Node) SetAckTimeout(d time.Duration) {
	if d > 0 {
		n.ackTimeoutNs.Store(int64(d))
	}
}

func (n *Node) ackTimeout() time.Duration {
	return time.Duration(n.ackTimeoutNs.Load())
}

// --- leader write path ---

// checkLeader rejects writes for partitions this node does not lead (or
// leads only per a fenced, stale view).
func (n *Node) checkLeader(p int) error {
	leader, _ := n.m.Leader(p)
	if leader != n.id {
		return fmt.Errorf("%w: partition %d is led by %s", ErrNotLeader, p, leader)
	}
	if epoch, fenced := n.repl.fencedEpoch(p); fenced {
		return fmt.Errorf("%w: partition %d at epoch %d", ErrFenced, p, epoch)
	}
	return nil
}

// waitReplicated blocks until MinISR followers covering every partition
// in parts have acked the current commit watermark — sampled after the
// local apply, so it covers the caller's write.
func (n *Node) waitReplicated(parts ...int) error {
	if n.cfg.MinISR <= 0 {
		return nil
	}
	w := n.repl.headPos()
	deadline := time.Now().Add(n.ackTimeout())
	for _, p := range parts {
		if err := n.repl.waitAcked(p, w, n.cfg.MinISR, deadline); err != nil {
			return err
		}
	}
	return nil
}

// write runs apply as the leader of every key's partition, then waits
// for MinISR follower acks on those partitions.
func (n *Node) write(apply func() error, keys ...string) error {
	var parts []int
	for _, key := range keys {
		if p := n.m.PartitionOf(key); !slices.Contains(parts, p) {
			if err := n.checkLeader(p); err != nil {
				return err
			}
			parts = append(parts, p)
		}
	}
	if err := apply(); err != nil {
		return err
	}
	return n.waitReplicated(parts...)
}

// UpdateAttrs applies an attribute merge on the owning leader.
func (n *Node) UpdateAttrs(id, typ string, attrs map[string]ngsi.Attribute) error {
	return n.write(func() error { return n.cfg.Context.UpdateAttrs(id, typ, attrs) }, id)
}

// BatchUpdate applies a batch whose entities this node must all own.
// The Router splits cross-node batches before calling this.
func (n *Node) BatchUpdate(updates map[string]ngsi.BatchEntry) error {
	return n.write(func() error { return n.cfg.Context.BatchUpdate(updates) }, slices.Collect(maps.Keys(updates))...)
}

// DeleteEntity deletes an entity on the owning leader.
func (n *Node) DeleteEntity(id string) error {
	return n.write(func() error { return n.cfg.Context.DeleteEntity(id) }, id)
}

// AppendBatch appends telemetry whose devices this node must all own.
func (n *Node) AppendBatch(batch []timeseries.BatchPoint) (accepted, rejected int, err error) {
	devices := make([]string, len(batch))
	for i, bp := range batch {
		devices[i] = bp.Key.Device
	}
	err = n.write(func() (err error) {
		// Through ngsi.Local, so a journal failure is an ngsi.ErrDurability.
		accepted, rejected, err = ngsi.Local{Store: n.cfg.Store}.AppendBatch(batch)
		return err
	}, devices...)
	return accepted, rejected, err
}

// --- record → partition mapping ---

// recordParts returns the partitions a record's elements land in, or nil
// for record types that do not replicate (subscriptions are node-local:
// each node serves its own webhooks). The sender uses it for session
// relevance; the follower's applier filters element by element.
func (n *Node) recordParts(rec wal.Record) []int {
	var parts []int
	for _, key := range wal.Keys(rec) {
		if p := n.m.PartitionOf(key); !slices.Contains(parts, p) {
			parts = append(parts, p)
		}
	}
	return parts
}

// --- follower-side state surgery ---

// wipe removes every entity and series owned by the given partitions —
// the first half of a snapshot install. Not journaled as a unit; the
// follower snapshots its own WAL right after the install so a crash in
// between re-bootstraps rather than recovering a half-wiped state.
func (n *Node) wipe(parts map[int]bool) error {
	var ids []string
	err := n.cfg.Context.DumpEntities(func(e *ngsi.Entity) error {
		if parts[n.m.PartitionOf(e.ID)] {
			ids = append(ids, e.ID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := n.cfg.Context.DeleteEntity(id); err != nil && !errors.Is(err, ngsi.ErrNotFound) {
			return err
		}
	}
	for _, k := range n.cfg.Store.Keys() {
		if parts[n.m.PartitionOf(k.Device)] {
			n.cfg.Store.DeleteSeries(k)
		}
	}
	return nil
}

// --- inbound connections ---

// ServeConn runs one inbound transport connection: a follower session
// (hello → record stream ← acks) and/or routed requests (msgReq) share
// the connection. Blocks until the connection or the node closes.
func (n *Node) ServeConn(c Conn) {
	defer c.Close()
	var sess *session
	defer func() {
		if sess != nil {
			n.repl.drop(sess)
		}
	}()
	for {
		select {
		case <-n.closed:
			return
		case frame, ok := <-c.Recv():
			if !ok {
				return
			}
			t, body, err := frameType(frame)
			if err != nil {
				return
			}
			switch t {
			case msgHello:
				h, err := decodeHello(body)
				if err != nil {
					return
				}
				if sess != nil {
					n.repl.drop(sess)
				}
				sess = n.repl.startSession(c, h)
			case msgAck:
				a, err := decodeAck(body)
				if err == nil && sess != nil {
					n.repl.onAck(sess, a)
				}
			case msgFence:
				f, err := decodeFence(body)
				if err == nil {
					n.repl.onFence(f)
				}
			case msgReq:
				rq, err := decodeReq(body)
				if err != nil {
					return
				}
				go n.serveReq(c, rq)
			}
		}
	}
}

// --- status & readiness ---

// SessionStatus is one outbound replication session's health.
type SessionStatus struct {
	Follower string  `json:"follower"`
	Parts    int     `json:"partitions"`
	Acked    wal.Pos `json:"acked"`
	Lag      uint64  `json:"lag"` // records shipped but not yet acked
}

// Status is the node's cluster-plane health snapshot.
type Status struct {
	ID            string          `json:"id"`
	PartsLed      int             `json:"partitions_led"`
	PartsFollowed int             `json:"partitions_followed"`
	EpochMax      uint64          `json:"epoch_max"`
	Sessions      []SessionStatus `json:"sessions,omitempty"`
	MaxLag        uint64          `json:"max_lag"`
}

// Status snapshots the node's cluster-plane health.
func (n *Node) Status() Status {
	st := Status{ID: n.id}
	st.PartsLed = len(n.m.LedBy(n.id))
	for _, parts := range n.m.FollowedBy(n.id) {
		st.PartsFollowed += len(parts)
	}
	for p := 0; p < n.m.Partitions(); p++ {
		if e := n.m.Epoch(p); e > st.EpochMax {
			st.EpochMax = e
		}
	}
	st.Sessions = n.repl.sessionStatus()
	for _, s := range st.Sessions {
		if s.Lag > st.MaxLag {
			st.MaxLag = s.Lag
		}
	}
	return st
}

// ReadyLag gates readiness on replication lag: it returns an error when
// any follower session trails the leader by more than maxLag records.
// maxLag <= 0 disables the gate.
func (n *Node) ReadyLag(maxLag int64) error {
	if maxLag <= 0 {
		return nil
	}
	st := n.repl.sessionStatus()
	for _, s := range st {
		if s.Lag > uint64(maxLag) {
			return fmt.Errorf("cluster: follower %s lags by %d records (max %d)",
				s.Follower, s.Lag, maxLag)
		}
	}
	return nil
}

func (n *Node) publishMetrics() {
	st := n.Status()
	n.gLed.Set(float64(st.PartsLed))
	n.gFollowed.Set(float64(st.PartsFollowed))
	n.gSessions.Set(float64(len(st.Sessions)))
	n.gLag.Set(float64(st.MaxLag))
	n.gEpoch.Set(float64(st.EpochMax))
	role := 0.0
	if st.PartsLed > 0 {
		role = 1
	}
	n.gRole.Set(role)
}
