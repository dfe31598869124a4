package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/swamp-project/swamp/internal/wal"
)

// offsetsFile is the sidecar name holding per-leader replication
// offsets, kept in the WAL directory next to the segments it indexes.
const offsetsFile = "replica-offsets.json"

// offsetEntry is one leader's durable resume state: the last applied
// position in that leader's log and the partitions the offset covers. A
// desired partition outside Parts means the offset cannot vouch for it
// and the link re-bootstraps.
type offsetEntry struct {
	Seg   uint64 `json:"seg"`
	Rec   uint64 `json:"rec"`
	Parts []int  `json:"parts"`
}

// replicaOffsets is the sidecar store. Writes go through a temp file +
// rename and are throttled (~100ms) on the hot path; the state the
// offset covers is applied — and fsynced by the leader before shipping —
// before the offset is advanced, so the sidecar never runs ahead of the
// stores. Running behind only costs re-sent records, which the applier
// tolerates: entity ops converge, and a follower's applier skips a point
// its series already holds at the same time with the same value.
type replicaOffsets struct {
	mu       sync.Mutex
	path     string
	data     map[string]offsetEntry
	lastSave time.Time
}

func loadOffsets(dir string) *replicaOffsets {
	o := &replicaOffsets{
		path: filepath.Join(dir, offsetsFile),
		data: make(map[string]offsetEntry),
	}
	if b, err := os.ReadFile(o.path); err == nil {
		_ = json.Unmarshal(b, &o.data)
	}
	return o
}

func (o *replicaOffsets) get(leader string) (offsetEntry, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.data[leader]
	return e, ok
}

func (o *replicaOffsets) set(leader string, pos wal.Pos, parts []int, force bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.data[leader] = offsetEntry{Seg: pos.Seg, Rec: pos.Rec, Parts: append([]int(nil), parts...)}
	o.save(force)
}

// flush forces the in-memory offsets to disk, bypassing the throttle.
func (o *replicaOffsets) flush() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.save(true)
}

func (o *replicaOffsets) clear(leader string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.data, leader)
	o.save(true)
}

// save is called with mu held.
func (o *replicaOffsets) save(force bool) {
	now := time.Now()
	if !force && now.Sub(o.lastSave) < 100*time.Millisecond {
		return
	}
	o.lastSave = now
	b, err := json.Marshal(o.data)
	if err != nil {
		return
	}
	tmp := o.path + ".partial"
	if os.WriteFile(tmp, b, 0o644) == nil {
		_ = os.Rename(tmp, o.path)
	}
}

// followerMgr reconciles the node's inbound replication duties: one
// followLink per leader the Map says this node follows, restarted
// whenever the desired partition set changes (promotions, replacements).
type followerMgr struct {
	n     *Node
	mu    sync.Mutex
	links map[string]*followLink
	off   *replicaOffsets
}

func newFollowerMgr(n *Node) *followerMgr {
	return &followerMgr{
		n:     n,
		links: make(map[string]*followLink),
		off:   loadOffsets(n.cfg.WAL.Dir()),
	}
}

func (f *followerMgr) offsets() *replicaOffsets { return f.off }

func (f *followerMgr) run() {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	f.reconcile()
	for {
		select {
		case <-f.n.closed:
			return
		case <-t.C:
			f.reconcile()
		}
	}
}

func (f *followerMgr) reconcile() {
	f.mu.Lock()
	defer f.mu.Unlock()
	desired := f.n.m.FollowedBy(f.n.id)
	for leader, link := range f.links {
		parts, ok := desired[leader]
		if ok && equalInts(link.parts, parts) {
			continue
		}
		link.close()
		delete(f.links, leader)
	}
	if f.n.cfg.Dial == nil {
		return
	}
	for leader, parts := range desired {
		if _, ok := f.links[leader]; ok {
			continue
		}
		link := newFollowLink(f.n, leader, parts)
		f.links[leader] = link
		f.n.wg.Add(1)
		go func() {
			defer f.n.wg.Done()
			link.run()
		}()
	}
}

func (f *followerMgr) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for leader, link := range f.links {
		link.close()
		delete(f.links, leader)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// followLink is one follower→leader replication session, re-dialled with
// backoff across failures. Any protocol anomaly — a chain gap from a
// dropped frame, a snapshot count mismatch, a dead transport — tears the
// session down; the next attempt resumes from the durable sidecar offset
// (or re-bootstraps when the offset cannot vouch for the partitions).
type followLink struct {
	n      *Node
	leader string
	parts  []int // sorted
	stop   chan struct{}
}

func newFollowLink(n *Node, leader string, parts []int) *followLink {
	sorted := append([]int(nil), parts...)
	sort.Ints(sorted)
	return &followLink{n: n, leader: leader, parts: sorted, stop: make(chan struct{})}
}

func (l *followLink) close() {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
}

func (l *followLink) stopped() bool {
	select {
	case <-l.stop:
		return true
	case <-l.n.closed:
		return true
	default:
		return false
	}
}

func (l *followLink) run() {
	backoff := 50 * time.Millisecond
	for !l.stopped() {
		start := time.Now()
		err := l.session()
		if l.stopped() {
			return
		}
		if err != nil {
			slog.Warn("cluster: replication session ended", "node", l.n.id, "leader", l.leader, "err", err)
		}
		if time.Since(start) > time.Second {
			backoff = 50 * time.Millisecond // healthy run; reset
		}
		select {
		case <-l.stop:
			return
		case <-l.n.closed:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// tailState carries one session's progress through the record stream.
type tailState struct {
	chain     wal.Pos // last streamed position (chain check anchor)
	processed uint64  // messages processed this session (for lag acks)
	granted   map[int]uint64
	grantList []int
	mapVer    uint64
	installed bool // snapshot installed / resume accepted
	boundary  uint64
	snapCount uint64 // snapshot records received so far
}

func (l *followLink) session() error {
	n := l.n
	conn, err := n.cfg.Dial(l.leader)
	if err != nil {
		return err
	}
	defer conn.Close()

	off, haveOff := n.fmgr.offsets().get(l.leader)
	resume := wal.Pos{}
	if haveOff && subsetOf(l.parts, off.Parts) {
		resume = wal.Pos{Seg: off.Seg, Rec: off.Rec}
	} else if haveOff {
		slog.Info("cluster: sidecar offset misses wanted partitions; re-bootstrapping",
			"node", n.id, "leader", l.leader, "covered", off.Parts, "wanted", l.parts)
	}
	hello := helloMsg{Node: n.id, Resume: resume}
	for _, p := range l.parts {
		hello.Parts = append(hello.Parts, partEpoch{Part: p, Epoch: n.m.Epoch(p)})
	}
	var buf []byte
	if err := conn.Send(encodeHello(buf, hello)); err != nil {
		return err
	}

	st := &tailState{chain: resume, mapVer: n.m.Version()}
	// Apply only the elements of granted partitions. Subscriptions never
	// replicate: webhook delivery pools are node-local.
	app := &wal.Applier{
		Context:     n.cfg.Context,
		Store:       n.cfg.Store,
		Keep:        func(key string) bool { _, ok := st.granted[n.m.PartitionOf(key)]; return ok },
		SkipRepeats: true,
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return nil
		case <-n.closed:
			return nil
		case <-tick.C:
			if st.installed && !l.watchEpochs(conn, st, &buf) {
				return nil
			}
		case frame, ok := <-conn.Recv():
			if !ok {
				return errors.New("transport closed")
			}
			if err := l.handleFrame(frame, st, app); err != nil {
				return err
			}
			// Drain whatever else is queued (bounded) so applies batch.
			drained := false
			for extra := 0; !drained && extra < 4096; extra++ {
				select {
				case frame, ok := <-conn.Recv():
					if !ok {
						drained = true
					} else if err := l.handleFrame(frame, st, app); err != nil {
						return err
					}
				default:
					drained = true
				}
			}
			if err := l.flush(conn, st, app, &buf); err != nil {
				return err
			}
		}
	}
}

// subsetOf reports whether every partition in want is covered by have.
func subsetOf(want, have []int) bool {
	set := make(map[int]bool, len(have))
	for _, p := range have {
		set[p] = true
	}
	for _, p := range want {
		if !set[p] {
			return false
		}
	}
	return true
}

// watchEpochs notices promotions (epoch bumps or leadership moves) on
// granted partitions, fences the (now stale) leader for them, and drops
// them from the apply set. Returns false when nothing is left to follow.
func (l *followLink) watchEpochs(conn Conn, st *tailState, buf *[]byte) bool {
	n := l.n
	v := n.m.Version()
	if v == st.mapVer {
		return true
	}
	st.mapVer = v
	for p, grantedEpoch := range st.granted {
		cur := n.m.Epoch(p)
		leader, _ := n.m.Leader(p)
		if cur <= grantedEpoch && leader == l.leader {
			continue
		}
		*buf = encodeFence(*buf, fenceMsg{Part: p, Epoch: cur})
		_ = conn.Send(*buf)
		delete(st.granted, p)
	}
	if len(st.granted) == 0 {
		return false
	}
	st.grantList = st.grantList[:0]
	for p := range st.granted {
		st.grantList = append(st.grantList, p)
	}
	sort.Ints(st.grantList)
	return true
}

func (l *followLink) handleFrame(frame []byte, st *tailState, app *wal.Applier) error {
	n := l.n
	t, body, err := frameType(frame)
	if err != nil {
		return err
	}
	switch t {
	case msgWelcome:
		w, err := decodeWelcome(body)
		if err != nil {
			return err
		}
		if len(w.Parts) == 0 {
			return errors.New("no partitions granted")
		}
		st.granted = make(map[int]uint64, len(w.Parts))
		for _, pe := range w.Parts {
			st.granted[pe.Part] = pe.Epoch
			n.m.Bump(pe.Part, pe.Epoch)
			st.grantList = append(st.grantList, pe.Part)
		}
		sort.Ints(st.grantList)
		switch w.Mode {
		case modeResume:
			st.installed = true
		case modeSnapshot:
			// Destructive half of the bootstrap: forget the old offset
			// first so a crash mid-install re-bootstraps, then drop the
			// partitions' state ahead of the incoming image.
			st.boundary = w.Boundary
			n.fmgr.offsets().clear(l.leader)
			wipeSet := make(map[int]bool, len(st.granted))
			for p := range st.granted {
				wipeSet[p] = true
			}
			if err := n.wipe(wipeSet); err != nil {
				return fmt.Errorf("wipe: %w", err)
			}
		default:
			return fmt.Errorf("unknown welcome mode %d", w.Mode)
		}
	case msgSnapRec:
		rec, err := decodeSnapRec(body)
		if err != nil {
			return err
		}
		st.snapCount++
		if err := app.Add(rec); err != nil {
			return fmt.Errorf("snapshot record: %w", err)
		}
	case msgSnapEnd:
		e, err := decodeSnapEnd(body)
		if err != nil {
			return err
		}
		if e.Count != st.snapCount {
			return fmt.Errorf("snapshot count mismatch: got %d want %d", st.snapCount, e.Count)
		}
		if err := l.apply(app); err != nil {
			return err
		}
		// Compact our own WAL so local crash recovery replays the
		// installed image, not the pre-wipe state (the wipe itself is
		// not journaled).
		if n.cfg.Snapshot != nil {
			if err := n.cfg.Snapshot(); err != nil {
				return fmt.Errorf("post-install snapshot: %w", err)
			}
		}
		st.chain = wal.Pos{Seg: e.Boundary, Rec: 0}
		st.installed = true
		n.fmgr.offsets().set(l.leader, st.chain, st.grantList, true)
	case msgRecord:
		m, err := decodeRecord(body)
		if err != nil {
			return err
		}
		if !st.installed {
			return errors.New("record before welcome")
		}
		if m.Prev != st.chain {
			if n.cResyncs != nil {
				n.cResyncs.Inc()
			}
			return fmt.Errorf("chain gap: have %s, record follows %s", st.chain, m.Prev)
		}
		st.chain = m.Pos
		st.processed++
		if !m.Skip {
			if err := app.Add(m.Rec); err != nil {
				return fmt.Errorf("record %s: %w", m.Pos, err)
			}
		}
	case msgFence:
		f, err := decodeFence(body)
		if err == nil {
			n.repl.onFence(f)
		}
	case msgResp:
		// Routed responses are handled by peerClient conns, not links.
	}
	return nil
}

// flush applies the queued run, acks the chain position, and persists
// the sidecar offset (throttled).
func (l *followLink) flush(conn Conn, st *tailState, app *wal.Applier, buf *[]byte) error {
	if err := l.apply(app); err != nil {
		return err
	}
	if !st.installed {
		return nil
	}
	*buf = encodeAck(*buf, ackMsg{Pos: st.chain, Count: st.processed})
	if err := conn.Send(*buf); err != nil {
		return err
	}
	if !st.chain.IsZero() {
		l.n.fmgr.offsets().set(l.leader, st.chain, st.grantList, false)
	}
	return nil
}

// apply flushes the applier into the local stores and counts the points
// that landed.
func (l *followLink) apply(app *wal.Applier) error {
	applied, err := app.Flush()
	if l.n.cApplied != nil {
		l.n.cApplied.Add(uint64(applied))
	}
	return err
}
