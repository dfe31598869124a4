package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/swamp-project/swamp/internal/wal"
)

// errStopStream is the sentinel a catch-up replay returns to stop a
// segment scan at the live boundary (records past it arrive through the
// live queue instead).
var errStopStream = errors.New("cluster: stop streaming")

// sessionWindow is the per-session in-flight record cap. A follower
// queues at most 1 024 received frames before it stops reading, so a slow
// follower may stall Send on the connection before the window fills.
const sessionWindow = 4096

// liveEntry is one committed record on its way to follower sessions. The
// partition set is computed at most once, shared by every session.
type liveEntry struct {
	rec   wal.Record
	pos   wal.Pos
	once  sync.Once
	parts []int
}

func (e *liveEntry) partsOf(n *Node) []int {
	e.once.Do(func() { e.parts = n.recordParts(e.rec) })
	return e.parts
}

// session is one leader→follower replication stream.
type session struct {
	r        *replicator
	conn     Conn
	follower string
	parts    map[int]uint64 // granted partition → epoch at grant time
	live     chan *liveEntry
	dead     chan struct{}
	deadOnce sync.Once

	// guarded by r.mu:
	acked      wal.Pos
	sentCount  uint64
	ackedCount uint64
}

func (s *session) markDead() { s.deadOnce.Do(func() { close(s.dead) }) }

func (s *session) isDead() bool {
	select {
	case <-s.dead:
		return true
	default:
		return false
	}
}

func (s *session) covers(p int) bool { _, ok := s.parts[p]; return ok }

// overlaps reports whether any of a record's partitions is granted to
// this session. Empty parts (non-replicated record types) never overlap.
func (s *session) overlaps(parts []int) bool {
	for _, p := range parts {
		if s.covers(p) {
			return true
		}
	}
	return false
}

func (s *session) partsList() []partEpoch {
	out := make([]partEpoch, 0, len(s.parts))
	for p, e := range s.parts {
		out = append(out, partEpoch{Part: p, Epoch: e})
	}
	return out
}

// replicator is the leader half of the node: it owns the commit
// watermark, the outbound sessions, and the fencing table.
type replicator struct {
	n    *Node
	mu   sync.Mutex
	cond *sync.Cond

	head     wal.Pos // last committed position (from the WAL hook)
	sessions map[*session]bool
	fenced   map[int]uint64 // partition → higher epoch observed
}

func newReplicator(n *Node) *replicator {
	r := &replicator{
		n:        n,
		sessions: make(map[*session]bool),
		fenced:   make(map[int]uint64),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// seedHead initialises the commit watermark from the active segment, so
// sessions opened before the first post-hook commit still catch up fully.
// Best effort: a record committed mid-scan is picked up by the hook.
func (r *replicator) seedHead() {
	w := r.n.cfg.WAL
	segs, err := w.Segments()
	if err != nil || len(segs) == 0 {
		return
	}
	active := segs[len(segs)-1]
	count := uint64(0)
	n, _, _ := wal.ReplayFile(w.SegmentPath(active), func(wal.Record) error { return nil })
	count = uint64(n)
	pos := wal.Pos{Seg: active, Rec: count}
	r.mu.Lock()
	if r.head.Less(pos) {
		r.head = pos
	}
	r.mu.Unlock()
}

// onCommit is the WAL commit hook: it runs on the committer goroutine
// after fsync, before pending writers are released. It must not block —
// live queues are buffered, and a full queue kills that session (the
// follower re-syncs) rather than stalling the log.
func (r *replicator) onCommit(rec wal.Record, pos wal.Pos) {
	e := &liveEntry{rec: rec, pos: pos}
	r.mu.Lock()
	r.head = pos
	for s := range r.sessions {
		if s.isDead() {
			continue
		}
		select {
		case s.live <- e:
		default:
			s.markDead() // overflow: slow follower, force a resync
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *replicator) headPos() wal.Pos {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// fencedEpoch reports whether a higher epoch has been observed for p.
func (r *replicator) fencedEpoch(p int) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.fenced[p]
	return e, ok
}

// startSession grants a hello's partitions, registers the session, and
// spawns its pump. Returns nil when nothing was granted (the follower
// gets an empty welcome and will retry after the map changes).
func (r *replicator) startSession(c Conn, h helloMsg) *session {
	n := r.n
	granted := make(map[int]uint64)
	for _, pe := range h.Parts {
		if pe.Part < 0 || pe.Part >= n.m.Partitions() {
			continue
		}
		leader, epoch := n.m.Leader(pe.Part)
		if pe.Epoch > epoch {
			// The follower has seen a promotion we haven't: we are
			// deposed for this partition. Adopt the epoch and fence.
			r.fence(pe.Part, pe.Epoch)
			continue
		}
		if leader != n.id {
			continue
		}
		if _, fenced := r.fencedEpoch(pe.Part); fenced {
			continue
		}
		granted[pe.Part] = epoch
	}
	if len(granted) == 0 {
		_ = c.Send(encodeWelcome(nil, welcomeMsg{Mode: modeResume}))
		return nil
	}

	mode := byte(modeResume)
	segs, err := n.cfg.WAL.Segments()
	if err != nil {
		return nil
	}
	if h.Resume.IsZero() || len(segs) == 0 || h.Resume.Seg < segs[0] {
		mode = modeSnapshot
		if n.cfg.Snapshot == nil {
			n.cfg.Logf("cluster: %s needs a bootstrap but no snapshot hook is wired", h.Node)
			return nil
		}
		oldest := uint64(0)
		if len(segs) > 0 {
			oldest = segs[0]
		}
		n.cfg.Logf("cluster: bootstrapping %s (resume %s, oldest segment %d)", h.Node, h.Resume, oldest)
	}

	select {
	case <-n.closed:
		return nil
	default:
	}
	s := &session{
		r:        r,
		conn:     c,
		follower: h.Node,
		parts:    granted,
		live:     make(chan *liveEntry, sessionWindow),
		dead:     make(chan struct{}),
		acked:    h.Resume,
	}
	r.mu.Lock()
	r.sessions[s] = true
	r.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		s.pump(mode, h.Resume)
	}()
	return s
}

// drop unregisters a session and severs its connection.
func (r *replicator) drop(s *session) {
	r.mu.Lock()
	delete(r.sessions, s)
	s.markDead()
	r.cond.Broadcast()
	r.mu.Unlock()
	_ = s.conn.Close()
}

func (r *replicator) closeAll() {
	r.mu.Lock()
	list := make([]*session, 0, len(r.sessions))
	for s := range r.sessions {
		list = append(list, s)
	}
	r.mu.Unlock()
	for _, s := range list {
		r.drop(s)
	}
}

// onAck records a follower's applied-through position. Acks on a session
// all of whose partitions are fenced are rejected — the deposed leader
// must not let them satisfy a waiting write.
func (r *replicator) onAck(s *session, a ackMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	allFenced := len(s.parts) > 0
	for p := range s.parts {
		if _, ok := r.fenced[p]; !ok {
			allFenced = false
			break
		}
	}
	if allFenced {
		if r.n.cAcksRejected != nil {
			r.n.cAcksRejected.Inc()
		}
		return
	}
	if s.acked.Less(a.Pos) {
		s.acked = a.Pos
	}
	if a.Count > s.ackedCount {
		s.ackedCount = a.Count
	}
	r.cond.Broadcast()
}

// onFence adopts a higher epoch observed by a peer.
func (r *replicator) onFence(f fenceMsg) {
	if f.Part < 0 || f.Part >= r.n.m.Partitions() {
		return
	}
	if f.Epoch <= r.n.m.Epoch(f.Part) {
		return
	}
	r.fence(f.Part, f.Epoch)
}

func (r *replicator) fence(p int, epoch uint64) {
	r.n.m.Bump(p, epoch)
	r.mu.Lock()
	if epoch > r.fenced[p] {
		r.fenced[p] = epoch
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	if r.n.cFences != nil {
		r.n.cFences.Inc()
	}
	r.n.cfg.Logf("cluster: %s fenced on partition %d (epoch %d)", r.n.id, p, epoch)
}

// waitAcked blocks until minISR live sessions covering p have acked w,
// the partition is fenced (ErrFenced), or the deadline passes
// (ErrAckTimeout).
func (r *replicator) waitAcked(p int, w wal.Pos, minISR int, deadline time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	timer := time.AfterFunc(time.Until(deadline), func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	for {
		if e, fenced := r.fenced[p]; fenced {
			return fmt.Errorf("%w: partition %d at epoch %d", ErrFenced, p, e)
		}
		count := 0
		for s := range r.sessions {
			if !s.isDead() && s.covers(p) && !s.acked.Less(w) {
				count++
			}
		}
		if count >= minISR {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("%w: partition %d position %s acked by %d/%d followers",
				ErrAckTimeout, p, w, count, minISR)
		}
		r.cond.Wait()
	}
}

func (r *replicator) sessionStatus() []SessionStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SessionStatus, 0, len(r.sessions))
	for s := range r.sessions {
		if s.isDead() {
			continue
		}
		out = append(out, SessionStatus{
			Follower: s.follower,
			Parts:    len(s.parts),
			Acked:    s.acked,
			Lag:      s.sentCount - s.ackedCount,
		})
	}
	return out
}

// --- session pump: snapshot → catch-up → live ---

// pump streams the session: an optional snapshot transfer, then the
// sealed/active segments from the resume position up to the live
// boundary, then the live commit queue. Positions chain (each record
// carries its predecessor's), so any transport loss or truncation races
// surface as a chain break on the follower, which re-syncs.
func (s *session) pump(mode byte, resume wal.Pos) {
	defer s.r.drop(s)
	n := s.r.n
	var buf []byte

	if mode == modeSnapshot {
		boundary, ok := s.streamSnapshot(&buf)
		if !ok {
			return
		}
		resume = wal.Pos{Seg: boundary, Rec: 0}
	} else {
		if s.conn.Send(encodeWelcome(buf, welcomeMsg{Mode: modeResume, Parts: s.partsList()})) != nil {
			return
		}
	}

	last := resume
	liveStart := s.r.headPos()
	if last.Less(liveStart) {
		if !s.streamSegments(&buf, &last, liveStart) {
			return
		}
	}

	for {
		select {
		case <-s.dead:
			return
		case <-n.closed:
			return
		case e := <-s.live:
			if !last.Less(e.pos) {
				continue // duplicate across the catch-up/live boundary
			}
			if !s.sendRecord(&buf, e.rec, e.partsOf(n), e.pos, &last) {
				return
			}
		}
	}
}

// streamSnapshot produces a fresh snapshot and streams its records
// (filtered to the session's partitions), ending with the count-carrying
// snapEnd. Returns the snapshot boundary segment.
func (s *session) streamSnapshot(buf *[]byte) (uint64, bool) {
	n := s.r.n
	if err := n.cfg.Snapshot(); err != nil {
		n.cfg.Logf("cluster: bootstrap snapshot for %s failed: %v", s.follower, err)
		return 0, false
	}
	boundary, ok, err := n.cfg.WAL.SnapshotSeq()
	if err != nil || !ok {
		return 0, false
	}
	if s.conn.Send(encodeWelcome(*buf, welcomeMsg{
		Mode: modeSnapshot, Boundary: boundary, Parts: s.partsList(),
	})) != nil {
		return 0, false
	}
	count := uint64(0)
	_, _, err = wal.ReplayFile(n.cfg.WAL.SnapshotPath(boundary), func(rec wal.Record) error {
		if !s.overlaps(n.recordParts(rec)) {
			return nil
		}
		count++
		*buf = encodeSnapRec(*buf, rec)
		return s.conn.Send(*buf)
	})
	if err != nil {
		return 0, false
	}
	if s.conn.Send(encodeSnapEnd(*buf, snapEndMsg{Count: count, Boundary: boundary})) != nil {
		return 0, false
	}
	return boundary, true
}

// streamSegments replays segment files from *last (exclusive) to
// liveStart (inclusive), sending each record. A torn sealed segment is
// streamed up to the tear — the same acked prefix recovery replays — and
// the scan continues with the next segment.
func (s *session) streamSegments(buf *[]byte, last *wal.Pos, liveStart wal.Pos) bool {
	n := s.r.n
	segs, err := n.cfg.WAL.Segments()
	if err != nil {
		return false
	}
	// A snapshot taken on this node since the stream began may have pruned
	// segments it still needs. Streaming the survivors would chain their
	// first record onto *last and hide the gap from the follower, so end
	// the session instead: the follower re-syncs from a newer snapshot.
	if len(segs) == 0 || segs[0] > last.Seg {
		return false
	}
	for _, seg := range segs {
		if seg < last.Seg || seg > liveStart.Seg {
			continue
		}
		idx := uint64(0)
		_, _, err := wal.ReplayFile(n.cfg.WAL.SegmentPath(seg), func(rec wal.Record) error {
			idx++
			pos := wal.Pos{Seg: seg, Rec: idx}
			if !last.Less(pos) {
				return nil // already streamed (resume inside this segment)
			}
			if liveStart.Less(pos) {
				return errStopStream // the rest arrives via the live queue
			}
			if !s.sendRecord(buf, rec, n.recordParts(rec), pos, last) {
				return errStopStream
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopStream) {
			return false
		}
		if s.isDead() {
			return false
		}
	}
	return true
}

// sendRecord ships one record (or a position-only skip when none of its
// partitions belong to this session), honouring the in-flight window.
func (s *session) sendRecord(buf *[]byte, rec wal.Record, parts []int, pos wal.Pos, last *wal.Pos) bool {
	n := s.r.n
	skip := !s.overlaps(parts)
	r := s.r
	r.mu.Lock()
	for s.sentCount-s.ackedCount >= sessionWindow {
		if s.isDead() {
			r.mu.Unlock()
			return false
		}
		select {
		case <-n.closed:
			r.mu.Unlock()
			return false
		default:
		}
		r.cond.Wait()
	}
	s.sentCount++
	r.mu.Unlock()

	m := recordMsg{Prev: *last, Pos: pos, Skip: skip}
	if !skip {
		m.Rec = rec
	}
	*buf = encodeRecord(*buf, m)
	if s.conn.Send(*buf) != nil {
		return false
	}
	*last = pos
	if skip {
		if n.cSkipped != nil {
			n.cSkipped.Inc()
		}
	} else if n.cShipped != nil {
		n.cShipped.Inc()
	}
	return true
}
