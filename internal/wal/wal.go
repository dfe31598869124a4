// Package wal is the SWAMP durability plane: a segmented, group-committed
// write-ahead log plus point-in-time snapshots, sitting under the NGSI
// entity store and the time-series engine so a swampd restart (or crash)
// no longer loses every entity, subscription and telemetry point.
//
// Writers append typed records through a bounded commit queue drained by a
// single committer goroutine; every record in a drained batch shares one
// fsync (the PR 1 batching recipe applied to disk), so N concurrent
// appenders cost ~1 fsync instead of N. Append returns a Pending whose
// Wait blocks until the record's batch is durable — stores apply the
// mutation under their shard lock, enqueue while still holding it (so log
// order matches apply order per shard), and only acknowledge the caller
// after Wait.
//
// A snapshot is a rotation boundary plus a file of ordinary records: the
// dump callback rotates the log (all prior records land in segments below
// the boundary), streams the store state as records into snapshot-<B>.snap
// (written to a temp file, fsynced, renamed), after which segments below B
// are deleted. Recovery loads the newest snapshot and replays the tail
// segments at or above its boundary, stopping at the first torn record
// (CRC per record), so a crash mid-write costs at most the unacknowledged
// suffix.
package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
)

// Defaults for the tunable knobs.
const (
	// DefaultSegmentBytes is the segment roll threshold when
	// Config.SegmentBytes is zero.
	DefaultSegmentBytes = 8 << 20
	// DefaultQueueLen bounds the commit queue when Config.QueueLen is
	// zero.
	DefaultQueueLen = 4096
)

// Config configures a Manager.
type Config struct {
	// Dir is the WAL directory (segments + snapshots). Required; created
	// if missing.
	Dir string
	// SegmentBytes is the size past which the active segment rolls
	// (default DefaultSegmentBytes).
	SegmentBytes int64
	// QueueLen bounds the commit queue (default DefaultQueueLen);
	// appends past it block.
	QueueLen int
	// Metrics receives the wal.* counters; nil allocates a private
	// registry.
	Metrics *metrics.Registry
}

// RecoverStats reports what a recovery replayed.
type RecoverStats struct {
	// SnapshotBoundary is the segment boundary of the snapshot that was
	// loaded (0 when none existed).
	SnapshotBoundary uint64
	// SnapshotRecords is the number of records replayed from the
	// snapshot file.
	SnapshotRecords int
	// TailSegments / TailRecords count the log segments and records
	// replayed after the snapshot.
	TailSegments int
	TailRecords  int
	// Torn reports that at least one segment's replay stopped at a torn
	// (truncated or corrupt) record — the expected tail shape after a
	// crash mid-write. The remainder of a torn segment is skipped; later
	// segments (appended by a post-crash restart, whose writes build on
	// exactly the recovered prefix) still replay.
	Torn bool
}

// Manager owns one WAL directory: the segmented log plus its snapshots.
// Open, then Recover exactly once (before any Append), then append
// freely; Close flushes the queue and fsyncs.
type Manager struct {
	cfg Config
	log *wlog
	reg *metrics.Registry

	snapMu    sync.Mutex // serializes snapshots
	recovered bool
	startSeg  uint64 // the fresh segment this Open created; replay stops below it

	loopOnce sync.Once
	loopDone chan struct{}
	loopWG   sync.WaitGroup

	// snapIntv is the reloadable snapshot cadence in ns (<= 0 parks the
	// loop); snapPoke wakes the loop so a new cadence re-arms immediately.
	snapIntv atomic.Int64
	snapPoke chan struct{}

	cSnapshots    *metrics.Counter
	cSnapRecords  *metrics.Counter
	cSnapErrors   *metrics.Counter
	cTruncated    *metrics.Counter
	cReplayed     *metrics.Counter
	cReplayedTorn *metrics.Counter
}

// Open scans (or creates) the WAL directory and starts the committer on a
// fresh segment past everything already on disk — recovery never appends
// to a possibly-torn old segment. Call Recover before the first Append.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: Config.Dir required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	// Drop stale temp files from an interrupted snapshot.
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	start := uint64(1)
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == tmpSuffix {
			_ = os.Remove(filepath.Join(cfg.Dir, name))
			continue
		}
		if idx, ok := parseIndexed(name, segPrefix, segSuffix); ok && idx+1 > start {
			start = idx + 1
		}
		if idx, ok := parseIndexed(name, snapPrefix, snapSuffix); ok && idx+1 > start {
			start = idx + 1
		}
	}
	l, err := openLog(cfg.Dir, start, cfg.SegmentBytes, cfg.QueueLen, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:           cfg,
		log:           l,
		reg:           cfg.Metrics,
		startSeg:      start,
		loopDone:      make(chan struct{}),
		snapPoke:      make(chan struct{}, 1),
		cSnapshots:    cfg.Metrics.Counter("wal.snapshots"),
		cSnapRecords:  cfg.Metrics.Counter("wal.snapshot.records"),
		cSnapErrors:   cfg.Metrics.Counter("wal.snapshot.errors"),
		cTruncated:    cfg.Metrics.Counter("wal.segments.truncated"),
		cReplayed:     cfg.Metrics.Counter("wal.replay.records"),
		cReplayedTorn: cfg.Metrics.Counter("wal.replay.torn"),
	}
	return m, nil
}

// Dir returns the WAL directory.
func (m *Manager) Dir() string { return m.cfg.Dir }

// Metrics returns the manager's registry.
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Append enqueues one record for the next group commit. The returned
// Pending's Wait blocks until the record is durable.
func (m *Manager) Append(rec Record) *Pending { return m.log.append(rec) }

// AppendWait is Append + Wait.
func (m *Manager) AppendWait(rec Record) error { return m.log.append(rec).Wait() }

// Sync forces an fsync barrier: when it returns, every previously
// accepted append is durable.
func (m *Manager) Sync() error { return m.log.sync() }

// Close stops periodic snapshots, drains and commits every accepted
// append (flush-on-close), fsyncs and closes the active segment.
func (m *Manager) Close() error {
	m.loopOnce.Do(func() { close(m.loopDone) })
	m.loopWG.Wait()
	return m.log.close()
}

// replayFile is ReplayFile plus the manager's replay accounting.
func (m *Manager) replayFile(path string, apply func(Record) error) (int, bool, error) {
	return ReplayFile(path, func(rec Record) error {
		if err := apply(rec); err != nil {
			return err
		}
		m.cReplayed.Inc()
		return nil
	})
}

// Recover replays the newest snapshot (if any) and then every tail
// segment at or above its boundary, in order, stopping at the first torn
// record. It reads only — running it twice (or crashing during it and
// running it again) yields the same state. Call it exactly once, before
// the first Append.
func (m *Manager) Recover(apply func(Record) error) (RecoverStats, error) {
	var st RecoverStats
	if m.recovered {
		return st, fmt.Errorf("wal: Recover called twice")
	}
	m.recovered = true

	snaps, err := listIndexed(m.cfg.Dir, snapPrefix, snapSuffix)
	if err != nil {
		return st, err
	}
	if len(snaps) > 0 {
		st.SnapshotBoundary = snaps[len(snaps)-1]
		n, torn, err := m.replayFile(filepath.Join(m.cfg.Dir, snapName(st.SnapshotBoundary)), apply)
		st.SnapshotRecords = n
		if err != nil {
			return st, err
		}
		if torn {
			// Snapshots are written to a temp file and renamed, so a torn
			// snapshot is real corruption, not a crash artifact.
			return st, fmt.Errorf("wal: snapshot %d is corrupt", st.SnapshotBoundary)
		}
	}

	segs, err := listIndexed(m.cfg.Dir, segPrefix, segSuffix)
	if err != nil {
		return st, err
	}
	for _, idx := range segs {
		if idx < st.SnapshotBoundary {
			// Stale segment already covered by the snapshot — a crash
			// between snapshot rename and truncation leaves these behind.
			continue
		}
		if idx >= m.startSeg {
			break // the fresh segment this Open created
		}
		st.TailSegments++
		n, torn, err := m.replayFile(filepath.Join(m.cfg.Dir, segName(idx)), apply)
		st.TailRecords += n
		if err != nil {
			return st, err
		}
		if torn {
			// Stop at the first torn write *within this segment*: its
			// suffix was never acknowledged (or is rot — either way it is
			// gone on every recovery, deterministically). Segments after
			// it exist only if a post-crash restart appended them, and
			// that restart recovered exactly this prefix, so replaying
			// them preserves the lineage.
			st.Torn = true
			m.cReplayedTorn.Inc()
		}
	}
	return st, nil
}

// Snapshot takes one point-in-time snapshot. dump must call rotate()
// exactly once before its first sink() — typically while the dumped store
// is quiesced — so the snapshot's boundary cleanly splits "state captured
// here" from "records that will replay on top". After the snapshot file
// is durable, segments below the boundary and older snapshots are
// deleted.
func (m *Manager) Snapshot(dump func(rotate func() error, sink func(Record) error) error) error {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()

	tmp := filepath.Join(m.cfg.Dir, "snapshot"+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.Write(segMagic[:]); err != nil {
		f.Close()
		os.Remove(tmp)
		m.cSnapErrors.Inc()
		return err
	}
	enc := newSegEncoder() // private intern table: snapshots decode standalone
	var boundary uint64
	rotated := false
	rotate := func() error {
		if rotated {
			return fmt.Errorf("wal: snapshot rotated twice")
		}
		seg, err := m.log.rotate()
		if err != nil {
			return err
		}
		boundary, rotated = seg, true
		return nil
	}
	var frame []byte
	records := 0
	sink := func(rec Record) error {
		if !rotated {
			return fmt.Errorf("wal: snapshot sink used before rotation")
		}
		frame = enc.appendFrame(frame[:0], rec)
		records++
		_, err := bw.Write(frame)
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		m.cSnapErrors.Inc()
		return err
	}
	if err := dump(rotate, sink); err != nil {
		return fail(err)
	}
	if !rotated {
		return fail(fmt.Errorf("wal: snapshot dump never rotated the log"))
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	final := filepath.Join(m.cfg.Dir, snapName(boundary))
	if err := os.Rename(tmp, final); err != nil {
		return fail(err)
	}
	if err := syncDir(m.cfg.Dir); err != nil {
		return fail(err)
	}
	m.cSnapshots.Inc()
	m.cSnapRecords.Add(uint64(records))

	// Truncate: everything below the boundary is covered by the snapshot.
	if segs, err := listIndexed(m.cfg.Dir, segPrefix, segSuffix); err == nil {
		for _, idx := range segs {
			if idx < boundary {
				if os.Remove(filepath.Join(m.cfg.Dir, segName(idx))) == nil {
					m.cTruncated.Inc()
				}
			}
		}
	}
	if snaps, err := listIndexed(m.cfg.Dir, snapPrefix, snapSuffix); err == nil {
		for _, idx := range snaps {
			if idx < boundary {
				_ = os.Remove(filepath.Join(m.cfg.Dir, snapName(idx)))
			}
		}
	}
	return nil
}

// StartSnapshots runs Snapshot(dump) every interval until Close. Errors
// are counted (wal.snapshot.errors) and the loop keeps going — a failed
// snapshot only delays truncation, it never loses records. The loop
// starts even when interval <= 0 (parked), so SetSnapshotInterval can
// enable periodic snapshots later.
func (m *Manager) StartSnapshots(interval time.Duration, dump func(rotate func() error, sink func(Record) error) error) {
	m.snapIntv.Store(int64(interval))
	m.loopWG.Add(1)
	go func() {
		defer m.loopWG.Done()
		t := time.NewTimer(time.Hour)
		if !t.Stop() {
			<-t.C
		}
		defer t.Stop()
		for {
			// Re-arm from the current cadence each iteration so a reload
			// takes effect at the next wakeup; <= 0 parks until poked.
			var tick <-chan time.Time
			if iv := time.Duration(m.snapIntv.Load()); iv > 0 {
				t.Reset(iv)
				tick = t.C
			}
			select {
			case <-m.loopDone:
				return
			case <-m.snapPoke:
				if tick != nil && !t.Stop() {
					<-t.C
				}
			case <-tick:
				// Errors are already counted inside Snapshot.
				_ = m.Snapshot(dump)
			}
		}
	}()
}

// SetSnapshotInterval changes the periodic-snapshot cadence at runtime:
// the loop re-arms immediately, so a shortened interval does not wait out
// the old timer. d <= 0 parks periodic snapshots (manual Snapshot calls
// still work); a later positive value resumes them.
func (m *Manager) SetSnapshotInterval(d time.Duration) {
	m.snapIntv.Store(int64(d))
	select {
	case m.snapPoke <- struct{}{}:
	default: // a poke is already pending; the loop will re-read the knob
	}
}

// SnapshotInterval returns the current periodic-snapshot cadence.
func (m *Manager) SnapshotInterval() time.Duration {
	return time.Duration(m.snapIntv.Load())
}
