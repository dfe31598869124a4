package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/swamp-project/swamp/internal/metrics"
)

// ErrClosed is returned for appends against a closed log.
var ErrClosed = errors.New("wal: closed")

// On-disk names: segments are wal-<seq>.log, snapshots snapshot-<seq>.snap.
// A snapshot named with boundary B covers every record in segments < B.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snapshot-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func segName(idx uint64) string  { return fmt.Sprintf("%s%016d%s", segPrefix, idx, segSuffix) }
func snapName(idx uint64) string { return fmt.Sprintf("%s%016d%s", snapPrefix, idx, snapSuffix) }

// parseIndexed extracts the sequence number from an indexed file name.
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	return n, err == nil
}

// listIndexed returns the sorted sequence numbers of dir entries with the
// given prefix/suffix.
func listIndexed(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if idx, ok := parseIndexed(e.Name(), prefix, suffix); ok {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// controlOp marks a Pending as a committer control request rather than a
// record append.
type controlOp uint8

const (
	ctlNone controlOp = iota
	ctlSync
	ctlRotate
)

// Pending is the durability handle of one enqueued append: Wait blocks
// until the record's group commit has fsynced (or failed).
type Pending struct {
	rec  Record
	ctl  controlOp
	done chan struct{}
	err  error
	seg  uint64 // rotation result: the new active segment index
}

// Wait blocks until the record is durable and returns the commit error.
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

// failedPending builds an already-released Pending carrying err.
func failedPending(err error) *Pending {
	p := &Pending{done: make(chan struct{}), err: err}
	close(p.done)
	return p
}

// wlog is the segmented append log. All file state (active segment, size)
// belongs to the single committer goroutine; callers interact only
// through the commit queue.
type wlog struct {
	dir          string
	segmentBytes int64
	maxBatch     int

	queue chan *Pending
	done  chan struct{}
	wg    sync.WaitGroup

	qmu    sync.RWMutex
	closed bool

	// Committer-goroutine state.
	f    *os.File
	seg  uint64
	size int64
	// enc frames records for the active segment and owns its string
	// intern table; reset on every rotation so each segment decodes
	// standalone.
	enc *segEncoder
	// segRec counts records written to the active segment; a record's
	// position is (seg, segRec) with segRec 1-based, so positions are
	// stable across restarts: sealed segments are immutable and every
	// process appends to a fresh segment.
	segRec uint64
	// hooked accumulates (record, position) pairs of the current batch;
	// after the batch's fsync succeeds — and before any Pending is
	// released — the commit hook observes them. That ordering is what
	// lets a replication watermark taken after an acknowledged append
	// always cover that append.
	hooked []hookEvent
	hook   atomic.Pointer[CommitHook]
	// fatal latches the first write/fsync/rotation failure. Once set,
	// every subsequent batch fails without touching the file: a failed
	// write may have left a torn frame mid-segment (records appended
	// after it would be acknowledged yet unreachable by replay, which
	// stops at the first torn frame), and after a failed fsync the
	// kernel may have dropped the dirty pages — a later successful
	// fsync proves nothing about them.
	fatal error

	cRecords   *metrics.Counter
	cBytes     *metrics.Counter
	cFsyncs    *metrics.Counter
	cRotations *metrics.Counter
	gSegment   *metrics.Gauge
}

// createSegment creates (exclusively) the segment file for idx, writes
// the v2 header and makes the directory entry durable. The magic is not
// fsynced on its own: the first group commit's fsync covers it, and a
// torn header means no record in the segment was ever acknowledged.
func createSegment(dir string, idx uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(idx)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// queueLen bounds the commit queue; an append past it blocks.
const queueLen = 4096

// openLog starts the committer on a fresh segment with index startSeg.
func openLog(dir string, startSeg uint64, segmentBytes int64, reg *metrics.Registry) (*wlog, error) {
	f, err := createSegment(dir, startSeg)
	if err != nil {
		return nil, err
	}
	l := &wlog{
		dir:          dir,
		segmentBytes: segmentBytes,
		maxBatch:     4096,
		queue:        make(chan *Pending, queueLen),
		done:         make(chan struct{}),
		f:            f,
		seg:          startSeg,
		size:         int64(len(segMagic)),
		enc:          newSegEncoder(),
		cRecords:     reg.Counter("wal.append.records"),
		cBytes:       reg.Counter("wal.append.bytes"),
		cFsyncs:      reg.Counter("wal.fsync"),
		cRotations:   reg.Counter("wal.rotations"),
		gSegment:     reg.Gauge("wal.segment.active"),
	}
	l.gSegment.Set(float64(startSeg))
	l.wg.Add(1)
	go l.run()
	return l, nil
}

// enqueue submits a Pending, returning an already-failed handle when the
// log is closed. The RLock makes close() a barrier: once close holds the
// write lock, no sender is in flight, so draining the queue drains
// everything that was ever accepted.
func (l *wlog) enqueue(p *Pending) *Pending {
	l.qmu.RLock()
	if l.closed {
		l.qmu.RUnlock()
		return failedPending(ErrClosed)
	}
	l.queue <- p
	l.qmu.RUnlock()
	return p
}

// append enqueues one record for the next group commit. Oversized
// records are rejected up front: writing one would be acknowledged but
// replay as torn (readRecord bounds allocations at MaxRecordBytes),
// silently truncating recovery of that segment.
func (l *wlog) append(rec Record) *Pending {
	if n := maxBodyBytes(rec); n > MaxRecordBytes {
		return failedPending(fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", n))
	}
	return l.enqueue(&Pending{rec: rec, done: make(chan struct{})})
}

// sync enqueues an fsync barrier and waits for it.
func (l *wlog) sync() error {
	return l.enqueue(&Pending{ctl: ctlSync, done: make(chan struct{})}).Wait()
}

// rotate seals the active segment and starts a new one, returning the new
// segment's index. Every record enqueued before rotate lands in segments
// below the returned index; every later one lands at or above it — the
// boundary snapshots are named after.
func (l *wlog) rotate() (uint64, error) {
	p := l.enqueue(&Pending{ctl: ctlRotate, done: make(chan struct{})})
	err := p.Wait()
	return p.seg, err
}

// close drains the queue (group-committing everything accepted so far),
// fsyncs and closes the active segment.
func (l *wlog) close() error {
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		return nil
	}
	l.closed = true
	l.qmu.Unlock()
	close(l.done)
	l.wg.Wait()
	if l.fatal != nil {
		// The file may already be closed (failed rotation) and its
		// durability is unknown either way; surface the latched error.
		l.f.Close()
		return l.fatal
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// run is the committer: it drains the queue into group commits — one
// fsync per batch, however many appenders are blocked on it.
func (l *wlog) run() {
	defer l.wg.Done()
	var buf []byte
	batch := make([]*Pending, 0, 64)
	for {
		select {
		case p := <-l.queue:
			batch = l.collect(append(batch[:0], p))
			l.commit(batch, &buf)
		case <-l.done:
			for {
				select {
				case p := <-l.queue:
					batch = l.collect(append(batch[:0], p))
					l.commit(batch, &buf)
				default:
					return
				}
			}
		}
	}
}

// collect gathers everything immediately available, bounded by maxBatch.
// This is the group-commit lever: every record in the batch shares one
// fsync, so batching emerges under concurrency while an idle log fsyncs
// as soon as the queue drains, with no added latency.
func (l *wlog) collect(batch []*Pending) []*Pending {
	for len(batch) < l.maxBatch {
		select {
		case p := <-l.queue:
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// commit writes a batch, fsyncs once, then releases every waiter. On
// error the whole batch is failed — some prefix may in fact be durable,
// but reporting failure for a durable record is safe (callers treat it
// as not acknowledged) — and the error latches (see wlog.fatal): the log
// refuses all further work rather than acknowledge records it cannot
// promise to recover.
func (l *wlog) commit(batch []*Pending, bufp *[]byte) {
	if l.fatal != nil {
		for _, p := range batch {
			p.err = l.fatal
			close(p.done)
		}
		return
	}
	hook := l.hook.Load()
	var err error
	dirty := false
	flush := func() {
		if err == nil && dirty {
			err = l.f.Sync()
			l.cFsyncs.Inc()
			dirty = false
		}
	}
	for _, p := range batch {
		if err != nil {
			p.err = err
			continue
		}
		switch p.ctl {
		case ctlSync:
			flush()
			p.err = err
		case ctlRotate:
			flush()
			if err == nil {
				err = l.rotateFile()
			}
			p.seg, p.err = l.seg, err
		default:
			// The roll decision comes before encoding: framing interns
			// the record's strings into the active segment's table, so a
			// frame must never be encoded against one segment and written
			// to the next. maxBodyBytes over-estimates (it assumes every
			// string is an inline definition), which only rolls slightly
			// early.
			if l.size > int64(len(segMagic)) && l.size+int64(frameHeader+maxBodyBytes(p.rec)) > l.segmentBytes {
				flush()
				if err == nil {
					err = l.rotateFile()
				}
			}
			if err == nil {
				*bufp = l.enc.appendFrame((*bufp)[:0], p.rec)
				frame := *bufp
				_, werr := l.f.Write(frame)
				err = werr
				if werr == nil {
					l.size += int64(len(frame))
					l.segRec++
					if hook != nil {
						l.hooked = append(l.hooked, hookEvent{p.rec, Pos{Seg: l.seg, Rec: l.segRec}})
					}
					dirty = true
					l.cRecords.Inc()
					l.cBytes.Add(uint64(len(frame)))
				}
			}
			p.err = err
		}
	}
	flush()
	if err != nil {
		l.fatal = fmt.Errorf("wal: log failed, rejecting further appends: %w", err)
	}
	if hook != nil && err == nil {
		for _, ev := range l.hooked {
			(*hook)(ev.rec, ev.pos)
		}
	}
	l.hooked = l.hooked[:0]
	for _, p := range batch {
		if p.err == nil {
			p.err = err
		}
		close(p.done)
	}
}

// rotateFile seals the active segment and opens the next. Committer
// goroutine only.
func (l *wlog) rotateFile() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := createSegment(l.dir, l.seg+1)
	if err != nil {
		return err
	}
	l.seg++
	l.f, l.size = f, int64(len(segMagic))
	l.segRec = 0
	l.enc.reset()
	l.cRotations.Inc()
	l.gSegment.Set(float64(l.seg))
	return nil
}
