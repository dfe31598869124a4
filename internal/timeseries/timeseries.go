// Package timeseries implements the in-memory time-series store the SWAMP
// cloud and fog layers persist telemetry into: the stand-in for the
// historical-data backends of a FIWARE deployment (STH-Comet /
// QuantumLeap), offering the query shapes the analytics layer needs.
//
// The engine is sharded and chunked. Series are spread over hash-sharded
// maps (one lock each) so appends to different devices never contend, and
// each series stores its points as fixed-size chunks: sealed chunks are
// immutable and carry precomputed summaries (count/sum/min/max/first/last),
// so Summarize and AggregateWindows push aggregation down onto chunk
// summaries plus a partial scan of at most the two edge chunks per range —
// no point copying — and the heavy part of a read runs on a lock-free
// snapshot of the sealed slice. Retention is by point count
// (WithMaxPointsPerSeries) and by age (WithMaxAge plus a background
// eviction loop that also drops emptied series).
package timeseries

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/shardhash"
)

// Point is one sample in a series.
type Point struct {
	At    time.Time
	Value float64
}

// SeriesKey identifies a series: one device/quantity pair.
type SeriesKey struct {
	Device   string
	Quantity string
}

// String implements fmt.Stringer.
func (k SeriesKey) String() string { return k.Device + "/" + k.Quantity }

// Defaults for the tunable knobs.
const (
	// DefaultShards is the shard count used when WithShards is not given.
	DefaultShards = 8
	// DefaultChunkSize is the points-per-sealed-chunk used when
	// WithChunkSize is not given.
	DefaultChunkSize = 512
	// maxEvictionInterval is the longest the background eviction loop
	// waits between passes; a shorter retention window evicts once per
	// window instead.
	maxEvictionInterval = time.Minute
)

// Store is a concurrency-safe collection of series. The zero value is not
// usable; construct with New. Close releases the background eviction
// goroutine (a no-op when age-based retention is off).
type Store struct {
	shards    []*tsShard
	chunkSize int
	maxPoints int          // per-series retention by count, 0 = unlimited
	maxAge    atomic.Int64 // per-point retention by age in ns, 0 = unlimited; reloadable
	clk       clock.Clock

	// journal, when set, receives every accepted append; callers are only
	// acknowledged once the journal ack resolves. Set via SetJournal
	// before the store receives traffic.
	journal Journal

	nshards   int // applied by options before shards are built
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	loopMu      sync.Mutex // guards loopRunning/closed for lazy loop start
	loopRunning bool
	closed      bool
}

type tsShard struct {
	mu     sync.RWMutex
	series map[SeriesKey]*series
}

// Option configures a Store.
type Option func(*Store)

// WithMaxPointsPerSeries bounds per-series memory: when a series exceeds n
// points the oldest are dropped. The bound is exact while a series fits in
// its head run; once chunks have sealed it is chunk-granular — the oldest
// chunk drops when it is entirely over the cap, so a series may hold up to
// one extra chunk (keeping steady-state appends O(1) at the cap).
func WithMaxPointsPerSeries(n int) Option {
	return func(s *Store) { s.maxPoints = n }
}

// WithShards sets the number of hash-sharded series maps (default
// DefaultShards). Non-positive values keep the default.
func WithShards(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.nshards = n
		}
	}
}

// WithChunkSize sets the seal threshold: a series' head run seals into an
// immutable summarised chunk once it reaches n points (default
// DefaultChunkSize). Values below 2 keep the default.
func WithChunkSize(n int) Option {
	return func(s *Store) {
		if n >= 2 {
			s.chunkSize = n
		}
	}
}

// WithMaxAge enables time-based retention: points older than d are dropped
// by the background eviction loop, which runs every min(d, 1m), and by
// EvictExpired. Series emptied by eviction are removed entirely.
func WithMaxAge(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.maxAge.Store(int64(d))
		}
	}
}

// WithClock sets the time source for age-based retention; nil keeps the
// wall clock. Tests drive eviction with a simulated clock.
func WithClock(c clock.Clock) Option {
	return func(s *Store) {
		if c != nil {
			s.clk = c
		}
	}
}

// New constructs an empty store. If WithMaxAge is given, a background
// eviction goroutine starts; call Close to stop it.
func New(opts ...Option) *Store {
	s := &Store{
		nshards:   DefaultShards,
		chunkSize: DefaultChunkSize,
		clk:       clock.Real{},
	}
	for _, o := range opts {
		o(s)
	}
	s.shards = make([]*tsShard, s.nshards)
	for i := range s.shards {
		s.shards[i] = &tsShard{series: make(map[SeriesKey]*series)}
	}
	s.done = make(chan struct{})
	if s.maxAge.Load() > 0 {
		s.startEvictLoop()
	}
	return s
}

// SetMaxAge changes the retention window at runtime: d > 0 enables
// age-based eviction (starting the background loop if it never ran),
// d <= 0 disables it — retained points stop expiring but stay queryable.
func (s *Store) SetMaxAge(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.maxAge.Store(int64(d))
	if d > 0 {
		s.startEvictLoop()
	}
}

// MaxAge returns the current retention window (0 = unlimited).
func (s *Store) MaxAge() time.Duration { return time.Duration(s.maxAge.Load()) }

// startEvictLoop starts the background eviction goroutine once; the loop
// itself no-ops while retention is disabled, so it is safe to leave
// running across disable/enable cycles.
func (s *Store) startEvictLoop() {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if s.loopRunning || s.closed {
		return
	}
	s.loopRunning = true
	s.wg.Add(1)
	go s.evictLoop()
}

// Close stops the background eviction goroutine. Safe to call multiple
// times; the store itself remains usable for appends and queries.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		s.loopMu.Lock()
		s.closed = true
		s.loopMu.Unlock()
		close(s.done)
		s.wg.Wait()
	})
}

func (s *Store) evictLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.clk.After(s.evictionInterval()):
			s.EvictExpired()
		}
	}
}

// evictionInterval is the eviction loop's wait: min(MaxAge, 1m), or 1m
// while retention is disabled.
func (s *Store) evictionInterval() time.Duration {
	if d := s.MaxAge(); d > 0 && d < maxEvictionInterval {
		return d
	}
	return maxEvictionInterval
}

// EvictExpired applies age-based retention now: every point older than
// MaxAge is dropped and emptied series are removed. It returns the number
// of points dropped (0 while retention is disabled).
func (s *Store) EvictExpired() int {
	maxAge := time.Duration(s.maxAge.Load())
	if maxAge <= 0 {
		return 0
	}
	return s.DeleteBefore(s.clk.Now().Add(-maxAge))
}

// shardIndex hashes a series key onto its shard (FNV-1a over
// device + '/' + quantity, allocation-free).
func (s *Store) shardIndex(k SeriesKey) int {
	return shardhash.Index(len(s.shards), k.Device, k.Quantity)
}

func (s *Store) shardFor(k SeriesKey) *tsShard { return s.shards[s.shardIndex(k)] }

// ValidatePoint reports why a store refuses a point: an empty series key
// or a non-finite value.
func ValidatePoint(key SeriesKey, p Point) error {
	if key.Device == "" || key.Quantity == "" {
		return fmt.Errorf("timeseries: empty series key")
	}
	if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
		return fmt.Errorf("timeseries %s: non-finite value", key)
	}
	return nil
}

// appendLocked inserts p into the (existing or new) series for key and
// applies count-based retention. The shard write lock must be held.
// applyLocked inserts a point without enforcing the retention cap. The
// journaled paths use it and defer eviction until the ack succeeds (see
// enforceCapGroup): evicting before durability is known would let a
// failed batch's rollback — which removes only the new points — drain a
// capped series a little further on every retry.
func (s *Store) applyLocked(sh *tsShard, key SeriesKey, p Point) {
	sr := sh.series[key]
	if sr == nil {
		sr = &series{}
		sh.series[key] = sr
	}
	sr.appendLocked(p, s.chunkSize)
}

// appendLocked is applyLocked plus immediate cap enforcement — the
// unjournaled path.
func (s *Store) appendLocked(sh *tsShard, key SeriesKey, p Point) {
	s.applyLocked(sh, key, p)
	if s.maxPoints > 0 {
		sh.series[key].enforceCapLocked(s.maxPoints)
	}
}

// enforceCapGroup applies the retention cap to every series in pts —
// the deferred half of applyLocked, run after a successful journal ack.
func (s *Store) enforceCapGroup(sh *tsShard, pts []BatchPoint) {
	if s.maxPoints <= 0 {
		return
	}
	sh.mu.Lock()
	for _, bp := range pts {
		if sr := sh.series[bp.Key]; sr != nil {
			sr.enforceCapLocked(s.maxPoints)
		}
	}
	sh.mu.Unlock()
}

// JournalAck is the durability handle a Journal hook returns: Wait
// blocks until the logged append is durable.
type JournalAck interface {
	Wait() error
}

// Journal receives every accepted append after it has been applied in
// memory, called under the shard lock so log order matches apply order
// per shard; the Wait happens after the lock is released. Together with
// DumpFrozen's full-store freeze this gives exact-count recovery:
// snapshot state plus tail replay reproduces precisely the acknowledged
// points, with no duplicates and no losses.
type Journal interface {
	PointsAppended(batch []BatchPoint) JournalAck
}

// SetJournal attaches a journal. It must be called before the store
// receives traffic (between recovery and serving) — the field is read
// without synchronization on the append paths.
func (s *Store) SetJournal(j Journal) { s.journal = j }

// Append adds a point to the series identified by key: a one-point
// AppendBatch that reports the point's validation error. Out-of-order
// appends are accepted and inserted in timestamp order.
func (s *Store) Append(key SeriesKey, p Point) error {
	if err := ValidatePoint(key, p); err != nil {
		return err
	}
	_, _, err := s.AppendBatch([]BatchPoint{{Key: key, Point: p}})
	return err
}

// rollback removes a group of just-applied points whose journal ack
// failed, so the in-memory state matches the reported outcome and a
// caller's retry cannot duplicate points. A series emptied by the
// rollback is dropped from the shard map (else device churn during a
// durability outage would grow it unboundedly). Returns how many points
// were actually removed (one may already be gone via the retention cap).
func (s *Store) rollback(sh *tsShard, pts []BatchPoint) int {
	removed := 0
	sh.mu.Lock()
	for _, bp := range pts {
		sr := sh.series[bp.Key]
		if sr == nil {
			continue
		}
		if sr.removeLocked(bp.Point) {
			removed++
		}
		if sr.totalLocked() == 0 {
			delete(sh.series, bp.Key)
		}
	}
	sh.mu.Unlock()
	return removed
}

// BatchPoint is one entry of an AppendBatch: a point addressed to a series.
type BatchPoint struct {
	Key   SeriesKey
	Point Point
}

// AppendBatch appends a batch of points taking each shard lock at most
// once, however many series the batch touches. Invalid entries (empty key,
// non-finite value) are skipped; every valid entry lands. It returns how
// many points were accepted, how many rejected, and — when a journal is
// attached — the durability error. The batch journals as a single
// record, so durability is all-or-nothing: on a failed ack every
// applied point is rolled back (removed from memory, not counted
// accepted), and the caller's retry cannot duplicate a
// partially-committed prefix.
func (s *Store) AppendBatch(batch []BatchPoint) (accepted, rejected int, err error) {
	if len(batch) == 0 {
		return 0, 0, nil
	}
	// order holds one key per valid point: its shard in the high half, its
	// batch index in the low. Sorted, it lists the points shard by shard,
	// in batch order within a shard. A fog trip's batch fits the stack.
	var stack [128]uint64
	order := stack[:0]
	if len(batch) > len(stack) {
		order = make([]uint64, 0, len(batch))
	}
	for i := range batch {
		if ValidatePoint(batch[i].Key, batch[i].Point) != nil {
			rejected++
			continue
		}
		order = append(order, uint64(s.shardIndex(batch[i].Key))<<32|uint64(i))
	}
	if len(order) == 0 {
		return 0, rejected, nil
	}
	slices.Sort(order)
	// Lock every touched shard (ascending index, the same order
	// DumpFrozen uses) and enqueue ONE record for the whole batch while
	// holding them: log order matches apply order on every shard, the
	// snapshot freeze still cleanly splits applied-and-logged from
	// not-yet-applied, and the single record is what makes durability
	// all-or-nothing across shards.
	for from := 0; from < len(order); from = shardRunEnd(order, from) {
		s.shards[order[from]>>32].mu.Lock()
	}
	var applied []BatchPoint
	if s.journal != nil {
		applied = make([]BatchPoint, 0, len(order))
	}
	for _, k := range order {
		sh, bp := s.shards[k>>32], batch[uint32(k)]
		if s.journal != nil {
			s.applyLocked(sh, bp.Key, bp.Point)
			applied = append(applied, bp)
		} else {
			s.appendLocked(sh, bp.Key, bp.Point)
		}
	}
	var ack JournalAck
	if s.journal != nil {
		ack = s.journal.PointsAppended(applied)
	}
	for from := 0; from < len(order); from = shardRunEnd(order, from) {
		s.shards[order[from]>>32].mu.Unlock()
	}
	accepted = len(order)
	if ack != nil {
		werr := ack.Wait()
		for from, to := 0, 0; from < len(order); from = to {
			to = shardRunEnd(order, from)
			sh := s.shards[order[from]>>32]
			if werr != nil {
				accepted -= s.rollback(sh, applied[from:to])
			} else {
				s.enforceCapGroup(sh, applied[from:to])
			}
		}
		err = werr
	}
	return accepted, rejected, err
}

// shardRunEnd returns the end of the run of AppendBatch keys from order[from]
// that share its shard.
func shardRunEnd(order []uint64, from int) int {
	to := from + 1
	for to < len(order) && order[to]>>32 == order[from]>>32 {
		to++
	}
	return to
}

// DumpFrozen write-locks every shard, calls prepare (the snapshot's WAL
// rotation barrier), captures every series' state, then releases the
// locks and streams the captured points to sink in timestamp order.
// Because appenders enqueue their journal record before releasing the
// shard lock, the freeze guarantees the captured state contains exactly
// the points whose records precede the rotation — recovery replays
// snapshot + tail with neither duplicates nor losses. The freeze lasts
// only as long as the capture (sealed chunks are immutable so only head
// runs are copied — memory speed, no disk I/O); appends resume while
// sink serializes and writes. sink must not retain pts.
func (s *Store) DumpFrozen(prepare func() error, sink func(key SeriesKey, pts []Point) error) error {
	type run struct {
		key SeriesKey
		pts []Point
	}
	var runs []run
	err := func() error {
		for _, sh := range s.shards {
			sh.mu.Lock()
		}
		defer func() {
			for _, sh := range s.shards {
				sh.mu.Unlock()
			}
		}()
		if prepare != nil {
			if err := prepare(); err != nil {
				return err
			}
		}
		for _, sh := range s.shards {
			for k, sr := range sh.series {
				for _, c := range sr.loadSealed() {
					runs = append(runs, run{key: k, pts: c.pts})
				}
				if len(sr.head) > 0 {
					// The head run mutates in place after the freeze
					// lifts (in-place inserts, retention trims), so it
					// is the one thing that must be copied.
					head := make([]Point, len(sr.head))
					copy(head, sr.head)
					runs = append(runs, run{key: k, pts: head})
				}
			}
		}
		return nil
	}()
	if err != nil {
		return err
	}
	for _, r := range runs {
		if err := sink(r.key, r.pts); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of points currently held for key.
func (s *Store) Len(key SeriesKey) int {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sr := sh.series[key]; sr != nil {
		return sr.totalLocked()
	}
	return 0
}

// Keys returns all series keys, sorted for determinism.
func (s *Store) Keys() []SeriesKey {
	var keys []SeriesKey
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.series {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Device != keys[j].Device {
			return keys[i].Device < keys[j].Device
		}
		return keys[i].Quantity < keys[j].Quantity
	})
	return keys
}

// snapshot captures a consistent view of one series: the immutable sealed
// slice plus a copy of the head points overlapping [from, to). The head
// copy is bounded by the chunk size; the sealed chunks are processed
// lock-free after the shard lock is released.
func (s *Store) snapshot(key SeriesKey, from, to time.Time) (sealed []*chunk, head []Point, ok bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	sr := sh.series[key]
	if sr == nil {
		sh.mu.RUnlock()
		return nil, nil, false
	}
	sealed = sr.loadSealed()
	lo := searchPoints(sr.head, from)
	hi := searchPoints(sr.head, to)
	if lo < hi {
		head = make([]Point, hi-lo)
		copy(head, sr.head[lo:hi])
	}
	sh.mu.RUnlock()
	return sealed, head, true
}

// Iter streams the points of key in [from, to) to fn in timestamp order,
// without materialising the range. fn returning false stops the iteration.
// fn runs outside the store's locks, so it may call back into the store.
func (s *Store) Iter(key SeriesKey, from, to time.Time, fn func(Point) bool) {
	sealed, head, ok := s.snapshot(key, from, to)
	if !ok {
		return
	}
	for _, c := range sealed {
		if c.last.At.Before(from) {
			continue
		}
		if !c.first.At.Before(to) {
			break
		}
		for _, p := range c.pts[searchPoints(c.pts, from):] {
			if !p.At.Before(to) {
				break
			}
			if !fn(p) {
				return
			}
		}
	}
	for _, p := range head {
		if !fn(p) {
			return
		}
	}
}

// Range returns a copy of the points in [from, to) for key, in order.
func (s *Store) Range(key SeriesKey, from, to time.Time) []Point {
	var out []Point
	s.Iter(key, from, to, func(p Point) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Latest returns the most recent point for key, and whether one exists.
func (s *Store) Latest(key SeriesKey) (Point, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sr := sh.series[key]; sr != nil {
		return sr.latestLocked()
	}
	return Point{}, false
}

// ForEachLatest calls fn with the most recent point of every series. It
// walks each shard once under its read lock, so it is much cheaper than
// Keys+Latest per key at fleet scale. fn runs under a shard lock and must
// not call back into the store; iteration order is unspecified.
func (s *Store) ForEachLatest(fn func(SeriesKey, Point)) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, sr := range sh.series {
			if p, ok := sr.latestLocked(); ok {
				fn(k, p)
			}
		}
		sh.mu.RUnlock()
	}
}

// Aggregate summarises the points of key in [from, to).
type Aggregate struct {
	Count int
	Min   float64
	Max   float64
	Mean  float64
	Sum   float64
}

func (a *Aggregate) addPoint(v float64) {
	a.Count++
	a.Sum += v
	if v < a.Min {
		a.Min = v
	}
	if v > a.Max {
		a.Max = v
	}
}

func (a *Aggregate) addChunk(c *chunk) {
	a.Count += c.count
	a.Sum += c.sum
	if c.min < a.Min {
		a.Min = c.min
	}
	if c.max > a.Max {
		a.Max = c.max
	}
}

func (a *Aggregate) finalize() {
	if a.Count > 0 {
		a.Mean = a.Sum / float64(a.Count)
	} else {
		a.Min, a.Max = 0, 0
	}
}

// aggregateRange accumulates the points of pts within [from, to) into agg.
func aggregateRange(agg *Aggregate, pts []Point, from, to time.Time) {
	for _, p := range pts[searchPoints(pts, from):] {
		if !p.At.Before(to) {
			break
		}
		agg.addPoint(p.Value)
	}
}

// Summarize computes an Aggregate over [from, to). Count==0 means no data.
//
// This is the aggregate-pushdown path: chunks fully inside the range
// contribute their precomputed summary, only the at-most-two edge chunks
// are scanned (in place — sealed chunks are immutable, so the scan runs on
// a lock-free snapshot), and the head run is aggregated under the shard
// read lock. No points are copied and nothing is allocated.
func (s *Store) Summarize(key SeriesKey, from, to time.Time) Aggregate {
	agg := Aggregate{Min: math.Inf(1), Max: math.Inf(-1)}
	sh := s.shardFor(key)
	sh.mu.RLock()
	sr := sh.series[key]
	var sealed []*chunk
	if sr != nil {
		sealed = sr.loadSealed()
		aggregateRange(&agg, sr.head, from, to)
	}
	sh.mu.RUnlock()
	for _, c := range sealed {
		if c.last.At.Before(from) {
			continue
		}
		if !c.first.At.Before(to) {
			break
		}
		if !c.first.At.Before(from) && c.last.At.Before(to) {
			agg.addChunk(c) // fully covered: summary only
		} else {
			aggregateRange(&agg, c.pts, from, to) // edge chunk: partial scan
		}
	}
	agg.finalize()
	return agg
}

// WindowAggregate is one window of an AggregateWindows result, stamped at
// the window start.
type WindowAggregate struct {
	Start time.Time
	Aggregate
}

// AggregateWindows buckets the points of key in [from, to) into fixed
// windows aligned to from and returns one Aggregate per non-empty window,
// in order. Chunks that fall entirely inside one window contribute their
// precomputed summary; only edge and window-straddling chunks are scanned.
func (s *Store) AggregateWindows(key SeriesKey, from, to time.Time, window time.Duration) ([]WindowAggregate, error) {
	if window <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive window %v", window)
	}
	if !from.Before(to) {
		return nil, nil
	}
	sealed, head, ok := s.snapshot(key, from, to)
	if !ok {
		return nil, nil
	}

	var out []WindowAggregate
	cur := WindowAggregate{}
	curIdx := int64(-1)
	winOf := func(at time.Time) int64 { return int64(at.Sub(from) / window) }
	startWin := func(idx int64) {
		if cur.Count > 0 {
			cur.finalize()
			out = append(out, cur)
		}
		curIdx = idx
		cur = WindowAggregate{
			Start:     from.Add(time.Duration(idx) * window),
			Aggregate: Aggregate{Min: math.Inf(1), Max: math.Inf(-1)},
		}
	}
	addPoint := func(p Point) {
		if idx := winOf(p.At); idx != curIdx {
			startWin(idx)
		}
		cur.addPoint(p.Value)
	}

	for _, c := range sealed {
		if c.last.At.Before(from) {
			continue
		}
		if !c.first.At.Before(to) {
			break
		}
		if !c.first.At.Before(from) && c.last.At.Before(to) && winOf(c.first.At) == winOf(c.last.At) {
			// Whole chunk inside one window: summary pushdown.
			if idx := winOf(c.first.At); idx != curIdx {
				startWin(idx)
			}
			cur.addChunk(c)
			continue
		}
		for _, p := range c.pts[searchPoints(c.pts, from):] {
			if !p.At.Before(to) {
				break
			}
			addPoint(p)
		}
	}
	for _, p := range head {
		addPoint(p)
	}
	if cur.Count > 0 {
		cur.finalize()
		out = append(out, cur)
	}
	return out, nil
}

// Downsample buckets the points of key in [from, to) into fixed windows and
// returns one mean point per non-empty window, stamped at the window start.
func (s *Store) Downsample(key SeriesKey, from, to time.Time, window time.Duration) ([]Point, error) {
	wins, err := s.AggregateWindows(key, from, to, window)
	if err != nil || len(wins) == 0 {
		return nil, err
	}
	out := make([]Point, len(wins))
	for i, w := range wins {
		out[i] = Point{At: w.Start, Value: w.Mean}
	}
	return out, nil
}

// DeleteBefore removes all points older than cutoff from every series,
// drops series left empty, and returns how many points were removed.
// DeleteSeries drops one series entirely, returning how many points it
// held. Like DeleteBefore it is a retention/administrative operation:
// the deletion is not journaled, so a WAL-backed store resurrects the
// series on recovery unless a snapshot intervenes. The cluster plane
// uses it to wipe partition-owned series before installing a bootstrap
// snapshot (and takes a local snapshot right after, closing that gap).
func (s *Store) DeleteSeries(key SeriesKey) int {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sr := sh.series[key]
	if sr == nil {
		return 0
	}
	n := sr.totalLocked()
	delete(sh.series, key)
	return n
}

func (s *Store) DeleteBefore(cutoff time.Time) int {
	dropped := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k, sr := range sh.series {
			dropped += sr.deleteBeforeLocked(cutoff)
			if sr.totalLocked() == 0 {
				delete(sh.series, k)
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Stats is a point-in-time inventory of the store.
type Stats struct {
	Series       int // live series
	SealedChunks int // immutable summarised chunks
	Points       int // total points, head runs included
}

// Stats walks every shard under its read lock and returns the inventory.
func (s *Store) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, sr := range sh.series {
			st.Series++
			st.SealedChunks += len(sr.loadSealed())
			st.Points += sr.totalLocked()
		}
		sh.mu.RUnlock()
	}
	return st
}

// ShardCount returns the number of series shards.
func (s *Store) ShardCount() int { return len(s.shards) }
