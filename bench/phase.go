package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// readers is the number of dashboard clients of the read regime, each a
	// closed loop on its own keep-alive connection. One reader alone is a
	// ping-pong between two mostly idle cores, and on a VM every hop of it is
	// a halted-vCPU wake-up: four keep both cores busy, which is what made
	// two runs agree (queries/s range 8 % against 15 %, p90 10 % against 24 %).
	readers = 4
	// opTimeout is how long an operation may take before it is a failure.
	opTimeout = 5 * time.Second
	// sliceLen is the throughput slice; a phase reports the median slice.
	sliceLen = 2 * time.Second
	// samplePeriod is the cadence of the backlog / counter sampler.
	samplePeriod = 100 * time.Millisecond
	// postWindow bounds undelivered webhook POSTs, below the platform's
	// per-subscription queue of 64. On ingest_fleet, where every reading is
	// notified, it is the window that paces the loop: notifications complete
	// one by one, where the stored count advances a commit at a time.
	postWindow = 48
	// ackWindow bounds unacknowledged publishes in a closed loop — a real
	// client's max-inflight — below the broker's per-session control queue
	// of 256, which drops PUBACKs when its writer is starved of a processor.
	ackWindow = 128
	// maxWriteRate sizes the per-reading record array of a closed loop.
	maxWriteRate = 60_000
	// storeSampleEvery picks the readings whose store visibility is traced.
	storeSampleEvery = 100
)

// readingRec holds the timestamps of one reading, in nanoseconds since the
// phase began (0 = not yet). Each field has exactly one writer goroutine.
type readingRec struct {
	due, written, puback, callback, posted, stored atomic.Int64
}

// phaseCfg selects how a phase drives the fixture.
type phaseCfg struct {
	span time.Duration // measured length; 0 when bounded by counts only

	// Writer: open loop at writeRate when > 0, else closed loop; at most
	// window readings outstanding end to end either way.
	writeRate   float64
	window      int
	maxReadings int // closed loop stops after this many (0 = run for span)

	// Reader: closed loop, one query at a time.
	maxQueries int // stops after this many (0 = run for span)

	noWriter, noReader bool

	traced bool
}

// phase is one driven interval — a warm-up or a measured phase — and the
// record of everything that happened in it.
type phase struct {
	fx  *fixture
	cfg phaseCfg
	t0  time.Time

	kBase int          // index of the phase's first reading
	recs  []readingRec // one per reading published in the phase

	published atomic.Int64 // readings written to the MQTT connection
	expected  atomic.Int64 // of those, readings the webhook must POST
	posts     atomic.Int64 // POSTs the sink matched to a reading
	acked     atomic.Int64 // PUBACKs matched to a reading
	queriesOK atomic.Int64
	issued    atomic.Int64

	storedBase int64 // cloud.ingest.readings when the phase began
	storedEnd  int64 // … and once it had drained

	genLate  sample           // µs the open-loop writer ran behind its schedule
	queryLat [numKinds]sample // µs, per kind
	queryAll timed
	queries  tally
	queryErr []string // first few query failures, for the log
	qmu      sync.Mutex

	samples []phaseSample
	// pubAt[i] is published+1 as the sampler saw it during tick i (0 = tick
	// missed): the timeline the reader's lower bounds are read from.
	pubAt    []atomic.Int64
	storeTap chan int // traced phases: reading indexes to watch in the store; never closed, the dispatcher may still send

	counters map[string]float64 // platform counter deltas over the phase
	cpuS     float64            // process CPU seconds over the phase
	gcPause  time.Duration
}

type phaseSample struct {
	at                      float64 // seconds since t0
	steal, cpuTotal         float64 // machine-wide CPU time so far, in jiffies (/proc/stat)
	calib                   float64 // µs of thread CPU the calibration kernel took this tick
	stored, queries         float64
	lagPoints               float64
	ngsiDepth, webhookDepth float64
}

func (ph *phase) ns(at time.Time) int64 {
	if d := int64(at.Sub(ph.t0)); d > 0 {
		return d
	}
	return 1
}

// rec returns the record of reading k (counted from platform start), or nil
// when k is not a reading of this phase.
func (ph *phase) rec(k int) *readingRec {
	i := k - ph.kBase
	if i < 0 || i >= int(ph.published.Load()) {
		return nil
	}
	return &ph.recs[i]
}

// sleepUntil blocks until the due time in the kernel's high-resolution
// nanosleep. time.Sleep would wake up to a millisecond late whenever the Go
// scheduler is idle (its poller waits in whole milliseconds), and spinning
// would take a core of a two-core box from the program under test.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (runtime preemption signals): loop re-computes the rest
	}
}

// runPhase drives one phase to completion: writer, reader and sampler run
// concurrently, then the pipeline drains.
func (fx *fixture) runPhase(cfg phaseCfg) *phase {
	ph := &phase{fx: fx, cfg: cfg, kBase: fx.nextK}
	capacity := cfg.maxReadings
	switch {
	case cfg.writeRate > 0:
		capacity = int(cfg.writeRate * cfg.span.Seconds())
	case capacity == 0:
		capacity = int(maxWriteRate * cfg.span.Seconds())
	}
	ph.recs = make([]readingRec, capacity)
	ph.pubAt = make([]atomic.Int64, int((cfg.span+time.Minute)/samplePeriod))
	if cfg.traced {
		ph.storeTap = make(chan int, 1024) // sampled readings awaiting store visibility; overflow skips the sample
	}
	before := fx.counterSnapshot()
	cpu0 := processCPU()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	ph.storedBase = fx.storedPoints()
	ph.t0 = time.Now()
	fx.cur.Store(ph)

	stopSampler := make(chan struct{})
	var aux, drivers sync.WaitGroup
	aux.Add(1)
	go func() { defer aux.Done(); ph.sampler(stopSampler) }()
	if cfg.traced {
		aux.Add(1)
		go func() { defer aux.Done(); ph.watchStore(stopSampler) }()
	}
	if !cfg.noWriter {
		drivers.Add(1)
		go func() { defer drivers.Done(); ph.write() }()
	}
	if !cfg.noReader {
		for i := 0; i < readers; i++ {
			drivers.Add(1)
			go func() { defer drivers.Done(); ph.read() }()
		}
	}
	drivers.Wait()
	ph.drain()
	ph.storedEnd = fx.storedPoints()
	close(stopSampler)
	aux.Wait()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	ph.cpuS = processCPU() - cpu0
	ph.counters = fx.counterSnapshot()
	for name, v := range before {
		ph.counters[name] -= v
	}
	return ph
}

// windowsFull reports whether the writer must hold: window readings are
// outstanding end to end — published but not yet counted durable in the
// store — or the broker's acknowledgements or the webhook's deliveries have
// fallen a full window of their own behind what was published.
func (ph *phase) windowsFull() bool {
	pub := ph.published.Load()
	stored := (ph.fx.storedPoints() - ph.storedBase) / 2
	return pub-stored >= int64(ph.cfg.window) || pub-ph.acked.Load() >= ackWindow || ph.expected.Load()-ph.posts.Load() >= postWindow
}

// write is the load generator's single writer.
func (ph *phase) write() {
	fx, cfg := ph.fx, ph.cfg
	var payload []byte
	send := func(due time.Time) bool {
		i := int(ph.published.Load())
		if i >= len(ph.recs) {
			return false
		}
		k := ph.kBase + i
		probe, seq := fx.order.at(k)
		if seq > maxSeq {
			return false
		}
		rec := &ph.recs[i]
		rec.due.Store(ph.ns(due))
		payload = fx.model.payload(payload, probe, seq)
		pid := uint16(k%65535) + 1
		fx.pidK[pid].Store(int64(k) + 1)
		fx.sentSeq[probe].Store(int32(seq))
		if fx.subscribed[probe] {
			ph.expected.Add(1)
		}
		ph.published.Add(1)
		if err := fx.mq.publish(fx.topics[probe], payload, pid); err != nil {
			return false
		}
		fx.nextK = k + 1
		return true
	}

	if cfg.writeRate > 0 {
		sched := arrivals(fx.seed, streamWrites+uint64(ph.kBase)<<8, len(ph.recs), cfg.span)
		for i, off := range sched {
			due := ph.t0.Add(off)
			sleepUntil(due)
			// Like any client with a max-inflight, the open loop holds a due
			// reading back while a window is full — which takes a stall of
			// the machine, after which a burst falls due at once; the wait
			// counts as lateness and into the reading's latency.
			for hold := time.Now(); ph.windowsFull() && time.Since(hold) < opTimeout; {
				time.Sleep(100 * time.Microsecond)
			}
			ph.genLate.add(float64(time.Since(due)) / 1e3)
			if !send(due) || fx.mq.flush() != nil {
				return
			}
			ph.recs[i].written.Store(ph.ns(time.Now()))
		}
		return
	}

	// Closed loop: publish whenever no window is full.
	for {
		if cfg.span > 0 && time.Since(ph.t0) >= cfg.span {
			return
		}
		sent, first := 0, int(ph.published.Load())
		for {
			if cfg.maxReadings > 0 && int(ph.published.Load()) >= cfg.maxReadings || ph.windowsFull() {
				break
			}
			if !send(time.Now()) {
				return
			}
			sent++
		}
		if sent > 0 {
			if fx.mq.flush() != nil {
				return
			}
			now := ph.ns(time.Now())
			for i := first; i < first+sent; i++ {
				ph.recs[i].written.Store(now)
			}
			continue
		}
		if cfg.maxReadings > 0 && int(ph.published.Load()) >= cfg.maxReadings {
			return
		}
		// A Go timer on purpose: a kernel nanosleep here idles a vCPU between
		// polls, and the wake-ups cost a third of the ingest rate.
		time.Sleep(100 * time.Microsecond)
	}
}

// read is one dashboard client: a closed loop on its own keep-alive
// connection, the next query of the shared plan as soon as the last answered.
func (ph *phase) read() {
	fx, cfg := ph.fx, ph.cfg
	for {
		if cfg.maxQueries > 0 && int(ph.issued.Add(1)) > cfg.maxQueries || cfg.maxQueries == 0 && time.Since(ph.t0) >= cfg.span {
			return
		}
		start := time.Now()
		q := queryPlan(fx.seed, fx.w.probes, int(fx.nextQ.Add(1)-1))
		err := fx.doQuery(q)
		ph.qmu.Lock()
		ph.queries.attempted++
		if err != nil {
			ph.queries.failed++
			ph.queryLat[q.kind].fail()
			ph.queryAll.fail(time.Since(ph.t0).Seconds())
			if len(ph.queryErr) < 5 {
				ph.queryErr = append(ph.queryErr, fmt.Sprintf("%s: %v", q.path(), err))
			}
			ph.qmu.Unlock()
			continue
		}
		lat := float64(time.Since(start)) / 1e3
		ph.queryLat[q.kind].add(lat)
		ph.queryAll.add(time.Since(ph.t0).Seconds(), lat)
		ph.qmu.Unlock()
		ph.queriesOK.Add(1)
	}
}

// drain waits until every published reading is acknowledged, stored and —
// where subscribed — POSTed, or the operation timeout passes.
func (ph *phase) drain() {
	fx := ph.fx
	_ = fx.mq.flush()
	deadline := time.Now().Add(opTimeout)
	for time.Now().Before(deadline) {
		pub := ph.published.Load()
		if fx.storedPoints()-ph.storedBase >= 2*pub && ph.posts.Load() >= ph.expected.Load() &&
			(pub == 0 || ph.recs[pub-1].puback.Load() != 0) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// sampler records the platform's progress and backlogs at 10 Hz.
func (ph *phase) sampler(stop <-chan struct{}) {
	fx := ph.fx
	runtime.LockOSThread() // the calibrator reads this thread's CPU clock
	defer runtime.UnlockOSThread()
	cal := newCalibrator()
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for last := false; ; { // one more sample after stop, so the final slice has its closing sample
		calib := cal.run()
		stored := float64(fx.storedPoints() - ph.storedBase)
		elapsed := time.Since(ph.t0)
		if i := int(elapsed / samplePeriod); i < len(ph.pubAt) {
			ph.pubAt[i].Store(ph.published.Load() + 1)
		}
		steal, total := cpuJiffies()
		ph.samples = append(ph.samples, phaseSample{
			at:    elapsed.Seconds(),
			steal: steal, cpuTotal: total, calib: calib,
			stored:       stored / 2,
			queries:      float64(ph.queriesOK.Load()),
			lagPoints:    float64(2*ph.published.Load()) - stored,
			ngsiDepth:    float64(fx.p.Context.QueueDepth()),
			webhookDepth: float64(fx.p.Webhooks.Depth()),
		})
		if last {
			return
		}
		select {
		case <-stop:
			last = true
		case <-tick.C:
		}
	}
}

// settledK returns a reading index below which every reading was published
// at least opTimeout before now (or before the phase began, and so drained):
// by the benchmark's own failure rule, the platform must show all of them.
func (ph *phase) settledK(now time.Time) int {
	i := int(now.Add(-opTimeout).Sub(ph.t0)/samplePeriod) - 1
	if i >= len(ph.pubAt) {
		i = len(ph.pubAt) - 1
	}
	for ; i >= 0; i-- {
		if v := ph.pubAt[i].Load(); v > 0 {
			return ph.kBase + int(v-1)
		}
	}
	return ph.kBase
}

// slice is one sliceLen of a phase as the sampler saw it.
type slice struct {
	lo, hi          float64 // seconds since the phase began
	stored, queries float64 // per second
	// speed is how fast the machine ran during the slice relative to the
	// reference machine: the share of its CPU time the hypervisor did not
	// give to someone else, times the reference calibration kernel time over
	// the slice's median.
	speed, steal, calib float64
}

// refCalibUS is the calibration kernel's time on the reference machine: the
// sandbox the benchmark was defined on, when its host is quiet.
const refCalibUS = 250

// slices cuts the phase into slices; a phase shorter than one is one slice.
func (ph *phase) slices() []slice {
	at := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		at[i] = s.at
	}
	var out []slice
	for _, b := range sliceBounds(at, ph.cfg.span.Seconds(), sliceLen.Seconds()) {
		lo, hi := ph.samples[b[0]], ph.samples[b[1]]
		sl := slice{lo: lo.at, hi: hi.at,
			stored:  (hi.stored - lo.stored) / (hi.at - lo.at),
			queries: (hi.queries - lo.queries) / (hi.at - lo.at),
		}
		if total := hi.cpuTotal - lo.cpuTotal; total > 0 {
			sl.steal = (hi.steal - lo.steal) / total
		}
		var calib []float64
		for _, s := range ph.samples[b[0]:b[1]] {
			calib = append(calib, s.calib)
		}
		sl.calib = median(calib)
		sl.speed = (1 - sl.steal) * refCalibUS / sl.calib
		out = append(out, sl)
	}
	return out
}

// medianOver is the median of a per-slice value over the phase's slices.
func medianOver(slices []slice, value func(slice) float64) float64 {
	vals := make([]float64, len(slices))
	for i, sl := range slices {
		vals[i] = value(sl)
	}
	return median(vals)
}

// readingsPerS is the phase's ingest rate. A closed loop's rate is the
// system's, so it is the median of the phase's slices. An open loop's rate
// is the schedule's, so it is simply what was stored over the time to the
// last PUBACK — which only shows whether the platform kept up.
func (ph *phase) readingsPerS() float64 {
	if ph.cfg.writeRate > 0 {
		var lastAck int64
		for i := 0; i < int(ph.published.Load()); i++ {
			lastAck = max(lastAck, ph.recs[i].puback.Load())
		}
		if lastAck == 0 {
			return 0
		}
		return float64(ph.storedEnd-ph.storedBase) / 2 / time.Duration(lastAck).Seconds()
	}
	return medianOver(ph.slices(), func(sl slice) float64 { return sl.stored })
}

// A saturating closed loop — the read regime, and a write regime the
// workload marks cpuBound — has clients that wait for nothing but a
// processor, so its numbers scale with the speed of the machine, which on a
// shared host changes by a third from one minute to the next. They are
// therefore reported at the reference machine's speed: each slice's value is
// scaled by the slice's speed, and the phase reports the median slice. On a
// quiet, unshared machine the speed is 1 throughout.

// rateAtRef is the median slice rate at reference machine speed; raw is the
// same without the scaling.
func rateAtRef(slices []slice, rate func(slice) float64) (atRef, raw float64) {
	return medianOver(slices, func(s slice) float64 { return rate(s) / s.speed }), medianOver(slices, rate)
}

// percentileAtRef is the median over the phase's slices of a latency
// percentile at reference machine speed (0 when a slice has too few samples
// for it or failures reach it: the run's checks say which); raw is the same
// without the scaling.
func (ph *phase) percentileAtRef(lat *timed, p float64) (atRef, raw float64) {
	var scaled, plain []float64
	for _, s := range ph.slices() {
		v, err := lat.between(s.lo, s.hi).percentile(p)
		if err != nil || math.IsInf(v, 0) {
			return 0, 0
		}
		scaled, plain = append(scaled, v*s.speed), append(plain, v)
	}
	return median(scaled), median(plain)
}

// notifyLatency returns due → POST-received for every subscribed reading,
// in µs, stamped with the time the POST arrived. A subscribed reading that was never POSTed is a failure and stays
// in the denominator as +Inf.
func (ph *phase) notifyLatency() (lat timed, t tally) {
	fx := ph.fx
	for i := 0; i < int(ph.published.Load()); i++ {
		probe, _ := fx.order.at(ph.kBase + i)
		if !fx.subscribed[probe] {
			continue
		}
		t.attempted++
		r := &ph.recs[i]
		if posted := r.posted.Load(); posted != 0 {
			lat.add(float64(posted)/1e9, float64(posted-r.due.Load())/1e3)
		} else {
			t.failed++
			lat.fail(float64(r.due.Load()) / 1e9)
		}
	}
	return lat, t
}

// spanSample collects one span's duration (µs) over the readings that have
// both of its ends.
func (ph *phase) spanSample(from, to func(*readingRec) int64) sample {
	var s sample
	for i := 0; i < int(ph.published.Load()); i++ {
		r := &ph.recs[i]
		if a, b := from(r), to(r); a != 0 && b != 0 {
			s.add(math.Max(0, float64(b-a)/1e3))
		}
	}
	return s
}

func maxOf(samples []phaseSample, get func(phaseSample) float64) float64 {
	m := 0.0
	for _, s := range samples {
		m = math.Max(m, get(s))
	}
	return m
}
