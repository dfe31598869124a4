package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"github.com/swamp-project/swamp/internal/agent"
	"github.com/swamp-project/swamp/internal/anomaly"
	"github.com/swamp-project/swamp/internal/core"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/secchan"
	"github.com/swamp-project/swamp/internal/timeseries"
	"github.com/swamp-project/swamp/internal/wal"
)

// layerMetrics turns the traced phases into the per-layer metrics that come
// from spans (a) and counter deltas (b); probeLayers adds the probes (c).
// Write-path layers are read off the write regime, the northbound and
// security layers off the read regime.
func (ms measured) layerMetrics(env envInfo) map[string]float64 {
	ph, c, rc := ms.write, ms.write.counters, ms.read.counters
	m := map[string]float64{}
	pct := func(s sample, p float64) float64 {
		v, err := s.percentile(p)
		if err != nil || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	due := func(r *readingRec) int64 { return r.due.Load() }
	written := func(r *readingRec) int64 { return r.written.Load() }
	puback := func(r *readingRec) int64 { return r.puback.Load() }
	callback := func(r *readingRec) int64 { return r.callback.Load() }
	posted := func(r *readingRec) int64 { return r.posted.Load() }
	stored := func(r *readingRec) int64 { return r.stored.Load() }

	gen := ph.spanSample(due, written)
	mq := ph.spanSample(written, puback)
	ctx := ph.spanSample(puback, callback)
	hook := ph.spanSample(callback, posted)
	store := ph.spanSample(callback, stored)
	readings := float64(ph.published.Load())

	m["mqtt.puback_p50_us"] = pct(mq, 50)
	m["mqtt.puback_p90_us"] = pct(mq, 90)
	m["mqtt.publish_in"] = c["mqtt.publish.in"]
	m["mqtt.flush_batch_pkts"] = ratio(c["mqtt.writer.flushed_packets"], c["mqtt.writer.flushes"])
	m["mqtt.queue_parked"] = c["mqtt.queue.parked"]
	m["mqtt.queue_dropped"] = c["mqtt.queue.dropped"]
	m["mqtt.deliver_retry"] = c["mqtt.deliver.retry"]
	m["mqtt.route_cache_miss"] = c["mqtt.route.cache_miss"]

	m["agent.north_ok"] = c["agent.north.ok"]
	m["agent.north_rejected"] = agentRejected(c)

	notifyAt, _ := ph.notifyLatency()
	notify := *notifyAt.all()
	m["ngsi.notify_p90_us"] = pct(notify, 90)
	m["ngsi.ctx_p50_us"] = pct(ctx, 50)
	m["ngsi.ctx_p90_us"] = pct(ctx, 90)
	m["ngsi.entities_per_flush"] = ratio(c["ngsi.batcher.entities"], c["ngsi.batcher.flushes"])
	m["ngsi.batcher_flushes"] = c["ngsi.batcher.flushes"]
	m["ngsi.notify_dropped"] = c["ngsi.notify.dropped"]
	m["ngsi.queue_depth_max"] = maxOf(ph.samples, func(s phaseSample) float64 { return s.ngsiDepth })
	m["ngsi.webhook_p50_us"] = pct(hook, 50)
	m["ngsi.webhook_sent"] = c["ngsi.webhook.sent"]
	m["ngsi.webhook_dropped"] = c["ngsi.webhook.dropped"]
	m["ngsi.webhook_retries"] = c["ngsi.webhook.retries"]
	m["ngsi.webhook_depth_max"] = maxOf(ph.samples, func(s phaseSample) float64 { return s.webhookDepth })

	m["wal.records"] = c["wal.append.records"]
	m["wal.fsyncs"] = c["wal.fsync"]
	m["wal.records_per_fsync"] = ratio(c["wal.append.records"], c["wal.fsync"])
	m["wal.fsyncs_per_kreading"] = ratio(1000*c["wal.fsync"], readings)
	m["wal.bytes_per_reading"] = ratio(c["wal.append.bytes"], readings)

	m["fog.uplink_trips"] = c["fog.uplink.ok"]
	m["fog.batches_per_trip"] = ratio(c["fog.uplink.batches"], c["fog.uplink.ok"])
	m["fog.queue_dropped"] = c["fog.queue.dropped"]

	m["cloud.ingest_readings"] = c["cloud.ingest.readings"]
	m["cloud.ingest_invalid"] = c["cloud.ingest.invalid"]
	m["cloud.journal_errors"] = c["cloud.ingest.journal_errors"]
	m["cloud.store_p50_us"] = pct(store, 50)
	m["cloud.store_lag_max_points"] = maxOf(ph.samples, func(s phaseSample) float64 { return s.lagPoints })

	alerts := 0.0
	for _, kind := range []string{"dos", "deviation", "stuck", "consistency", "sybil", "sequence"} {
		alerts += c["anomaly.alerts."+kind]
	}
	m["anomaly.alerts"] = alerts

	for kind, name := range kindNames {
		m["httpapi."+name+"_p50_us"] = pct(ms.read.queryLat[kind], 50)
	}
	m["httpapi.list_cache_hit_share"] = 100 * ratio(rc["httpapi.entities.list.cached"], rc["httpapi.entities.list"])
	m["httpapi.throttled"] = rc["httpapi.throttled"]

	m["security.pep_memo_hit_share"] = 100 * ratio(rc["pep.memo.hits"], rc["pep.permitted"])
	m["security.pep_denied"] = rc["pep.denied"]

	m["env.gen_late_p90_us"] = pct(ph.genLate, 90) // 0 on a closed-loop writer: it has no schedule
	m["env.fsync_probe_p50_us"] = env.FsyncP50US
	ops := readings + float64(ms.read.published.Load()) + float64(ms.read.queries.attempted)
	m["env.cpu_s_per_kop"] = ratio(1000*(ph.cpuS+ms.read.cpuS), ops)
	m["env.gc_pause_ms"] = float64(ph.gcPause+ms.read.gcPause) / 1e6
	both := append(ph.slices(), ms.read.slices()...)
	m["env.calib_kernel_us"] = medianOver(both, func(sl slice) float64 { return sl.calib })
	m["env.steal_pct"] = 100 * medianOver(both, func(sl slice) float64 { return sl.steal })

	// How much of the end-to-end latency the spans account for: the sum of
	// the chain's span medians over the notification median.
	sum := pct(gen, 50) + pct(mq, 50) + pct(ctx, 50) + pct(hook, 50)
	m["env.span_sum_vs_notify_pct"] = 100 * ratio(sum, pct(notify, 50))
	return m
}

// timeOp reports the mean cost of f over n single-goroutine calls.
func timeOp(n int, f func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(start) / time.Duration(n)
}

// probeLayers times fixed counts of single-goroutine calls into each
// layer's public functions, on scratch instances fed the workload's own
// inputs (or, for the HTTP handlers and the PEP, on the now idle platform).
// A span minus its probe is time spent waiting, not working. It also
// estimates each layer's share of the phase's CPU as calls × probe cost.
// It ends by snapshotting, closing and reopening the WAL, so the fixture is
// closed when it returns.
func (fx *fixture) probeLayers(ph *phase, m map[string]float64) {
	c := ph.counters
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ns := func(d time.Duration) float64 { return float64(d) }
	share := func(busy float64) float64 { // busy in seconds
		if ph.cpuS == 0 {
			return 0
		}
		return 100 * busy / ph.cpuS
	}

	// mqtt: encode + decode of one of the workload's PUBLISH packets.
	topic, payload := fx.topics[0], fx.model.payload(nil, 0, 1)
	codec := timeOp(20_000, func(i int) {
		raw, _ := (&mqtt.Packet{Type: mqtt.PUBLISH, Topic: topic, Payload: payload, QoS: 1, PacketID: uint16(i%65535) + 1}).Encode()
		_, _ = mqtt.Decode(raw)
	})
	m["mqtt.codec_ns_op"] = ns(codec)
	m["mqtt.busy_share_pct"] = share(c["mqtt.publish.in"] * codec.Seconds())

	// agent: topic parse + UltraLight decode.
	decode := timeOp(20_000, func(int) {
		_, _, _ = agent.ParseAttrsTopic(topic)
		_, _ = agent.DecodeUL(string(payload))
	})
	m["agent.decode_ns_op"] = ns(decode)
	m["agent.busy_share_pct"] = share(c["agent.north.ok"] * decode.Seconds())

	// ngsi: one BatchUpdate of the phase's typical flush size on a scratch
	// broker with one in-process subscriber.
	flush := int(m["ngsi.entities_per_flush"] + 0.5)
	if flush < 1 {
		flush = 1
	}
	scratch := ngsi.NewBroker(ngsi.BrokerConfig{})
	_, _ = scratch.Subscribe(ngsi.Subscription{EntityIDPattern: "*", Notifier: ngsi.Callback(func(ngsi.Notification) {})})
	batchOf := func(i int) map[string]ngsi.BatchEntry {
		b := make(map[string]ngsi.BatchEntry, flush)
		for j := 0; j < flush; j++ {
			probe := (i*flush + j) % fx.w.probes
			b[entityID(probe)] = ngsi.BatchEntry{Type: "SoilProbe", Attrs: map[string]ngsi.Attribute{
				attrD20: {Type: "Number", Value: fx.model.value(probe, 0, i+1)},
				attrD50: {Type: "Number", Value: fx.model.value(probe, 1, i+1)},
			}}
		}
		return b
	}
	batches := make([]map[string]ngsi.BatchEntry, 2000)
	for i := range batches {
		batches[i] = batchOf(i)
	}
	update := timeOp(len(batches), func(i int) { _ = scratch.BatchUpdate(batches[i]) })
	scratch.Close()
	m["ngsi.batch_update_us_op"] = us(update)
	m["ngsi.busy_share_pct"] = share(c["ngsi.batcher.flushes"] * update.Seconds())

	// timeseries: append, summary and hourly windows on a scratch store
	// shaped like the fixture's (historyPoints per series).
	store := timeseries.New()
	now := time.Now()
	for probe := 0; probe < fx.w.probes; probe++ {
		for j := 0; j < historyPoints; j += 60 {
			_ = store.Append(timeseries.SeriesKey{Device: deviceID(probe), Quantity: attrD20},
				timeseries.Point{At: now.Add(-time.Duration(historyPoints-j) * time.Minute), Value: fx.model.history(probe, 0, j)})
		}
	}
	key0 := timeseries.SeriesKey{Device: deviceID(0), Quantity: attrD50}
	for j := 0; j < historyPoints; j++ {
		_ = store.Append(key0, timeseries.Point{At: now.Add(-time.Duration(historyPoints-j) * time.Minute), Value: fx.model.history(0, 1, j)})
	}
	appendOp := timeOp(10_000, func(i int) {
		probe := i % fx.w.probes
		at := now.Add(time.Duration(i) * time.Microsecond)
		_, _, _ = store.AppendBatch([]timeseries.BatchPoint{
			{Key: timeseries.SeriesKey{Device: deviceID(probe), Quantity: attrD20}, Point: timeseries.Point{At: at, Value: 0.25}},
			{Key: timeseries.SeriesKey{Device: deviceID(probe), Quantity: attrD50}, Point: timeseries.Point{At: at, Value: 0.30}},
		})
	}) / 2
	from, to := now.Add(-24*time.Hour), now.Add(time.Hour)
	m["timeseries.append_ns_point"] = ns(appendOp)
	m["timeseries.summarize_us_op"] = us(timeOp(2000, func(int) { _ = store.Summarize(key0, from, to) }))
	m["timeseries.windows_us_op"] = us(timeOp(2000, func(int) { _, _ = store.AggregateWindows(key0, from, to, time.Hour) }))
	store.Close()
	m["timeseries.busy_share_pct"] = share(c["cloud.ingest.readings"] * appendOp.Seconds())
	m["timeseries.points"] = float64(fx.p.Store.Stats().Points)

	// anomaly: the engine as the platform configures it, primed with the
	// workload's fleet, fed one reading / one broker message at a time.
	eng := anomaly.NewEngine(anomaly.EngineConfig{
		Rate:        anomaly.RateConfig{Window: 5 * time.Second, LimitPerSec: 50},
		Consistency: anomaly.ConsistencyConfig{MinPeers: 4, K: 8, MinSpread: 0.02},
		Sybil:       anomaly.SybilConfig{SimilarityEps: 0.002, MinSamples: 6},
	})
	reading := func(probe, depth, seq int) model.Reading {
		return model.Reading{Device: model.DeviceID(deviceID(probe)), Quantity: model.Quantity(depthAttrs[depth]),
			Value: fx.model.value(probe, depth, seq), At: now.Add(time.Duration(seq) * time.Second)}
	}
	for probe := 0; probe < fx.w.probes; probe++ {
		eng.OnReading(reading(probe, 0, 1))
		eng.OnReading(reading(probe, 1, 1))
	}
	onReading := timeOp(2000, func(i int) { eng.OnReading(reading(i%fx.w.probes, i&1, 2+i/fx.w.probes)) })
	onMessage := timeOp(20_000, func(i int) { eng.OnMessage("bench", topic, payload, now.Add(time.Duration(i)*time.Millisecond)) })
	m["anomaly.on_reading_us_op"] = us(onReading)
	m["anomaly.on_message_ns_op"] = ns(onMessage)
	m["anomaly.busy_share_pct"] = share(c["cloud.ingest.readings"]*onReading.Seconds() + c["mqtt.publish.in"]*onMessage.Seconds())

	// httpapi: each query kind through ServeHTTP on a recorder, no TCP.
	for kind, name := range kindNames {
		var qs []*http.Request
		for i := 0; len(qs) < 200; i++ {
			q := queryPlan(fx.seed, fx.w.probes, i)
			if q.kind != kind {
				continue
			}
			req := httptest.NewRequest(http.MethodGet, q.path(), nil)
			req.Header.Set("Authorization", "Bearer "+fx.token)
			qs = append(qs, req)
		}
		m["httpapi.handler_"+name+"_us_op"] = us(timeOp(len(qs), func(i int) {
			fx.api.ServeHTTP(httptest.NewRecorder(), qs[i])
		}))
	}

	// security: one PEP decision for the reader's principal; one secchan
	// seal + open of a reading (recorded for the later sealed workload).
	m["security.authorize_ns_op"] = ns(timeOp(20_000, func(i int) {
		_, _ = fx.p.PEP.Authorize(fx.token, "read", "ngsi:"+entityID(i%fx.w.probes))
	}))
	ring := secchan.NewKeyRing()
	_, _ = ring.Generate(deviceID(0))
	m["security.seal_open_ns_op"] = ns(timeOp(5000, func(int) {
		env, _ := ring.Seal(deviceID(0), payload, []byte(topic))
		_, _, _, _ = ring.Open(env, []byte(topic))
	}))

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["timeseries.heap_mb"] = float64(ms.HeapInuse) / (1 << 20)

	if fx.w.wal {
		fx.probeWAL(m)
	}
}

// probeWAL times a commit wait on a scratch log beside the fixture's, then
// snapshots, closes and reopens the fixture's own WAL to time recovery.
func (fx *fixture) probeWAL(m map[string]float64) {
	dir, err := os.MkdirTemp(fx.walDir, "probe-")
	if err == nil {
		if log, err := wal.Open(wal.Config{Dir: dir}); err == nil {
			rec, _ := wal.EncodeTelemetry([]timeseries.BatchPoint{
				{Key: timeseries.SeriesKey{Device: deviceID(0), Quantity: attrD20}, Point: timeseries.Point{At: time.Now(), Value: 0.25}},
				{Key: timeseries.SeriesKey{Device: deviceID(0), Quantity: attrD50}, Point: timeseries.Point{At: time.Now(), Value: 0.30}},
			})
			var waits sample
			for i := 0; i < 200; i++ {
				start := time.Now()
				if log.AppendWait(rec) != nil {
					break
				}
				waits.add(float64(time.Since(start)) / 1e3)
			}
			m["wal.append_wait_p50_us"], _ = waits.percentile(50)
			_ = log.Close()
		}
		_ = os.RemoveAll(dir)
	}

	if err := fx.p.Durable.Snapshot(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: wal snapshot:", err)
		return
	}
	walDir := fx.walDir
	fx.walDir = "" // keep the directory through close; removed below
	fx.close()
	defer os.RemoveAll(walDir)
	ctx, store := ngsi.NewBroker(ngsi.BrokerConfig{}), timeseries.New()
	start := time.Now()
	d, err := core.OpenDurability(core.DurabilityConfig{Dir: walDir, SnapshotInterval: -1}, ctx, store, nil)
	took := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: wal reopen:", err)
		return
	}
	records := float64(d.Recovered.SnapshotRecords + d.Recovered.TailRecords)
	m["wal.recover_s"] = took.Seconds()
	m["wal.recover_records_per_s"] = records / took.Seconds()
	_ = d.Close()
	store.Close()
	ctx.Close()
}
