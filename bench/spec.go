package main

// workload is one traffic mix on one fixture. The benchmark contract has
// every workload report every end-to-end metric, so every workload has two
// regimes, run back to back on the same fixture: the read regime
// (closed-loop readers beside Poisson background writes), which yields the
// query metrics, then its write regime (the writer pattern below, no
// reader), which yields the notification and ingest metrics. The workloads differ
// in fixture, in writer pattern and in how the measured time is split.
type workload struct {
	name string
	why  string

	probes int
	wal    bool // journal through a WAL on the work directory's filesystem

	// Writer: open loop at writeRate readings/s when > 0, otherwise a closed
	// loop. Either holds at most window readings outstanding end to end
	// (published − stored): the closed loop is paced by it; the open loop
	// reaches it only after the machine stalled and a burst fell due at once.
	// It is below the fleet size, so no probe is ever in flight twice.
	writeRate float64
	window    int

	// cpuBound marks a closed loop whose readings spend their time queueing
	// for a processor (ingest_fleet: a cycle of 16 ms against a pipeline
	// that takes 2 ms unloaded), so that its numbers scale with the speed of
	// the machine and are reported at reference speed. ingest_farm's cycle of
	// 3 ms is the pipeline's own timers, and its rate barely moves with the
	// machine's speed.
	cpuBound bool

	// webhookPattern is the entity id pattern of the one HTTP subscription.
	webhookPattern string

	// writeShare is the share of the measured seconds the write regime
	// gets; the read regime gets the rest.
	writeShare float64

	// warmReadings is the warm-up's fixed count, so that set-up does the
	// same work on every run and leaves every series the same length.
	warmReadings int

	// headline is the end-to-end metric the workload exists to gate; the
	// trace run reports its tracing overhead on it.
	headline string
}

const benchEntityPrefix = "urn:swamp:" + pilotName + ":bench:"

// warmQueries is the reader's fixed-count warm-up.
const warmQueries = 4000

// backgroundWriteRate is the Poisson write rate beside the closed-loop
// reader: writes keep bumping the context epoch, so the listing cache cannot
// flatter the read path.
const backgroundWriteRate = 200

var workloads = []workload{
	{
		name: "steady_fleet",
		why:  "1000 probes, WAL on, Poisson 500 readings/s, every reading POSTed: the operating regime, where nothing queues and latency is batching, commit waits and dispatch. After the read regime.",

		probes: 1000, wal: true,
		writeRate: 500, window: 256, writeShare: 0.5,
		webhookPattern: benchEntityPrefix + "*",
		warmReadings:   6000,
		headline:       "notify_p50_us",
	},
	{
		name: "ingest_fleet",
		why:  "1000 probes, WAL on, closed loop of 256 outstanding and 48 un-notified: fleet-scale capacity, bound by the anomaly plane's per-value fleet scan and the commit chain. After the read regime.",

		probes: 1000, wal: true,
		window: 256, writeShare: 0.5, cpuBound: true,
		webhookPattern: benchEntityPrefix + "*",
		warmReadings:   6000,
		headline:       "readings_per_s",
	},
	{
		name: "ingest_farm",
		why:  "100 probes, in-memory (swampd's default), closed loop of 64 outstanding: the per-message path through transport, agent, context, store; WAL bypassed, anomaly small. After the read regime.",

		probes: 100, wal: false,
		window: 64, writeShare: 0.5,
		webhookPattern: benchEntityPrefix + "000*",
		warmReadings:   80000,
		headline:       "readings_per_s",
	},
	{
		name: "dashboard_read",
		why:  "Mostly the read regime: 1000 probes with history, WAL on, four closed-loop readers over entity, filtered fleet listing, summary and series queries beside Poisson 200 readings/s that invalidate it.",

		probes: 1000, wal: true,
		writeRate: backgroundWriteRate, window: 256, writeShare: 0.25,
		webhookPattern: benchEntityPrefix + "*",
		warmReadings:   6000,
		headline:       "queries_per_s",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric the harness emits. BENCHMARK.json lists the
// same names; a test keeps the two sets equal.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the platform would see.
var endToEnd = []metricDef{
	{"notify_p50_us", "us"},
	{"readings_per_s", "1/s"},
	{"queries_per_s", "1/s"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
	{"setup_s", "s"},
}

// perLayer are the trace run's metrics; a layer is a package under internal/.
var perLayer = []metricDef{
	{"mqtt.puback_p50_us", "us"},
	{"mqtt.puback_p90_us", "us"},
	{"mqtt.publish_in", "count"},
	{"mqtt.flush_batch_pkts", "count"},
	{"mqtt.queue_parked", "count"},
	{"mqtt.queue_dropped", "count"},
	{"mqtt.deliver_retry", "count"},
	{"mqtt.route_cache_miss", "count"},
	{"mqtt.codec_ns_op", "ns"},
	{"mqtt.busy_share_pct", "%"},

	{"agent.decode_ns_op", "ns"},
	{"agent.north_ok", "count"},
	{"agent.north_rejected", "count"},
	{"agent.busy_share_pct", "%"},

	{"ngsi.notify_p90_us", "us"},
	{"ngsi.ctx_p50_us", "us"},
	{"ngsi.ctx_p90_us", "us"},
	{"ngsi.entities_per_flush", "count"},
	{"ngsi.batcher_flushes", "count"},
	{"ngsi.notify_dropped", "count"},
	{"ngsi.queue_depth_max", "count"},
	{"ngsi.batch_update_us_op", "us"},
	{"ngsi.webhook_p50_us", "us"},
	{"ngsi.webhook_sent", "count"},
	{"ngsi.webhook_dropped", "count"},
	{"ngsi.webhook_retries", "count"},
	{"ngsi.webhook_depth_max", "count"},
	{"ngsi.busy_share_pct", "%"},

	{"wal.records", "count"},
	{"wal.fsyncs", "count"},
	{"wal.records_per_fsync", "count"},
	{"wal.fsyncs_per_kreading", "count"},
	{"wal.bytes_per_reading", "count"},
	{"wal.append_wait_p50_us", "us"},
	{"wal.recover_s", "s"},
	{"wal.recover_records_per_s", "1/s"},

	{"fog.uplink_trips", "count"},
	{"fog.batches_per_trip", "count"},
	{"fog.queue_dropped", "count"},

	{"cloud.ingest_readings", "count"},
	{"cloud.ingest_invalid", "count"},
	{"cloud.journal_errors", "count"},
	{"cloud.store_p50_us", "us"},
	{"cloud.store_lag_max_points", "count"},

	{"timeseries.append_ns_point", "ns"},
	{"timeseries.summarize_us_op", "us"},
	{"timeseries.windows_us_op", "us"},
	{"timeseries.points", "count"},
	{"timeseries.heap_mb", "MB"},
	{"timeseries.busy_share_pct", "%"},

	{"anomaly.on_reading_us_op", "us"},
	{"anomaly.on_message_ns_op", "ns"},
	{"anomaly.alerts", "count"},
	{"anomaly.busy_share_pct", "%"},

	{"httpapi.entity_p50_us", "us"},
	{"httpapi.list_p50_us", "us"},
	{"httpapi.summary_p50_us", "us"},
	{"httpapi.series_p50_us", "us"},
	{"httpapi.handler_entity_us_op", "us"},
	{"httpapi.handler_list_us_op", "us"},
	{"httpapi.handler_summary_us_op", "us"},
	{"httpapi.handler_series_us_op", "us"},
	{"httpapi.list_cache_hit_share", "%"},
	{"httpapi.throttled", "count"},

	{"security.authorize_ns_op", "ns"},
	{"security.pep_memo_hit_share", "%"},
	{"security.pep_denied", "count"},
	{"security.seal_open_ns_op", "ns"},

	{"env.gen_late_p90_us", "us"},
	{"env.fsync_probe_p50_us", "us"},
	{"env.cpu_s_per_kop", "s"},
	{"env.gc_pause_ms", "ms"},
	{"env.calib_kernel_us", "us"},
	{"env.steal_pct", "%"},
	{"env.trace_overhead_pct", "%"},
	{"env.span_sum_vs_notify_pct", "%"},
}
