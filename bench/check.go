package main

import (
	"fmt"
	"strings"
	"syscall"

	"github.com/swamp-project/swamp/internal/timeseries"
)

// phaseCounters are the platform counters a phase's deltas are taken over.
var phaseCounters = []string{
	"mqtt.publish.in", "mqtt.writer.flushes", "mqtt.writer.flushed_packets",
	"mqtt.queue.parked", "mqtt.queue.dropped", "mqtt.queue.ctl_dropped",
	"mqtt.deliver.retry", "mqtt.deliver.err", "mqtt.route.cache_miss",
	"agent.north.ok", "agent.north.badtopic", "agent.north.unknown", "agent.north.badseal",
	"agent.north.replay", "agent.north.baddecode", "agent.north.unknownattr", "agent.north.ctxerr",
	"ngsi.batcher.flushes", "ngsi.batcher.entities", "ngsi.batcher.added",
	"ngsi.notify.dropped", "ngsi.webhook.sent", "ngsi.webhook.dropped",
	"ngsi.webhook.retries", "ngsi.webhook.failed",
	"wal.append.records", "wal.append.bytes", "wal.fsync",
	"fog.uplink.ok", "fog.uplink.fail", "fog.uplink.batches", "fog.queue.dropped", "fog.ingest.invalid",
	"cloud.ingest.readings", "cloud.ingest.invalid", "cloud.ingest.journal_errors",
	"anomaly.alerts.dos", "anomaly.alerts.deviation", "anomaly.alerts.stuck",
	"anomaly.alerts.consistency", "anomaly.alerts.sybil", "anomaly.alerts.sequence",
	"httpapi.entities.list", "httpapi.entities.list.cached", "httpapi.throttled",
	"pep.permitted", "pep.denied", "pep.memo.hits", "pep.token.rejected",
}

func (fx *fixture) counterSnapshot() map[string]float64 {
	out := make(map[string]float64, len(phaseCounters))
	for _, name := range phaseCounters {
		out[name] = fx.counter(name)
	}
	return out
}

// agentRejected sums the agent's refusal counters.
func agentRejected(c map[string]float64) float64 {
	n := 0.0
	for name, v := range c {
		if strings.HasPrefix(name, "agent.north.") && name != "agent.north.ok" {
			n += v
		}
	}
	return n
}

// mustBeZero are counters whose every increment is a lost, refused or
// mangled operation.
var mustBeZero = []string{
	"mqtt.queue.dropped", "mqtt.queue.ctl_dropped", "mqtt.deliver.err",
	"ngsi.notify.dropped", "ngsi.webhook.dropped", "ngsi.webhook.failed",
	"fog.queue.dropped", "fog.uplink.fail", "fog.ingest.invalid",
	"cloud.ingest.invalid", "cloud.ingest.journal_errors",
	"httpapi.throttled", "pep.denied", "pep.token.rejected",
	// The single gateway connection legitimately trips the per-client rate
	// detector (anomaly.alerts.dos); every other alert means the generated
	// values left the detectors' no-alert path.
	"anomaly.alerts.deviation", "anomaly.alerts.stuck", "anomaly.alerts.consistency",
	"anomaly.alerts.sybil", "anomaly.alerts.sequence",
}

// verdict is the outcome of a phase's correctness checks.
type verdict struct {
	readings tally
	queries  tally
	problems []string
}

func (v *verdict) failf(format string, args ...any) {
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) ok() bool { return len(v.problems) == 0 }

// check validates everything a phase did. Every problem fails the run; a
// reading that was lost, duplicated, mangled or late past the timeout also
// counts against the attempts.
func (ph *phase) check() *verdict {
	fx := ph.fx
	v := &verdict{queries: ph.queries}
	pub := int(ph.published.Load())
	v.readings.attempted = pub

	// Every published reading was acknowledged by the broker.
	unacked := 0
	for i := 0; i < pub; i++ {
		if ph.recs[i].puback.Load() == 0 {
			unacked++
		}
	}
	if unacked > 0 {
		v.failf("%d of %d readings never PUBACKed", unacked, pub)
	}
	if n := fx.strayAcks.Swap(0); n > 0 {
		v.failf("%d PUBACKs matched no in-flight reading", n)
	}

	// Every published reading stored exactly once: the store's own count
	// grew by two points per reading …
	stored := ph.storedEnd - ph.storedBase
	unstored := 0
	if stored != int64(2*pub) {
		v.failf("cloud.ingest.readings grew by %d, want %d (2 × %d published)", stored, 2*pub, pub)
		if d := 2*pub - int(stored); d > 0 {
			unstored = (d + 1) / 2
		}
	}
	// … and the final value of every series, in the store and in the
	// context broker, is the last sequence number sent.
	for probe := 0; probe < fx.w.probes; probe++ {
		seq := int(fx.sentSeq[probe].Load())
		if seq == 0 {
			continue
		}
		for depth, attr := range depthAttrs {
			want := fx.model.units(probe, depth, seq)
			pt, ok := fx.p.Store.Latest(timeseries.SeriesKey{Device: deviceID(probe), Quantity: attr})
			if !ok || decodeUnits(pt.Value) != want {
				v.failf("store: %s/%s ends at %v, last sent seq %d", deviceID(probe), attr, pt.Value, seq)
			}
		}
		e, err := fx.p.Context.GetEntity(entityID(probe))
		if err != nil {
			v.failf("context: %s: %v", entityID(probe), err)
			continue
		}
		for depth, attr := range depthAttrs {
			got, _ := e.Attrs[attr].Float()
			if decodeUnits(got) != fx.model.units(probe, depth, seq) {
				v.failf("context: %s.%s = %v, last sent seq %d", e.ID, attr, got, seq)
			}
		}
	}

	// Every subscribed reading POSTed exactly once with the right value.
	_, notify := ph.notifyLatency()
	if notify.failed > 0 {
		v.failf("%d of %d subscribed readings never POSTed to the sink", notify.failed, notify.attempted)
	}
	if n := fx.strayPosts.Swap(0); n > 0 {
		v.failf("%d POSTs were duplicates, mangled or for unsubscribed probes", n)
	}
	v.readings.failed = max(unacked, unstored, notify.failed)

	// Nothing dropped, refused or rejected anywhere along the way.
	for _, name := range mustBeZero {
		if d := ph.counters[name]; d != 0 {
			v.failf("%s = %v during the phase", name, d)
		}
	}
	if d := agentRejected(ph.counters); d != 0 {
		v.failf("agent rejected %v readings", d)
	}
	// The window is below the fleet size, so no probe is in flight twice and
	// the agent's batcher has nothing to coalesce.
	if a, e := ph.counters["ngsi.batcher.added"], ph.counters["ngsi.batcher.entities"]; a != e {
		v.failf("batcher coalesced: added %v, flushed %v entities", a, e)
	}

	// Every query answered 200 with a body the generator's model allows.
	if ph.queries.failed > 0 {
		v.failf("%d of %d queries failed: %s", ph.queries.failed, ph.queries.attempted, strings.Join(ph.queryErr, "; "))
	}
	return v
}

// processCPU returns the process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
