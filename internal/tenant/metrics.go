package tenant

import (
	"sort"
	"strings"

	"github.com/swamp-project/swamp/internal/metrics"
)

// tenantSeries is every per-label series name Export publishes; retiring
// a label deletes all of them (debt_sec exists only for named tenants —
// deleting an absent gauge is a no-op).
var tenantSeries = []string{
	"tenant.queue_depth.", "tenant.inflight.", "tenant.debt_sec.",
	"tenant.admitted.", "tenant.throttled.", "tenant.disconnects.",
	"tenant.bytes_in.",
}

// Export publishes the swamp_tenant_* family into reg, capping
// cardinality: the topK tenants by cumulative admitted messages get named
// series (swamp_tenant_admitted_<id> etc.); every other tenant aggregates
// into the "_other" pseudo-tenant, so a fleet of thousands of farms can
// never blow up the scrape. Labels that fall out of the named set between
// rounds (a tenant displaced from the top-K, or evicted from the ledger)
// get their series deleted — its counts now ride _other, and a frozen
// named series would double-count them. swampd calls this just before
// serving /metrics, so the gauges are scrape-fresh without a background
// loop.
func (a *Admission) Export(reg *metrics.Registry) {
	if a == nil || reg == nil {
		return
	}
	stats := a.Tenants()
	reg.Gauge("tenant.active").Set(float64(len(stats)))

	// Rank by cumulative admitted traffic; ties break by id so the named
	// set is stable between scrapes.
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Admitted != stats[j].Admitted {
			return stats[i].Admitted > stats[j].Admitted
		}
		return stats[i].ID < stats[j].ID
	})

	// One exporter at a time: the exported set is read-modify-write.
	a.expMu.Lock()
	defer a.expMu.Unlock()
	current := make(map[string]bool, topK+1)

	var other Status
	for i, s := range stats {
		if i < topK {
			label := metricLabel(s.ID)
			current[label] = true
			reg.Gauge("tenant.queue_depth." + label).Set(float64(s.QueueDepth))
			reg.Gauge("tenant.inflight." + label).Set(float64(s.Inflight))
			reg.Gauge("tenant.debt_sec." + label).Set(s.DebtSec)
			reg.Gauge("tenant.admitted." + label).Set(float64(s.Admitted))
			reg.Gauge("tenant.throttled." + label).Set(float64(s.Throttled))
			reg.Gauge("tenant.disconnects." + label).Set(float64(s.Disconnects))
			reg.Gauge("tenant.bytes_in." + label).Set(float64(s.BytesIn))
			continue
		}
		other.QueueDepth += s.QueueDepth
		other.Inflight += s.Inflight
		other.Admitted += s.Admitted
		other.Throttled += s.Throttled
		other.Disconnects += s.Disconnects
		other.BytesIn += s.BytesIn
	}
	if len(stats) > topK {
		current["_other"] = true
		reg.Gauge("tenant.queue_depth._other").Set(float64(other.QueueDepth))
		reg.Gauge("tenant.inflight._other").Set(float64(other.Inflight))
		reg.Gauge("tenant.admitted._other").Set(float64(other.Admitted))
		reg.Gauge("tenant.throttled._other").Set(float64(other.Throttled))
		reg.Gauge("tenant.disconnects._other").Set(float64(other.Disconnects))
		reg.Gauge("tenant.bytes_in._other").Set(float64(other.BytesIn))
	}
	for label := range a.exported {
		if !current[label] {
			for _, series := range tenantSeries {
				reg.DeleteGauge(series + label)
			}
		}
	}
	a.exported = current
}

// metricLabel makes a tenant id safe as a metric-name suffix (the
// registry's Prometheus writer mangles the rest).
func metricLabel(id ID) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, string(id))
}
