package anomaly

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// SybilConfig tunes the Sybil-swarm detector.
type SybilConfig struct {
	// SimilarityEps: two devices are "same-source" when the mean absolute
	// difference of their aligned recent samples is below this (default
	// 0.005 — tighter than genuine sensor noise allows).
	SimilarityEps float64
	// MinSamples per device before it participates in clustering
	// (default 5).
	MinSamples int
}

func (c *SybilConfig) defaults() {
	if c.SimilarityEps <= 0 {
		c.SimilarityEps = 0.005
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
}

const (
	// sybilYoungWindow: only devices first seen within this window of each
	// other are clustered (Sybil identities appear together).
	sybilYoungWindow = 5 * time.Minute
	// sybilHistoryLen is how many samples a device keeps.
	sybilHistoryLen = 16
	// sybilMinCluster is the smallest cluster reported.
	sybilMinCluster = 3
)

// device is what the engine keeps per device: its recent values for the
// Sybil scan and when the consistency check last flagged it.
type device struct {
	firstSeen       time.Time
	values          [sybilHistoryLen]float64 // values[:n], newest last
	n               int
	flagged         bool // a member of a reported Sybil cluster
	lastConsistency time.Time
}

// observe appends one sample to the device's history, shifting out the
// oldest once it is full.
func (d *device) observe(v float64) {
	if d.n < sybilHistoryLen {
		d.values[d.n] = v
		d.n++
		return
	}
	copy(d.values[:], d.values[1:])
	d.values[sybilHistoryLen-1] = v
}

// scanSybilLocked hunts for groups of identities that (a) appeared around
// the same time and (b) report suspiciously identical value streams — the
// signature of one attacker fabricating many virtual sensors or drones
// (§III: "a drone or sensor node performing the Sybil attack could send
// fake images and false measurements"). Genuine co-located sensors agree on
// the signal but disagree in the noise; Sybil replicas share both. It
// returns one alert per newly flagged member; e.mu must be held.
func (e *Engine) scanSybilLocked(now time.Time) []Alert {
	// Candidates: enough samples, not yet flagged.
	ids := make([]string, 0, len(e.devices))
	for id, dev := range e.devices {
		if dev.n >= e.sybil.MinSamples && !dev.flagged {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	// Union-find over similar pairs with close first-seen times.
	parent := make(map[string]string, len(ids))
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, id := range ids {
		parent[id] = id
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := e.devices[ids[i]], e.devices[ids[j]]
			dt := a.firstSeen.Sub(b.firstSeen)
			if dt < 0 {
				dt = -dt
			}
			if dt > sybilYoungWindow {
				continue
			}
			if similar(a.values[:a.n], b.values[:b.n], e.sybil.SimilarityEps) {
				parent[find(ids[i])] = find(ids[j])
			}
		}
	}
	clusters := make(map[string][]string)
	for _, id := range ids {
		root := find(id)
		clusters[root] = append(clusters[root], id)
	}

	var alerts []Alert
	roots := make([]string, 0, len(clusters))
	for r := range clusters {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, root := range roots {
		members := clusters[root]
		if len(members) < sybilMinCluster {
			continue
		}
		sort.Strings(members)
		for _, id := range members {
			e.devices[id].flagged = true
			alerts = append(alerts, Alert{
				At: now, Kind: "sybil", Device: id, Score: float64(len(members)),
				Detail: fmt.Sprintf("cluster of %d near-identical young identities", len(members)),
			})
		}
	}
	return alerts
}

// similar reports whether two aligned sample tails agree within eps on
// average.
func similar(a, b []float64, eps float64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return false
	}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Abs(a[len(a)-i] - b[len(b)-i])
	}
	return sum/float64(n) < eps
}
