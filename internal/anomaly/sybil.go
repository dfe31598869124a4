package anomaly

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// SybilConfig tunes the Sybil-swarm detector.
type SybilConfig struct {
	// YoungWindow: only devices first seen within this window of each
	// other are clustered (Sybil identities appear together; default 5m).
	YoungWindow time.Duration
	// MinSamples per device before it participates in clustering
	// (default 5).
	MinSamples int
	// SimilarityEps: two devices are "same-source" when the mean absolute
	// difference of their aligned recent samples is below this (default
	// 0.005 — tighter than genuine sensor noise allows).
	SimilarityEps float64
	// MinClusterSize: smallest cluster reported (default 3).
	MinClusterSize int
	// HistoryLen: samples retained per device (default 16).
	HistoryLen int
}

func (c *SybilConfig) defaults() {
	if c.YoungWindow <= 0 {
		c.YoungWindow = 5 * time.Minute
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	if c.SimilarityEps <= 0 {
		c.SimilarityEps = 0.005
	}
	if c.MinClusterSize <= 0 {
		c.MinClusterSize = 3
	}
	if c.HistoryLen <= 0 {
		c.HistoryLen = 16
	}
}

// SybilDetector hunts for groups of identities that (a) appeared around
// the same time and (b) report suspiciously identical value streams — the
// signature of one attacker fabricating many virtual sensors or drones
// (§III: "a drone or sensor node performing the Sybil attack could send
// fake images and false measurements").
//
// Genuine co-located sensors agree on the signal but disagree in the noise;
// Sybil replicas share both.
type SybilDetector struct {
	cfg SybilConfig

	mu      sync.Mutex
	devices map[string]*sybilDevice
	flagged map[string]bool
}

type sybilDevice struct {
	firstSeen time.Time
	values    []float64 // the last HistoryLen samples, newest last
}

// NewSybilDetector builds a detector.
func NewSybilDetector(cfg SybilConfig) *SybilDetector {
	cfg.defaults()
	return &SybilDetector{cfg: cfg, devices: make(map[string]*sybilDevice), flagged: make(map[string]bool)}
}

// Observe feeds one sample from a device.
func (d *SybilDetector) Observe(device string, v float64, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dev := d.devices[device]
	if dev == nil {
		dev = &sybilDevice{firstSeen: at}
		d.devices[device] = dev
	}
	if len(dev.values) < d.cfg.HistoryLen {
		dev.values = append(dev.values, v)
		return
	}
	// Full: shift in place, so the window's array is never regrown.
	copy(dev.values, dev.values[1:])
	dev.values[len(dev.values)-1] = v
}

// Scan clusters candidate devices and returns one alert per newly flagged
// Sybil group member. Call it periodically (the Engine does).
func (d *SybilDetector) Scan(now time.Time) []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()

	// Candidates: enough samples, not yet flagged.
	ids := make([]string, 0, len(d.devices))
	for id, dev := range d.devices {
		if len(dev.values) >= d.cfg.MinSamples && !d.flagged[id] {
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
			a, b := d.devices[ids[i]], d.devices[ids[j]]
			dt := a.firstSeen.Sub(b.firstSeen)
			if dt < 0 {
				dt = -dt
			}
			if dt > d.cfg.YoungWindow {
				continue
			}
			if similar(a.values, b.values, d.cfg.SimilarityEps) {
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
		if len(members) < d.cfg.MinClusterSize {
			continue
		}
		sort.Strings(members)
		for _, id := range members {
			d.flagged[id] = true
			alerts = append(alerts, Alert{
				At: now, Kind: "sybil", Device: id, Score: float64(len(members)),
				Detail: fmt.Sprintf("cluster of %d near-identical young identities", len(members)),
			})
		}
	}
	return alerts
}

// Flagged reports whether a device has been identified as a Sybil member.
func (d *SybilDetector) Flagged(device string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flagged[device]
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
