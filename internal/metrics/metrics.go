// Package metrics is a small dependency-free telemetry registry the
// platform components use to expose operational counters (messages
// published, notifications delivered, authorization denials, alerts
// raised). Benchmarks and the scenario runner read the registry to build
// their report rows.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; construct
// with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter named name, creating it on first use. Hot
// paths should resolve their counters once and hold the pointer; the
// read-locked fast path here keeps incidental lookups cheap anyway.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge named name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// DeleteGauge removes the named gauge so it no longer appears in
// snapshots or the Prometheus exposition. Publishers of dynamically
// named series (per-tenant gauges) use it to retire series whose
// subject fell out of the exported set; holders of a stale pointer can
// still Set it, but the value is unreachable through the registry.
func (r *Registry) DeleteGauge(name string) {
	r.mu.Lock()
	delete(r.gauges, name)
	r.mu.Unlock()
}

// Snapshot renders every metric as "name value" lines, sorted by name.
func (r *Registry) Snapshot() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var lines []string
	for n, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", n, c.Value()))
	}
	for n, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %g", n, g.Value()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Counter is a monotonically increasing counter. It is lock-free: counters
// sit on every hot path (one MQTT publish or NGSI update touches several),
// and a mutex here becomes a cross-shard serialization point.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value, stored as atomic float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the value by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
