package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promName mangles a dotted internal metric name into the Prometheus
// namespace: dots and dashes become underscores under a swamp_ prefix
// (mqtt.queue.depth → swamp_mqtt_queue_depth).
func promName(name string) string {
	mangled := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return "swamp_" + mangled
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples. Families
// are sorted by name so output is diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()

	var b strings.Builder

	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, r.counters[n].Value())
	}

	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", pn, pn, r.gauges[n].Value())
	}

	_, err := io.WriteString(w, b.String())
	return err
}
