package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("x") != c {
		t.Error("same name returned different counter")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Errorf("concurrent counter = %d, want 16000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level")
	g.Set(3.5)
	g.Add(-1.5)
	if g.Value() != 2.0 {
		t.Errorf("gauge = %g", g.Value())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("mqtt.publish.count").Add(42)
	r.Gauge("mqtt.queue.depth").Set(7)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE swamp_mqtt_publish_count counter\n",
		"swamp_mqtt_publish_count 42\n",
		"# TYPE swamp_mqtt_queue_depth gauge\n",
		"swamp_mqtt_queue_depth 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Structural check: every non-comment line is "name value" and every
	// sample is preceded by a TYPE declaration for it.
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			types[parts[2]] = true
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if !types[fields[0]] {
			t.Errorf("sample %q has no TYPE declaration", line)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Inc()
	r.Gauge("b.level").Set(7)
	snap := r.Snapshot()
	for _, want := range []string{"counter a.count 1", "gauge b.level 7"} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q:\n%s", want, snap)
		}
	}
}
