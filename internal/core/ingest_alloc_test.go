//go:build !race

// The race detector instruments allocations, so this guard only runs in
// normal builds.

package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/agent"
	"github.com/swamp-project/swamp/internal/config"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/tenant"
)

// TestIngestAllocsPerReading pins the whole in-memory ingest path — MQTT
// delivery, UL decode, the batcher, the context broker, the notification,
// anomaly scoring, the fog node and its uplink, the cloud ingestor and the
// time-series store — at ≤ 10 heap allocations per stored two-depth
// reading, across every goroutine the path runs on. What must remain is
// the immutable entity version (its attribute map, two boxed values, the
// Entity, the merged map, the changed names) and the notification's
// readings. 100 probes are fed under a 64-reading window, so no probe is
// ever pending twice and the batcher never coalesces; a reading counts once
// both its points are stored.
func TestIngestAllocsPerReading(t *testing.T) {
	opts, err := OptionsFromConfig(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if p.Fog == nil || p.Opts.Pilot.Name != "matopiba" {
		t.Fatalf("default platform: pilot %s, fog %v; want matopiba farm-fog", p.Opts.Pilot.Name, p.Fog != nil)
	}

	const (
		probes   = 100
		window   = 64
		variants = 13 // consecutive readings of a probe differ: no stuck alert
		apiKey   = "swamp-matopiba"
	)
	topics := make([]string, probes)
	payloads := make([][][]byte, probes)
	for i := range probes {
		dev := fmt.Sprintf("alloc-probe-%03d", i)
		err := p.Agent.Provision(agent.Provision{
			Desc: model.Descriptor{
				ID: model.DeviceID(dev), Kind: model.KindSoilProbe,
				Owner: tenant.ID("matopiba"), Depths: []float64{0.2, 0.5}, APIKey: apiKey,
			},
			EntityID:   fmt.Sprintf("urn:swamp:matopiba:alloc:%03d", i),
			EntityType: "SoilProbe",
			AttrMap: map[string]agent.AttrSpec{
				"m1": {Quantity: model.QSoilMoisture, Depth: 0.2},
				"m2": {Quantity: model.QSoilMoisture, Depth: 0.5},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		topics[i] = agent.AttrsTopic(apiKey, dev)
		for v := range variants {
			payloads[i] = append(payloads[i], []byte(fmt.Sprintf("m1|%.4f|m2|%.4f", 0.20+0.001*float64(v), 0.30+0.001*float64((v*5)%variants))))
		}
	}

	stored := p.Metrics().Counter("cloud.ingest.readings")
	base := stored.Value()
	sent := 0
	// drive publishes n readings, reading k only once reading k-window is
	// stored, and returns once all of them are.
	drive := func(n int) {
		deadline := time.Now().Add(30 * time.Second)
		wait := func(k int) {
			for int(stored.Value()-base) < 2*k {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d readings stored", (stored.Value()-base)/2, k)
				}
				runtime.Gosched()
			}
		}
		for end := sent + n; sent < end; sent++ {
			wait(sent - window + 1)
			probe := sent % probes
			payload := payloads[probe][(sent/probes)%variants]
			if err := p.Broker.InjectPublish("bench", topics[probe], payload, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		wait(sent)
	}

	drive(3000) // every entity, series and latest-view entry exists
	const measured = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drive(measured)
	runtime.ReadMemStats(&after)
	perReading := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.2f allocations per stored reading", perReading)
	if perReading > 10 {
		t.Errorf("a stored two-depth reading costs %.2f allocations, want ≤ 10", perReading)
	}
}
