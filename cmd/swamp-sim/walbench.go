package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/core"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// walBenchConfig parameterizes the kill -9 crash harness.
type walBenchConfig struct {
	Dir      string        // WAL directory
	Batch    int           // points per acked ingest batch
	Workers  int           // concurrent producers (group commit coalesces across them)
	Devices  int           // distinct devices
	Ingest   bool          // producer: sustained acked ingest + manifest
	Verify   bool          // checker: recover and compare to manifest
	Manifest string        // manifest path
	SnapIntv time.Duration // snapshot cadence during ingest (0 = 2s)
}

// walManifest is the crash harness contract: a lower bound on the writes
// that were acknowledged (journaled + fsynced) before the kill. The
// producer updates it only after acks; the checker asserts recovery
// yields at least these counts.
type walManifest struct {
	Entities int `json:"entities"`
	Points   int `json:"points"`
}

func runWALBench(cfg walBenchConfig) error {
	switch {
	case cfg.Ingest == cfg.Verify:
		return fmt.Errorf("walbench: give exactly one of -walingest and -walverify")
	case cfg.Ingest:
		return walIngest(cfg)
	default:
		return walVerify(cfg)
	}
}

// walDurablePair builds the standalone broker+store+WAL composition the
// crash harness drives — the same core.OpenDurability wiring the full
// platform uses, minus the farm.
func walDurablePair(dir string, snapIntv time.Duration) (*ngsi.Broker, *timeseries.Store, *core.Durability, error) {
	reg := metrics.NewRegistry()
	broker := ngsi.NewBroker(ngsi.BrokerConfig{Metrics: reg})
	store := timeseries.New()
	d, err := core.OpenDurability(core.DurabilityConfig{
		Dir:              dir,
		SnapshotInterval: snapIntv,
		Metrics:          reg,
	}, broker, store, nil)
	if err != nil {
		broker.Close()
		store.Close()
		return nil, nil, nil, err
	}
	return broker, store, d, nil
}

// walIngest is the crash-harness producer: sustained acked entity +
// telemetry ingest with periodic snapshots, continuously publishing a
// manifest of acknowledged counts. CI SIGKILLs it mid-write and then
// runs walVerify against the same directory.
func walIngest(cfg walBenchConfig) error {
	if cfg.Dir == "" || cfg.Manifest == "" {
		return fmt.Errorf("walbench: -walingest needs -waldir and -walmanifest")
	}
	if cfg.Devices <= 0 || cfg.Batch <= 0 || cfg.Workers <= 0 {
		return fmt.Errorf("walbench: devices, batch and workers must be positive")
	}
	snapIntv := cfg.SnapIntv
	if snapIntv <= 0 {
		snapIntv = 2 * time.Second
	}
	if cfg.Workers > cfg.Devices {
		cfg.Workers = cfg.Devices // one device per worker minimum
	}
	broker, store, d, err := walDurablePair(cfg.Dir, snapIntv)
	if err != nil {
		return err
	}
	recoveredEntities := broker.EntityCount()
	recoveredPoints := store.Stats().Points
	fmt.Printf("walingest: dir=%s devices=%d batch=%d workers=%d snapshots every %v\n",
		cfg.Dir, cfg.Devices, cfg.Batch, cfg.Workers, snapIntv)
	fmt.Printf("walingest: recovered %d snapshot + %d tail records (entities=%d points=%d)\n",
		d.Recovered.SnapshotRecords, d.Recovered.TailRecords,
		recoveredEntities, recoveredPoints)

	// Each worker owns a disjoint slice of the device id space, so the
	// distinct-entity lower bound is exact per worker.
	type workerState struct {
		ackedIters atomic.Uint64
		rangeSize  int
	}
	states := make([]*workerState, cfg.Workers)
	per := cfg.Devices / cfg.Workers
	// Recovered state is durable too (it replays from the retained log
	// and is re-dumped by the next snapshot), so it seeds the manifest —
	// a second kill on a recovered directory must still account for the
	// first run's writes.
	var ackedPoints atomic.Uint64
	ackedPoints.Store(uint64(recoveredPoints))
	base := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

	// Manifest publisher: post-ack counters only, written atomically.
	writeManifest := func() error {
		m := walManifest{Points: int(ackedPoints.Load())}
		for _, st := range states {
			if st == nil {
				continue
			}
			n := int(st.ackedIters.Load())
			if n > st.rangeSize {
				n = st.rangeSize
			}
			m.Entities += n
		}
		if m.Entities < recoveredEntities {
			m.Entities = recoveredEntities
		}
		data, err := json.Marshal(m)
		if err != nil {
			return err
		}
		tmp := cfg.Manifest + ".partial"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, cfg.Manifest)
	}

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		lo := w * per
		hi := lo + per
		if w == cfg.Workers-1 {
			hi = cfg.Devices
		}
		st := &workerState{rangeSize: hi - lo}
		states[w] = st
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			pts := make([]timeseries.BatchPoint, cfg.Batch)
			for iter := 0; ; iter++ {
				dev := entityID(lo + iter%(hi-lo))
				if err := broker.UpdateAttrs(dev, "SoilProbe", simAttrs(iter)); err != nil {
					errs <- err
					return
				}
				// Devices are disjoint across workers and iter increases,
				// so timestamps are unique per series.
				key := timeseries.SeriesKey{Device: dev, Quantity: "soilMoisture_d20"}
				for j := range pts {
					pts[j] = timeseries.BatchPoint{Key: key, Point: timeseries.Point{
						At:    base.Add(time.Duration(iter*cfg.Batch+j) * time.Millisecond),
						Value: 0.2 + float64(j%100)/1000,
					}}
				}
				if _, _, err := store.AppendBatch(pts); err != nil {
					errs <- err
					return
				}
				// Both writes are acked (journaled + fsynced): expose them
				// to the manifest.
				st.ackedIters.Add(1)
				ackedPoints.Add(uint64(cfg.Batch))
			}
		}(w, lo, hi)
	}

	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	report := time.NewTicker(2 * time.Second)
	defer report.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case err := <-errs:
			return err
		case <-done:
			return nil
		case <-tick.C:
			if err := writeManifest(); err != nil {
				return err
			}
		case <-report.C:
			fmt.Printf("walingest: acked points=%d entities=%d\n",
				ackedPoints.Load(), broker.EntityCount())
		}
	}
}

// walVerify is the crash-harness checker: recover the directory into a
// fresh broker + store and assert at least every manifest-acknowledged
// write survived.
func walVerify(cfg walBenchConfig) error {
	if cfg.Dir == "" || cfg.Manifest == "" {
		return fmt.Errorf("walbench: -walverify needs -waldir and -walmanifest")
	}
	data, err := os.ReadFile(cfg.Manifest)
	if err != nil {
		return fmt.Errorf("walbench: manifest: %w", err)
	}
	var m walManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("walbench: manifest: %w", err)
	}
	start := time.Now()
	broker, store, d, err := walDurablePair(cfg.Dir, -1) // no periodic snapshots
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	defer func() {
		broker.Close()
		store.Close()
		_ = d.Close()
	}()
	entities := broker.EntityCount()
	points := store.Stats().Points
	fmt.Printf("walverify: recovered in %v — snapshot=%d tail=%d records, torn=%v\n",
		elapsed.Round(time.Millisecond),
		d.Recovered.SnapshotRecords, d.Recovered.TailRecords, d.Recovered.Torn)
	fmt.Printf("walverify: entities recovered=%d acked=%d | points recovered=%d acked=%d\n",
		entities, m.Entities, points, m.Points)
	if entities < m.Entities || points < m.Points {
		return fmt.Errorf("walbench: recovery lost acknowledged writes (entities %d<%d or points %d<%d)",
			entities, m.Entities, points, m.Points)
	}
	fmt.Println("walverify: OK — every acknowledged write recovered")
	return nil
}

func entityID(i int) string { return fmt.Sprintf("urn:sim:dev:%07d", i) }

func simAttrs(i int) map[string]ngsi.Attribute {
	return map[string]ngsi.Attribute{
		"soilMoisture_d20": {Type: "Number", Value: 0.20 + float64(i%100)/1000},
		"soilMoisture_d50": {Type: "Number", Value: 0.28 + float64(i%50)/1000},
	}
}
