// Benchmarks regenerating every derived experiment (the tables
// `swamp-sim -experiments` prints). The paper itself publishes no tables or
// figures (it is a 2-page overview), so each benchmark reproduces one
// *claim* — see DESIGN.md for the mapping.
//
// Macro experiments (seasons, availability runs) execute once per
// iteration and export their headline numbers via b.ReportMetric, so
// `go test -bench . -benchmem` prints the full result set.
package swamp_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/anomaly"
	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/core"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/security/oauth"
	"github.com/swamp-project/swamp/internal/security/pep"
	"github.com/swamp-project/swamp/internal/security/secchan"
	"github.com/swamp-project/swamp/internal/tenant"
)

// --- EXP-A1: deployment configurations -----------------------------------

func BenchmarkDeploymentConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.ExpDeploymentConfigs(core.PilotIntercrop, 5, 2*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.DecideLatency.Microseconds()), fmt.Sprintf("%s-decide-us", r.Mode))
			b.ReportMetric(float64(r.SensorToStore.Microseconds()), fmt.Sprintf("%s-ingest-us", r.Mode))
		}
	}
}

// --- EXP-A2: availability through Internet disconnection ------------------

func BenchmarkFogOfflineAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.ExpFogOfflineAvailability(core.PilotIntercrop, 9)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			avail := 1 - float64(r.DecisionFailures)/float64(r.Cycles)
			b.ReportMetric(avail, fmt.Sprintf("%s-availability", r.Mode))
		}
	}
}

// --- EXP-P1: VRI vs uniform (MATOPIBA) ------------------------------------

func BenchmarkVRIvsUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.ExpVRIvsUniform(0.3, 42)
		if err != nil {
			b.Fatal(err)
		}
		vri, uni := rows[0], rows[1]
		b.ReportMetric(vri.WaterM3, "vri-water-m3")
		b.ReportMetric(uni.WaterM3, "uniform-water-m3")
		b.ReportMetric(vri.EnergyKWh, "vri-energy-kWh")
		b.ReportMetric(uni.EnergyKWh, "uniform-energy-kWh")
		b.ReportMetric(100*(1-vri.WaterM3/uni.WaterM3), "water-saving-pct")
		b.ReportMetric(vri.YieldIndex, "vri-yield")
		b.ReportMetric(uni.YieldIndex, "uniform-yield")
	}
}

// --- EXP-P2: canal allocation (CBEC) --------------------------------------

func BenchmarkCanalAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.ExpCanalAllocation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.WorstDelivery, r.Allocator+"-worst-m3")
			b.ReportMetric(r.TotalDelivered, r.Allocator+"-total-m3")
		}
	}
}

// --- EXP-P3: desalination-aware sourcing (Intercrop) -----------------------

func BenchmarkDesalinationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.ExpDesalinationCost(90, 5)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.CostEUR, r.Policy+"-cost-eur")
		}
		b.ReportMetric(100*(1-rows[0].CostEUR/rows[1].CostEUR), "cost-saving-pct")
	}
}

// --- EXP-P4: regulated deficit quality (Guaspari) --------------------------

func BenchmarkDeficitQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.ExpDeficitQuality(9)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.QualityIndex, r.Strategy+"-quality")
			b.ReportMetric(r.IrrigationMM, r.Strategy+"-water-mm")
		}
	}
}

// --- EXP-S1: DoS detection --------------------------------------------------

func BenchmarkDoSDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.ExpDoSDetection([]float64{5, 20, 100, 1000})
		for _, r := range rows {
			if r.Detected {
				b.ReportMetric(float64(r.DetectAfter), fmt.Sprintf("detect-msgs@%.0fps", r.AttackRate))
			}
		}
	}
}

// --- EXP-S2: sensor tamper detection ----------------------------------------

func BenchmarkTamperDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.ExpTamperDetection([]float64{0.03, 0.05, 0.1, 0.2}, 3)
		for _, r := range rows {
			if r.DetectedBy != "" {
				b.ReportMetric(float64(r.SamplesToFlag), fmt.Sprintf("detect-samples@bias%.2f", r.BiasMagnitude))
			}
		}
	}
}

// --- EXP-S3: Sybil detection -------------------------------------------------

func BenchmarkSybilDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.ExpSybilDetection([]int{3, 6, 12}, []float64{0})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.DetectedCount)/float64(r.SwarmSize), fmt.Sprintf("recall@swarm%d", r.SwarmSize))
		}
	}
}

// --- EXP-S4: cryptography overhead -------------------------------------------

func BenchmarkCryptoOverhead(b *testing.B) {
	for _, size := range []int{32, 256, 1024} {
		b.Run(fmt.Sprintf("seal-%dB", size), func(b *testing.B) {
			ring := secchan.NewKeyRing()
			if _, err := ring.Generate("dev"); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, size)
			aad := []byte("ul/key/dev/attrs")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ring.Seal("dev", payload, aad); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("open-%dB", size), func(b *testing.B) {
			ring := secchan.NewKeyRing()
			if _, err := ring.Generate("dev"); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, size)
			aad := []byte("ul/key/dev/attrs")
			env, err := ring.Seal("dev", payload, aad)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := ring.Open(env, aad); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("plaintext-baseline-256B", func(b *testing.B) {
		payload := make([]byte, 256)
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += len(payload)
		}
		_ = sink
	})
}

// --- EXP-S5: OAuth + PEP pipeline ---------------------------------------------

func BenchmarkAuthPipeline(b *testing.B) {
	idm := identity.NewStore()
	if err := idm.Register(identity.Principal{
		ID: "farmer", Roles: []identity.Role{identity.RoleFarmer}, Owner: "farm1",
	}, "pw"); err != nil {
		b.Fatal(err)
	}
	tokens := oauth.NewServer(idm, oauth.Config{})
	pdp := pep.NewPDP(pep.Policy{
		ID: "own-data", Roles: []identity.Role{identity.RoleFarmer},
		Owners: []tenant.ID{"farm1"}, ResourcePattern: "ngsi:farm1:*", Effect: pep.Permit,
	})
	enforcer := pep.NewPEP(tokens, pdp, nil)

	b.Run("grant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tokens.GrantPassword("farmer", "pw"); err != nil {
				b.Fatal(err)
			}
		}
	})
	tok, err := tokens.GrantPassword("farmer", "pw")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("authorize-permit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := enforcer.Authorize(tok.Value, "read", "ngsi:farm1:plot1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("authorize-deny", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := enforcer.Authorize(tok.Value, "read", "ngsi:farm2:plot1"); err == nil {
				b.Fatal("cross-tenant access permitted")
			}
		}
	})
}

// --- EXP-S6: partial view vs baseline quality -----------------------------------

func BenchmarkPartialViewBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.ExpPartialViewBaseline([]int{1, 2, 4, 8, 16}, 5)
		for _, r := range rows {
			caught := 0.0
			if r.TamperCaught {
				caught = 1
			}
			b.ReportMetric(caught, fmt.Sprintf("tpr@%dprobes", r.Probes))
		}
	}
}

// --- Ablations -------------------------------------------------------------------

// BenchmarkSubscriptionThrottling measures notification suppression under
// NGSI throttling (DESIGN.md ablation).
func BenchmarkSubscriptionThrottling(b *testing.B) {
	for _, throttle := range []time.Duration{0, time.Second} {
		b.Run(fmt.Sprintf("throttle-%v", throttle), func(b *testing.B) {
			sim := clock.NewSim(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
			ctx := ngsi.NewBroker(ngsi.BrokerConfig{Clock: sim})
			defer ctx.Close()
			var delivered atomic.Int64
			if _, err := ctx.Subscribe(ngsi.Subscription{
				EntityIDPattern: "*",
				Throttling:      throttle,
				Notifier:        ngsi.Callback(func(ngsi.Notification) { delivered.Add(1) }),
			}); err != nil {
				b.Fatal(err)
			}
			// Fixed batch per iteration at 10 updates/sim-second, with
			// drain pauses so the dispatch queue reflects throttling, not
			// benchmark back-pressure.
			const batch = 1000
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := 0; u < batch; u++ {
					err := ctx.UpdateAttrs("e1", "T", map[string]ngsi.Attribute{
						"v": {Type: "Number", Value: float64(u)},
					})
					if err != nil {
						b.Fatal(err)
					}
					if u%10 == 9 {
						sim.Advance(time.Second)
					}
					if u%100 == 99 {
						time.Sleep(time.Millisecond)
					}
				}
			}
			b.StopTimer()
			time.Sleep(50 * time.Millisecond)
			total := float64(b.N) * batch
			b.ReportMetric(float64(delivered.Load())/total, "notify-ratio")
		})
	}
}

// BenchmarkAnomalyWindow sweeps the DoS window length: longer windows
// smooth bursts but delay detection (DESIGN.md ablation).
func BenchmarkAnomalyWindow(b *testing.B) {
	for _, window := range []time.Duration{time.Second, 10 * time.Second, time.Minute} {
		b.Run(fmt.Sprintf("window-%v", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				det := anomaly.NewRateDetector(anomaly.RateConfig{Window: window, LimitPerSec: 10})
				at := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
				detectAfter := -1
				for m := 0; m < 50_000; m++ {
					if a := det.Observe("flood", at); a != nil {
						detectAfter = m + 1
						break
					}
					at = at.Add(10 * time.Millisecond) // 100 msg/s flood
				}
				if detectAfter > 0 {
					b.ReportMetric(float64(detectAfter), "detect-msgs")
				}
			}
		})
	}
}

// --- micro-benchmarks of the hot paths ------------------------------------------

func BenchmarkMQTTPublishRoundtrip(b *testing.B) {
	broker := mqtt.NewBroker(mqtt.BrokerConfig{})
	defer broker.Close()
	pub := dialPipe(b, broker, "pub")
	sub := dialPipe(b, broker, "sub")
	got := make(chan struct{}, 256)
	if _, err := sub.Subscribe("bench/#", 1, func(mqtt.Message) { got <- struct{}{} }); err != nil {
		b.Fatal(err)
	}
	payload := []byte("m1|0.231|m2|0.275")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish("bench/probe/attrs", payload, 1, false); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}

func BenchmarkNGSIUpdate(b *testing.B) {
	ctx := ngsi.NewBroker(ngsi.BrokerConfig{})
	defer ctx.Close()
	attrs := map[string]ngsi.Attribute{
		"soilMoisture_d20": {Type: "Number", Value: 0.23},
		"soilMoisture_d50": {Type: "Number", Value: 0.29},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.UpdateAttrs("urn:bench:probe", "SoilProbe", attrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnomalyOnReading feeds the engine one quantity from a fleet of
// distinct devices, round-robin: the consistency detector judges each value
// against every other device, so the cost to watch is how it grows with
// fleet size.
func BenchmarkAnomalyOnReading(b *testing.B) {
	for _, fleet := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("fleet=%d", fleet), func(b *testing.B) {
			eng := anomaly.NewEngine(anomaly.EngineConfig{Sink: func(anomaly.Alert) {}})
			at := time.Now()
			devices := make([]model.DeviceID, fleet)
			for i := range devices {
				devices[i] = model.DeviceID(fmt.Sprintf("probe-%05d", i))
				eng.OnReading(model.Reading{
					Device: devices[i], Quantity: model.QSoilMoisture,
					Value: 0.25 + float64(i%10)*0.001, At: at,
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.OnReading(model.Reading{
					Device: devices[i%fleet], Quantity: model.QSoilMoisture,
					Value: 0.25 + float64(i%7)*0.001, At: at,
				})
			}
		})
	}
}

func BenchmarkSeasonSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := core.New(core.Options{Pilot: core.PilotIntercrop, Mode: core.ModeFarmFog, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := p.RunSeason(core.SeasonHooks{})
		if err != nil {
			p.Close()
			b.Fatal(err)
		}
		b.ReportMetric(rep.IrrigationMM, "irrigation-mm")
		b.ReportMetric(rep.YieldIndex, "yield-index")
		p.Close()
	}
}
