package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/agent"
	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/config"
	"github.com/swamp-project/swamp/internal/tenant"
)

// tenantStatus returns the tenant's admission row (zero if unseen).
func tenantStatus(adm *tenant.Admission, id tenant.ID) tenant.Status {
	for _, st := range adm.Tenants() {
		if st.ID == id {
			return st
		}
	}
	return tenant.Status{}
}

// TestAdmissionChargedOnceAtTheDoor: admission charges a device reading
// once, at the MQTT door it came in by. In both deployment modes, with
// admission on, N probe publishes that all reach the cloud store leave
// the tenant's Admitted at exactly N and its BytesIn at exactly their
// payload bytes: the fog uplink that carries them on is internal
// traffic.
func TestAdmissionChargedOnceAtTheDoor(t *testing.T) {
	for _, mode := range []Mode{ModeFarmFog, ModeCloudOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Tenant.Enabled = true
			p, err := New(Options{Pilot: PilotMATOPIBA, Mode: mode, Seed: 7, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)

			// Count what the probes publish, as the broker admitted it.
			var mu sync.Mutex
			var publishes, bytes, readings int
			tap := p.Broker.Tap
			p.Broker.Tap = func(clientID, topic string, payload []byte, at time.Time) {
				if strings.Contains(clientID, "-probe-") {
					values, err := agent.DecodeUL(string(payload))
					mu.Lock()
					publishes++
					bytes += len(payload)
					if err == nil {
						readings += len(values)
					}
					mu.Unlock()
				}
				tap(clientID, topic, payload, at)
			}

			const rounds = 20
			for i := 0; i < rounds; i++ {
				if err := p.PumpOnce(t0.Add(time.Duration(i)*time.Hour), 5*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			n := rounds * len(p.Probes)
			if !p.WaitPipeline(uint64(n), 5*time.Second) {
				t.Fatal("the pipeline did not process every publish")
			}
			if p.Fog != nil {
				p.Fog.Flush()
			}
			mu.Lock()
			defer mu.Unlock()
			if publishes != n {
				t.Fatalf("the broker admitted %d probe publishes, want %d", publishes, n)
			}
			if got := p.Metrics().Counter("cloud.ingest.readings").Value(); got != uint64(readings) {
				t.Fatalf("cloud stored %d readings, want the %d published", got, readings)
			}
			st := tenantStatus(p.Admission, tenant.ID(PilotMATOPIBA.Name))
			if st.Admitted != uint64(n) || st.BytesIn != uint64(bytes) {
				t.Fatalf("tenant charged %d messages and %d bytes, want %d and %d: each publish once",
					st.Admitted, st.BytesIn, n, bytes)
			}
		})
	}
}

// TestAdmissionFogTenantWithinQuotaNeverPaced: on a simulated clock, a
// farm-fog tenant publishing at 60 % of its msgs_per_sec is never paced.
// The platform's broker runs its controller on the wall clock, so the
// test stands in for the MQTT door: each publish is admitted on the
// simulated controller (its PUBACK goes at once only if the wait is 0),
// then crosses the whole farm-fog pipeline, whose fog uplink reads the
// same controller. The debt stays 0 throughout.
func TestAdmissionFogTenantWithinQuotaNeverPaced(t *testing.T) {
	p := newPlatform(t, PilotMATOPIBA, ModeFarmFog, false)
	sim := clock.NewSim(t0)
	const quota = 10
	p.Admission = tenant.NewAdmission(tenant.Config{
		Enabled: true,
		Limits:  tenant.Limits{Default: tenant.Quota{MsgsPerSec: quota}},
		Burst:   time.Second,
		Clock:   sim,
	})
	tid := tenant.ID(PilotMATOPIBA.Name)
	step := time.Second / (quota * 6 / 10) // one publish per step: 60 % of the quota

	const publishes = 6 * quota // six seconds of simulated time
	for i := 0; i < publishes; i++ {
		sim.Advance(step)
		u := p.Probes[i%len(p.Probes)]
		readings, err := u.Probe.Sample(t0.Add(time.Duration(i) * time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if d := p.Admission.Admit(tid, 0); !d.Allowed() || d.Wait != 0 {
			t.Fatalf("publish %d at 60 %% of the quota: %+v, want its PUBACK at once", i, d)
		}
		if err := u.Send(readings); err != nil {
			t.Fatal(err)
		}
		if !p.WaitPipeline(uint64(i+1), 5*time.Second) {
			t.Fatalf("publish %d never reached the fog node", i)
		}
		flushed := make(chan struct{})
		go func() {
			p.Fog.Flush()
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-time.After(2 * time.Second):
			t.Fatalf("publish %d: the fog uplink was held (paced) on the simulated clock", i)
		}
		if st := tenantStatus(p.Admission, tid); st.DebtSec != 0 || st.Admitted != uint64(i+1) {
			t.Fatalf("publish %d: debt %v, admitted %d; want no debt, each publish charged once",
				i, st.DebtSec, st.Admitted)
		}
	}
}
