package core

import (
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/tenant"
)

// TestAdmissionFogUplinkPacedAndRefused: a farm past its burst has each
// fog uplink charged once and paced before the backhaul trip; past one
// second of debt the uplink is refused without a charge and the fog node
// keeps the batch, which its replay later delivers, charged once.
// Platform.Close cuts a pending pace short and still delivers the charged
// batch.
func TestAdmissionFogUplinkPacedAndRefused(t *testing.T) {
	p := newPlatform(t, PilotIntercrop, ModeFarmFog, false)
	sim := clock.NewSim(t0)
	p.Admission = tenant.NewAdmission(tenant.Config{
		Enabled: true,
		Limits:  tenant.Limits{Default: tenant.Quota{MsgsPerSec: 10}},
		Burst:   time.Second,
		Clock:   sim,
	})
	status := func() tenant.Status {
		for _, st := range p.Admission.Tenants() {
			return st
		}
		return tenant.Status{}
	}
	n := 0
	batch := func() []model.Reading {
		n++
		return []model.Reading{{
			Device: "fog-probe", Quantity: model.QSoilMoisture, Value: 0.3,
			At: t0.Add(time.Duration(n) * time.Minute),
		}}
	}
	stored := func() uint64 { return p.Metrics().Counter("cloud.ingest.readings").Value() }
	checkCharged := func(want uint64) {
		t.Helper()
		if st := status(); st.Admitted != want || stored() != want {
			t.Fatalf("charged %d and stored %d batches, want %d of each", st.Admitted, stored(), want)
		}
	}

	// The burst goes at once.
	for i := 0; i < 10; i++ {
		if err := p.cloudUplink(batch()); err != nil {
			t.Fatalf("burst uplink %d: %v", i, err)
		}
	}
	// Past it each uplink is charged and held until the clock refills
	// the bucket; eleven take the debt past one second.
	paced := make(chan error, 11)
	for i := 1; i <= 11; i++ {
		b := batch()
		go func() { paced <- p.cloudUplink(b) }()
		want := float64(i) / 10
		for deadline := time.Now().Add(2 * time.Second); status().DebtSec < want-1e-9; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("paced uplink %d never charged", i)
			}
		}
	}
	if st := status(); st.Admitted != 21 || stored() != 10 {
		t.Fatalf("charged %d and stored %d batches, want 21 charged and the 10 unpaced stored", st.Admitted, stored())
	}

	// Refused: the fog node's trip fails without a charge and the batch
	// stays queued.
	debt := status().DebtSec
	if err := p.Fog.Ingest(batch()); err != nil {
		t.Fatal(err)
	}
	if sent := p.Fog.Flush(); sent != 0 {
		t.Fatalf("fog flushed %d batches past one second of debt", sent)
	}
	if st := status(); st.DebtSec != debt || st.Admitted != 21 {
		t.Fatalf("refused uplink charged: debt %v → %v, admitted %d", debt, st.DebtSec, st.Admitted)
	}

	sim.Advance(2 * time.Second)
	for i := 0; i < 11; i++ {
		if err := <-paced; err != nil {
			t.Fatalf("paced uplink: %v", err)
		}
	}
	// The replay (the drain goroutine's, woken by the ingest, or this
	// Flush) delivers the kept batch, charged once.
	p.Fog.Flush()
	checkCharged(22)

	// Drain the refilled bucket, then hold a fog trip in its pace and
	// close the platform: Close must not wait for the clock.
	for i := 0; i < 8; i++ {
		if err := p.cloudUplink(batch()); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Fog.Ingest(batch()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); status().DebtSec <= 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the fog trip was never paced")
		}
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Platform.Close waited out a paced fog uplink")
	}
	checkCharged(31)
}

// TestAdmissionFogUplinkChargedOnlyWhenItCrosses: while the backhaul is
// partitioned every fog trip is refused before admission, so the farm's
// usage and debt stay where they were however often the fog node tries;
// once healed, the queued batches cross and each is charged exactly once.
func TestAdmissionFogUplinkChargedOnlyWhenItCrosses(t *testing.T) {
	p := newPlatform(t, PilotIntercrop, ModeFarmFog, false)
	p.Admission = tenant.NewAdmission(tenant.Config{
		Enabled: true,
		Limits:  tenant.Limits{Default: tenant.Quota{MsgsPerSec: 10}},
		Burst:   time.Second,
		Clock:   clock.NewSim(t0),
	})
	status := func() tenant.Status {
		for _, st := range p.Admission.Tenants() {
			return st
		}
		return tenant.Status{}
	}
	stored := func() uint64 { return p.Metrics().Counter("cloud.ingest.readings").Value() }
	// One charged trip first, so the tenant has a usage row to compare.
	reading := func(i int) []model.Reading {
		return []model.Reading{{
			Device: "fog-probe", Quantity: model.QSoilMoisture, Value: 0.3,
			At: t0.Add(time.Duration(i) * time.Minute),
		}}
	}
	if err := p.cloudUplink(reading(0)); err != nil {
		t.Fatal(err)
	}
	before := status()
	trips, _ := p.Backhaul.Trips()

	p.Backhaul.SetPartitioned(true)
	const rounds = 5
	for i := 1; i <= rounds; i++ {
		if err := p.Fog.Ingest(reading(i)); err != nil {
			t.Fatal(err)
		}
		if sent := p.Fog.Flush(); sent != 0 {
			t.Fatalf("round %d: %d batches crossed a partitioned backhaul", i, sent)
		}
	}
	if st := status(); st.Admitted != before.Admitted || st.BytesIn != before.BytesIn || st.DebtSec != before.DebtSec {
		t.Fatalf("partitioned trips charged: admitted %d → %d, bytes %d → %d, debt %v → %v",
			before.Admitted, st.Admitted, before.BytesIn, st.BytesIn, before.DebtSec, st.DebtSec)
	}
	if now, _ := p.Backhaul.Trips(); now != trips {
		t.Fatalf("partitioned trips counted as made: %d → %d", trips, now)
	}

	p.Backhaul.SetPartitioned(false)
	p.Fog.Flush()
	if stored() != 1+rounds {
		t.Fatalf("stored %d readings after healing, want %d", stored(), 1+rounds)
	}
	now, _ := p.Backhaul.Trips()
	st := status()
	if st.Admitted-before.Admitted != now-trips {
		t.Errorf("%d trips crossed after healing, %d charged", now-trips, st.Admitted-before.Admitted)
	}
	if got, want := st.BytesIn-before.BytesIn, uint64(rounds*approxReadingBytes); got != want {
		t.Errorf("healed replay charged %d bytes, want %d: each batch once", got, want)
	}
}
