package tenant

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/metrics"
)

// A tenant displaced from the top-K between scrapes must lose its named
// series entirely — its counts fold into _other, and a frozen named
// series would double-count it.
func TestExportRetiresDisplacedSeries(t *testing.T) {
	sim := clock.NewSim(time.Unix(1_700_000_000, 0))
	a := NewAdmission(Config{
		Enabled: true,
		Limits:  Limits{Default: Quota{MsgsPerSec: 1000}},
		Clock:   sim,
	})
	reg := metrics.NewRegistry()

	// alpha ranks last of the top-K, behind topK-1 busier tenants; beta
	// rides _other.
	for i := 0; i < topK-1; i++ {
		for j := 0; j < 15; j++ {
			a.Admit(ID(fmt.Sprintf("busy%d", i)), 1)
		}
	}
	for i := 0; i < 10; i++ {
		a.Admit("alpha", 1)
	}
	a.Admit("beta", 1)
	a.Export(reg)
	snap := reg.Snapshot()
	if !strings.Contains(snap, "tenant.admitted.alpha") {
		t.Fatalf("top tenant has no named series:\n%s", snap)
	}
	if !strings.Contains(snap, "tenant.admitted._other") {
		t.Fatalf("displaced tenant not aggregated into _other:\n%s", snap)
	}

	// beta overtakes alpha: alpha's named series must disappear, not
	// freeze at its last value while also riding _other.
	for i := 0; i < 20; i++ {
		a.Admit("beta", 1)
	}
	a.Export(reg)
	snap = reg.Snapshot()
	if strings.Contains(snap, "tenant.admitted.alpha") {
		t.Fatalf("displaced tenant kept its stale named series:\n%s", snap)
	}
	if !strings.Contains(snap, "tenant.admitted.beta") {
		t.Fatalf("new top tenant has no named series:\n%s", snap)
	}

	// alpha idles out of the ledger entirely; with topK tenants left the
	// _other aggregate must retire too.
	a.mu.Lock()
	delete(a.tenants, "alpha")
	a.mu.Unlock()
	a.Export(reg)
	snap = reg.Snapshot()
	if strings.Contains(snap, "_other") {
		t.Fatalf("_other series survived with no aggregated tenants:\n%s", snap)
	}
}
