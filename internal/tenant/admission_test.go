package tenant

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
)

func simAdmission(t *testing.T, limits Limits) (*Admission, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Unix(1_700_000_000, 0))
	a := NewAdmission(Config{Enabled: true, Limits: limits, Clock: sim})
	return a, sim
}

func TestDisabledAndNoneAdmitEverything(t *testing.T) {
	var nilA *Admission
	if d := nilA.Admit("farm-a", 1<<20); !d.Allowed() {
		t.Fatalf("nil controller refused: %+v", d)
	}
	a, _ := simAdmission(t, Limits{Default: Quota{MsgsPerSec: 1}})
	a.SetEnabled(false)
	for i := 0; i < 1000; i++ {
		if d := a.Admit("farm-a", 4096); !d.Allowed() {
			t.Fatalf("disabled controller refused at %d: %+v", i, d)
		}
	}
	a.SetEnabled(true)
	for i := 0; i < 1000; i++ {
		if d := a.Admit(None, 4096); !d.Allowed() {
			t.Fatalf("None tenant refused at %d: %+v", i, d)
		}
	}
}

// A zero-msgs quota is the operator kill switch: CONNECT is refused at
// the door, and every message, the first one included, is refused
// uncharged with ActDisconnected — its session is dropped.
func TestZeroQuotaSuspendsTenant(t *testing.T) {
	a, _ := simAdmission(t, Limits{
		Default:   Quota{MsgsPerSec: 100},
		Overrides: map[ID]Quota{"banned": {MsgsPerSec: 0}},
	})
	if a.AdmitConnect("banned") {
		t.Fatal("suspended tenant's CONNECT was admitted")
	}
	for i := 0; i < 3; i++ {
		if d := a.Admit("banned", 10); d.Action != ActDisconnected {
			t.Fatalf("suspended tenant got %v at message %d, want disconnected", d.Action, i)
		}
	}
	for _, st := range a.Tenants() {
		if st.ID == "banned" && (st.Admitted != 0 || st.BytesIn != 0 || st.Disconnects != 3) {
			t.Fatalf("suspended tenant's usage: %+v, want 3 disconnects and nothing charged", st)
		}
	}
	// The healthy tenant is untouched.
	if d := a.Admit("farm-a", 10); !d.Allowed() {
		t.Fatalf("healthy tenant refused: %+v", d)
	}
	if a.AdmitConnect("farm-a") != true {
		t.Fatal("healthy tenant's CONNECT refused")
	}
}

// Burst-then-idle: a tenant may spend its full burst allowance at once,
// is paced under sustained overrun, then refused, and is fully forgiven
// after idling long enough for the buckets to refill (debt is capped, so
// recovery time is bounded).
func TestBurstThenIdleRefill(t *testing.T) {
	a, sim := simAdmission(t, Limits{Default: Quota{MsgsPerSec: 10}})
	a.SetBurst(2 * time.Second) // capacity: 20 messages

	// The full burst is admitted back-to-back, unpaced.
	for i := 0; i < 20; i++ {
		if d := a.Admit("farm-a", 1); !d.Allowed() || d.Wait != 0 {
			t.Fatalf("burst message %d: %+v", i, d)
		}
	}
	// Past the burst each message is admitted with a wait of its debt —
	// 0.1 s more per message — until the debt passes one second: ten
	// messages reach it, an eleventh crosses it (its wait capped at 1 s),
	// and the next is refused with a Retry-After.
	for i := 1; i <= 11; i++ {
		want := min(time.Duration(i)*100*time.Millisecond, time.Second)
		if d := a.Admit("farm-a", 1); !d.Allowed() || d.Wait != want {
			t.Fatalf("paced message %d: %+v, want allowed with wait %v", i, d, want)
		}
	}
	if d := a.Admit("farm-a", 1); d.Action != ActRejected || d.Wait <= 0 {
		t.Fatalf("message past the pacing window: %+v, want rejected with Retry-After", d)
	}

	// Idle past the debt cap + burst window: fully forgiven.
	sim.Advance(rejectCapSec*time.Second + 3*time.Second)
	for i := 0; i < 20; i++ {
		if d := a.Admit("farm-a", 1); !d.Allowed() || d.Wait != 0 {
			t.Fatalf("post-idle message %d: %+v (refill did not forgive)", i, d)
		}
	}
}

// Shrinking a quota below live usage (the reload path) clamps the
// tenant's bucket immediately: the very next burst throttles instead of
// riding the old allowance.
func TestReloadShrinkBelowUsageClampsImmediately(t *testing.T) {
	a, _ := simAdmission(t, Limits{Default: Quota{MsgsPerSec: 1000}})
	a.SetBurst(2 * time.Second)
	// Establish live usage at the old generous rate.
	for i := 0; i < 500; i++ {
		if d := a.Admit("farm-a", 1); !d.Allowed() {
			t.Fatalf("warm-up message %d refused: %+v", i, d)
		}
	}
	// Reload with a 10/s quota. Remaining tokens must clamp to the new
	// 20-message capacity — not the ~1500 the old rate would leave.
	a.SetLimits(Limits{Default: Quota{MsgsPerSec: 10}})
	allowed := 0
	for i := 0; i < 200; i++ {
		if a.Admit("farm-a", 1).Allowed() {
			allowed++
		}
	}
	// 20 unpaced admits plus the 11 paced ones that take the debt past
	// one second; the clock stands still, so everything after is refused.
	if allowed != 31 {
		t.Fatalf("post-shrink burst admitted %d of 200, want 31 (clamp did not apply)", allowed)
	}
	q, override := a.QuotaFor("farm-a")
	if q.MsgsPerSec != 10 || override {
		t.Fatalf("QuotaFor after reload = %+v override=%v", q, override)
	}
}

// TestAdmissionPaceBoundedAndRefusalsUncharged: an admitted message's
// wait is its debt and never above one second, whatever the message's
// size, and a refused message leaves the debt exactly where it was.
func TestAdmissionPaceBoundedAndRefusalsUncharged(t *testing.T) {
	a, _ := simAdmission(t, Limits{Default: Quota{MsgsPerSec: 7, BytesPerSec: 1000}})
	debt := func() float64 {
		for _, st := range a.Tenants() {
			return st.DebtSec
		}
		return 0
	}
	for i, size := range []int64{1, 900, 5000, 3, 1 << 20, 250, 1, 1, 70000, 2} {
		before := debt()
		d := a.Admit("farm-a", size)
		switch d.Action {
		case ActAllow:
			if d.Wait < 0 || d.Wait > time.Second {
				t.Fatalf("message %d (%d B): wait %v outside [0, 1s]", i, size, d.Wait)
			}
			if want := time.Duration(min(debt(), 1) * float64(time.Second)); d.Wait != want {
				t.Fatalf("message %d: wait %v, want the debt %v", i, d.Wait, want)
			}
		case ActRejected, ActDisconnected:
			if after := debt(); after != before {
				t.Fatalf("refused message %d charged: debt %v → %v", i, before, after)
			}
		}
	}
	// A chunked upload settled past the window is not paced longer: the
	// next message is refused, uncharged.
	a.ChargeBytes("farm-a", 1<<20)
	before := debt()
	if d := a.Admit("farm-a", 1); d.Action == ActAllow {
		t.Fatalf("message after a deep ChargeBytes admitted: %+v", d)
	}
	if after := debt(); after != before {
		t.Fatalf("refused message charged: debt %v → %v", before, after)
	}
}

// TestAdmissionPaceInterruptible: Pace waits on the controller's clock
// and returns early, reporting false, once done closes.
func TestAdmissionPaceInterruptible(t *testing.T) {
	a, sim := simAdmission(t, Limits{Default: Quota{MsgsPerSec: 10}})
	var nilA *Admission
	if !nilA.Pace(Decision{Wait: time.Hour}, nil) || !a.Pace(Decision{}, nil) {
		t.Fatal("a zero wait or a nil controller paced")
	}
	d := Decision{Wait: 500 * time.Millisecond}
	res := make(chan bool)
	go func() { res <- a.Pace(d, nil) }()
	for sim.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	sim.Advance(500 * time.Millisecond)
	if !<-res {
		t.Fatal("Pace reported an interruption after its wait elapsed")
	}
	done := make(chan struct{})
	go func() { res <- a.Pace(d, done) }()
	close(done)
	if <-res {
		t.Fatal("Pace reported a full wait on a standstill clock")
	}
}

// Isolation under -race: one abusive tenant hammering at many times its
// quota must not cost a polite tenant a single message.
func TestFairShareIsolationUnderConcurrency(t *testing.T) {
	a, sim := simAdmission(t, Limits{Default: Quota{MsgsPerSec: 100}})
	a.SetBurst(2 * time.Second)

	const politeTenants = 8
	var wg sync.WaitGroup
	politeRefused := make([]int, politeTenants)
	abusiveOutcomes := struct {
		sync.Mutex
		refused int
	}{}

	stop := make(chan struct{})
	wg.Add(1)
	go func() { // abusive: full-speed hammer, no pacing
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !a.Admit("abusive", 512).Allowed() {
				abusiveOutcomes.Lock()
				abusiveOutcomes.refused++
				abusiveOutcomes.Unlock()
			}
		}
	}()
	// Polite tenants: 50 messages per simulated second each — half quota.
	for p := 0; p < politeTenants; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := ID('a' + byte(p))
			for round := 0; round < 40; round++ {
				for i := 0; i < 5; i++ {
					if !a.Admit(id, 128).Allowed() {
						politeRefused[p]++
					}
				}
				time.Sleep(time.Millisecond) // yield to the hammer
			}
		}(p)
	}
	// Drive the sim clock so buckets refill while the goroutines run.
	for i := 0; i < 40; i++ {
		time.Sleep(time.Millisecond)
		sim.Advance(100 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	for p, n := range politeRefused {
		if n != 0 {
			t.Errorf("polite tenant %d lost %d messages to the abusive neighbour", p, n)
		}
	}
	abusiveOutcomes.Lock()
	refused := abusiveOutcomes.refused
	abusiveOutcomes.Unlock()
	if refused == 0 {
		t.Error("abusive tenant was never refused")
	}
}

func TestInflightBound(t *testing.T) {
	a, _ := simAdmission(t, Limits{Default: Quota{MsgsPerSec: 1000, Inflight: 2}})
	d1, rel1 := a.AdmitRequest("farm-a", 10)
	d2, rel2 := a.AdmitRequest("farm-a", 10)
	if !d1.Allowed() || !d2.Allowed() {
		t.Fatalf("first two requests refused: %+v %+v", d1, d2)
	}
	if d3, rel3 := a.AdmitRequest("farm-a", 10); d3.Allowed() || rel3 != nil {
		t.Fatalf("third concurrent request admitted past Inflight=2: %+v", d3)
	}
	rel1()
	rel1() // double release must not free a second slot
	if d4, rel4 := a.AdmitRequest("farm-a", 10); !d4.Allowed() {
		t.Fatalf("request after release refused: %+v", d4)
	} else {
		rel4()
	}
	rel2()
}

// TestAdmissionInflightBoundHoldsUnderConcurrency: many goroutines
// holding requests open never observe more than Inflight at once — the
// slot is reserved atomically before the rate check, and given back if
// the rate check refuses.
func TestAdmissionInflightBoundHoldsUnderConcurrency(t *testing.T) {
	const limit = 3
	a, _ := simAdmission(t, Limits{Default: Quota{MsgsPerSec: 1 << 20, Inflight: limit}})
	var open, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d, release := a.AdmitRequest("farm-a", 1)
				if !d.Allowed() {
					runtime.Gosched()
					continue
				}
				n := open.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				runtime.Gosched()
				open.Add(-1)
				release()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > limit || p == 0 {
		t.Fatalf("peak concurrent requests = %d, want 1..%d", p, limit)
	}
	if n := a.Tenants()[0].Inflight; n != 0 {
		t.Fatalf("inflight after every release = %d, want 0", n)
	}
	// A request the rate check refuses gives its slot back.
	a.SetLimits(Limits{Default: Quota{MsgsPerSec: 0, Inflight: limit}})
	for i := 0; i < 2*limit; i++ {
		if d, _ := a.AdmitRequest("farm-a", 1); d.Allowed() {
			t.Fatal("suspended tenant admitted")
		}
	}
	if n := a.Tenants()[0].Inflight; n != 0 {
		t.Fatalf("refused requests kept %d inflight slots", n)
	}
}

func TestSubscriptionSlots(t *testing.T) {
	a, _ := simAdmission(t, Limits{Default: Quota{MsgsPerSec: 100, Subscriptions: 2}})
	if err := a.ReserveSubscription("farm-a"); err != nil {
		t.Fatal(err)
	}
	if err := a.ReserveSubscription("farm-a"); err != nil {
		t.Fatal(err)
	}
	if err := a.ReserveSubscription("farm-a"); err == nil {
		t.Fatal("third subscription admitted past quota 2")
	}
	a.ReleaseSubscription("farm-a")
	if err := a.ReserveSubscription("farm-a"); err != nil {
		t.Fatalf("slot not returned: %v", err)
	}
	// Over-release never goes negative.
	a.ReleaseSubscription("other")
	if err := a.ReserveSubscription("other"); err != nil {
		t.Fatal(err)
	}
}

// TestSubscriptionSlotsSurviveEnableToggle: slots taken while admission is
// off count once it is on, so a tenant cannot enter enforcement above its
// quota, and a slot released after the toggle is one the tenant held.
func TestSubscriptionSlotsSurviveEnableToggle(t *testing.T) {
	limits := Limits{Default: Quota{MsgsPerSec: 100, Subscriptions: 2}}
	t.Run("held before enable", func(t *testing.T) {
		a, _ := simAdmission(t, limits)
		a.SetEnabled(false)
		for i := 0; i < 2; i++ {
			if err := a.ReserveSubscription("farm-a"); err != nil {
				t.Fatalf("reserve %d with admission off: %v", i+1, err)
			}
		}
		a.SetEnabled(true)
		if err := a.ReserveSubscription("farm-a"); !errors.Is(err, ErrSubscriptionQuota) {
			t.Fatalf("third reserve after enable = %v, want ErrSubscriptionQuota", err)
		}
	})
	t.Run("released after enable", func(t *testing.T) {
		a, _ := simAdmission(t, limits)
		a.SetEnabled(false)
		if err := a.ReserveSubscription("farm-a"); err != nil { // X
			t.Fatal(err)
		}
		a.SetEnabled(true)
		if err := a.ReserveSubscription("farm-a"); err != nil { // Y
			t.Fatal(err)
		}
		a.ReleaseSubscription("farm-a")                         // X goes
		if err := a.ReserveSubscription("farm-a"); err != nil { // Z
			t.Fatalf("reserve after releasing X: %v", err)
		}
		if err := a.ReserveSubscription("farm-a"); !errors.Is(err, ErrSubscriptionQuota) {
			t.Fatalf("fourth reserve holding Y and Z = %v, want ErrSubscriptionQuota", err)
		}
	})
}

func TestWebhookShares(t *testing.T) {
	a, _ := simAdmission(t, Limits{
		Default:   Quota{MsgsPerSec: 10},
		Overrides: map[ID]Quota{"half": {MsgsPerSec: 10, WebhookSharePct: 50}},
	})
	if got := a.WebhookQueueCap("half", 64); got != 32 {
		t.Fatalf("WebhookQueueCap(half, 64) = %d, want 32", got)
	}
	if got := a.WebhookQueueCap("full", 64); got != 64 {
		t.Fatalf("WebhookQueueCap(full, 64) = %d, want 64", got)
	}
}

// The ledger is bounded: at maxTenants the longest-idle unused states
// are reclaimed to make room, fully idle states are swept past the idle
// window, and states with live usage or explicit overrides are never
// reclaimed — so an unbounded tenant-ID source cannot grow the map (or
// the /admin/tenants and Export snapshots) without limit.
func TestLedgerEviction(t *testing.T) {
	sim := clock.NewSim(time.Unix(1_700_000_000, 0))
	a := NewAdmission(Config{
		Enabled: true,
		Limits: Limits{
			Default:   Quota{MsgsPerSec: 100, Subscriptions: 4},
			Overrides: map[ID]Quota{"pinned": {MsgsPerSec: 5}},
		},
		Clock: sim,
	})
	size := func() int {
		a.mu.RLock()
		defer a.mu.RUnlock()
		return len(a.tenants)
	}
	has := func(id ID) bool {
		a.mu.RLock()
		defer a.mu.RUnlock()
		_, ok := a.tenants[id]
		return ok
	}

	tid := func(i int) ID { return ID(fmt.Sprintf("t%d", i)) }
	for i := 1; i <= maxTenants; i++ {
		a.Admit(tid(i), 1)
		sim.Advance(time.Millisecond) // distinct idle ages, oldest first
	}
	if err := a.ReserveSubscription("t1"); err != nil {
		t.Fatal(err)
	}
	// At the bound: the next unseen tenant reclaims the longest-idle
	// unused state (t2 — t1 is older but holds a subscription slot).
	a.Admit(tid(maxTenants+1), 1)
	if size() > maxTenants {
		t.Fatalf("ledger grew past maxTenants: %d states", size())
	}
	if has("t2") || !has("t1") {
		t.Fatalf("cap eviction picked wrong state: t1=%v t2=%v", has("t1"), has("t2"))
	}
	// Fully idle past the window: a sweep reclaims everything unused,
	// keeping the busy tenant and the explicit override.
	a.Admit("pinned", 1)
	sim.Advance(idleEvictAfter + time.Minute)
	a.Admit(tid(maxTenants+2), 1)
	if !has("t1") {
		t.Fatal("idle sweep evicted a tenant holding a subscription slot")
	}
	if !has("pinned") {
		t.Fatal("idle sweep evicted an explicit override")
	}
	for _, id := range []ID{"t3", "t4", tid(maxTenants), tid(maxTenants + 1)} {
		if has(id) {
			t.Fatalf("idle state %s survived the sweep", id)
		}
	}
	if n := size(); n != 3 { // t1, pinned and the tenant just seen
		t.Fatalf("%d states survived the sweep, want 3", n)
	}
	// The evicted tenant is still enforced on its next sighting.
	if d := a.Admit("t3", 1); !d.Allowed() {
		t.Fatalf("recreated tenant refused: %+v", d)
	}
}
