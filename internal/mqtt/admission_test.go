package mqtt

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/tenant"
)

type pubOutcome int

const (
	pubAcked    pubOutcome = iota // PUBACK, then PINGRESP
	pubWithheld                   // PINGRESP with no PUBACK before it
	pubClosed                     // the broker ended the session
)

// publish sends one QoS 1 PUBLISH followed by a PINGREQ and reports what
// the broker did with it. The session's control queue is FIFO, so a
// PUBACK, if any, precedes the PINGRESP; and the PINGRESP is queued only
// after the publish has been routed.
func (p *rawPeer) publish(topic string, id uint16) pubOutcome {
	p.t.Helper()
	var raw []byte
	for _, pkt := range []*Packet{
		{Type: PUBLISH, Topic: topic, Payload: []byte("0.42"), QoS: 1, PacketID: id},
		{Type: PINGREQ},
	} {
		var err error
		if raw, err = pkt.appendEncode(raw); err != nil {
			p.t.Fatal(err)
		}
	}
	// Write and SetReadDeadline fail only once the broker has hung up.
	_, _ = p.conn.Write(raw)
	if err := p.conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return pubClosed
	}
	first, err := ReadPacket(p.r)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			p.t.Fatalf("publish %d: broker went silent", id)
		}
		return pubClosed
	}
	switch {
	case first.Type == PINGRESP:
		return pubWithheld
	case first.Type == PUBACK && first.PacketID == id:
		if next := p.read(); next.Type != PINGRESP {
			p.t.Fatalf("publish %d: after PUBACK got %+v", id, next)
		}
		return pubAcked
	}
	p.t.Fatalf("publish %d: unexpected %+v", id, first)
	return 0
}

// admissionBroker is a broker on a simulated clock whose tenant is the
// CONNECT's "tenant:<id>" username, every tenant under quota q with a
// one-second burst.
type admissionBroker struct {
	*Broker
	t   *testing.T
	adm *tenant.Admission
	sim *clock.Sim
}

func newAdmissionBroker(t *testing.T, q tenant.Quota) *admissionBroker {
	sim := clock.NewSim(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	adm := tenant.NewAdmission(tenant.Config{
		Enabled: true,
		Limits:  tenant.Limits{Default: q},
		Burst:   time.Second,
		Clock:   sim,
	})
	b := NewBroker(BrokerConfig{
		Admission: adm,
		Clock:     sim,
		TenantFunc: func(_, username string) tenant.ID {
			if rest, ok := strings.CutPrefix(username, "tenant:"); ok {
				return tenant.ID(rest)
			}
			return tenant.None
		},
	})
	t.Cleanup(b.Close)
	return &admissionBroker{Broker: b, t: t, adm: adm, sim: sim}
}

// dial connects client id for tenantID, failing the test unless accepted.
func (ab *admissionBroker) dial(id, tenantID string) *rawPeer {
	ab.t.Helper()
	p, code := ab.dialCode(id, tenantID)
	if code != ConnAccepted {
		ab.t.Fatalf("%s CONNECT refused: 0x%02x", id, code)
	}
	return p
}

func (ab *admissionBroker) dialCode(id, tenantID string) (*rawPeer, byte) {
	return dialRaw(ab.t, ab.Broker, &Packet{Type: CONNECT, ClientID: id, Username: "tenant:" + tenantID})
}

// debt is the tenant's current overdraft in seconds of quota.
func (ab *admissionBroker) debt(id tenant.ID) float64 {
	for _, st := range ab.adm.Tenants() {
		if st.ID == id {
			return st.DebtSec
		}
	}
	return 0
}

// collector attaches an internal (tenant-less) subscriber to t/# and
// returns a count of what was routed to it, per topic.
func (ab *admissionBroker) collector() func(topic string) int {
	sub := attachScripted(ab.t, ab.Broker, "collector", "t/#", 0)
	return func(topic string) int {
		n := 0
		for _, p := range sub.publishes() {
			if p.Topic == topic {
				n++
			}
		}
		return n
	}
}

// publishQoS1 writes one QoS 1 PUBLISH and returns without waiting.
func (p *rawPeer) publishQoS1(topic string, id uint16, payload string) error {
	raw, err := (&Packet{Type: PUBLISH, Topic: topic, Payload: []byte(payload), QoS: 1, PacketID: id}).appendEncode(nil)
	if err == nil {
		_, err = p.conn.Write(raw)
	}
	return err
}

// TestAdmissionLadderEnforcedByBroker walks one abusive tenant down the
// whole ladder on a simulated clock, next to a polite tenant on the same
// broker: its burst is acked at once; past it each publish holds its
// session's reader — charged, neither acked nor routed — until the clock
// has refilled the bucket; past one second of debt every publish is
// refused without PUBACK and uncharged, however long the abuser keeps
// on, and a reconnect while still in debt is refused with CONNACK 0x97.
// Once the clock moves, every paused publish is acked and routed. The
// polite tenant's every publish is acked and delivered throughout. A
// tenant suspended by a reload loses its session at its first publish.
func TestAdmissionLadderEnforcedByBroker(t *testing.T) {
	ab := newAdmissionBroker(t, tenant.Quota{MsgsPerSec: 10})
	routed := ab.collector()
	polite := ab.dial("polite-1", "polite")
	abuser := ab.dial("abuser-1", "abuser")
	politeAcked := 0
	politePublish := func() {
		t.Helper()
		politeAcked++
		if polite.publish("t/polite", uint16(politeAcked)) != pubAcked {
			t.Fatalf("polite publish %d not acked next to the abuser", politeAcked)
		}
	}

	// Allow: the 10-message burst is acked at once.
	for id := uint16(1); id <= 10; id++ {
		if got := abuser.publish("t/abuser", id); got != pubAcked {
			t.Fatalf("burst publish %d: outcome %d, want acked", id, got)
		}
	}
	// Pace: the clock stands still, so each further publish is charged
	// and holds its session's reader. Eleven paused sessions take the
	// debt past one second.
	paced := make([]*rawPeer, 11)
	for i := range paced {
		paced[i] = ab.dial(fmt.Sprintf("abuser-p%d", i), "abuser")
		if err := paced[i].publishQoS1("t/abuser", 1, "0.42"); err != nil {
			t.Fatal(err)
		}
		want := float64(i+1) / 10
		waitFor(t, 2*time.Second, func() bool { return ab.debt("abuser") >= want-1e-9 })
		if i%2 == 0 { // the polite tenant stays inside its own burst
			politePublish()
		}
	}

	// Reject: every further publish is refused without a PUBACK and
	// leaves the debt where it was; the session stays up.
	debt := ab.debt("abuser")
	const refused = 40 // the polite tenant stays inside its burst meanwhile
	for id := uint16(11); id < 11+refused; id++ {
		if got := abuser.publish("t/abuser", id); got != pubWithheld {
			t.Fatalf("publish %d past one second of debt: outcome %d, want withheld", id, got)
		}
		if id%16 == 0 {
			politePublish()
		}
	}
	if got := ab.debt("abuser"); got != debt {
		t.Fatalf("refused publishes were charged: debt %v → %v", debt, got)
	}
	if got := counter(ab.Broker, "mqtt.publish.throttled"); got != refused {
		t.Fatalf("mqtt.publish.throttled = %d, want %d", got, refused)
	}
	if got := counter(ab.Broker, "mqtt.quota.disconnects"); got != 0 {
		t.Fatalf("mqtt.quota.disconnects = %d, want 0", got)
	}
	// Reconnecting while still in debt is refused at the door.
	if _, code := ab.dialCode("abuser-2", "abuser"); code != ConnRefusedQuota {
		t.Fatalf("reconnect in debt answered 0x%02x, want 0x%02x", code, ConnRefusedQuota)
	}
	if got := counter(ab.Broker, "mqtt.connect.quota_refused"); got != 1 {
		t.Fatalf("mqtt.connect.quota_refused = %d, want 1", got)
	}
	if got := routed("t/abuser"); got != 10 {
		t.Fatalf("routed %d abusive publishes before the clock moved, want the 10 acked", got)
	}

	// Once the clock has refilled the bucket, every paused publish is
	// acked and routed, and the tenant is admitted again.
	ab.sim.Advance(2 * time.Second)
	for i, p := range paced {
		if pkt := p.read(); pkt.Type != PUBACK || pkt.PacketID != 1 {
			t.Fatalf("paced session %d answered %+v, want its PUBACK", i, pkt)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		return routed("t/abuser") == 10+len(paced) && routed("t/polite") == politeAcked
	})
	if got := counter(ab.Broker, "mqtt.publish.in"); got != int64(10+len(paced)+politeAcked) {
		t.Fatalf("mqtt.publish.in = %d, want %d routed", got, 10+len(paced)+politeAcked)
	}
	ab.dial("abuser-3", "abuser")

	// The polite tenant was never touched by the abuser's ladder.
	politePublish()
	for _, st := range ab.adm.Tenants() {
		if st.ID == "polite" && (st.DebtSec != 0 || st.Throttled != 0 || st.Disconnects != 0) {
			t.Fatalf("polite tenant degraded: %+v", st)
		}
	}

	// Suspending the abuser (msgs_per_sec = 0) drops its session at its
	// first publish, and refuses its CONNECT.
	ab.adm.SetLimits(tenant.Limits{
		Default:   tenant.Quota{MsgsPerSec: 10},
		Overrides: map[tenant.ID]tenant.Quota{"abuser": {MsgsPerSec: 0}},
	})
	if got := abuser.publish("t/abuser", 1000); got != pubClosed {
		t.Fatalf("suspended tenant's publish: outcome %d, want the session closed", got)
	}
	if got := counter(ab.Broker, "mqtt.quota.disconnects"); got != 1 {
		t.Fatalf("mqtt.quota.disconnects = %d, want 1", got)
	}
	if _, code := ab.dialCode("abuser-4", "abuser"); code != ConnRefusedQuota {
		t.Fatalf("suspended tenant's CONNECT answered 0x%02x, want 0x%02x", code, ConnRefusedQuota)
	}
	politePublish()
}

// TestAdmissionNoAckThenShed: an abuser offering QoS 1 at ten times its
// quota, pipelined over twenty sessions, is paced and refused — and
// every packet id the broker PUBACKs reaches the subscriber. Nothing is
// acknowledged and then dropped.
func TestAdmissionNoAckThenShed(t *testing.T) {
	const (
		sessions = 20
		offered  = 300                   // 3 s of simulated time at 10× the quota
		step     = 10 * time.Millisecond // one offered publish per step: 100/s
	)
	ab := newAdmissionBroker(t, tenant.Quota{MsgsPerSec: 10})
	sub := attachScripted(t, ab.Broker, "collector", "t/#", 0)

	var mu sync.Mutex
	acked := make(map[string]bool)
	var wg sync.WaitGroup
	feeds := make([]chan uint16, sessions)
	peers := make([]*rawPeer, sessions)
	for i := range peers {
		p := ab.dial(fmt.Sprintf("abuser-%d", i), "abuser")
		// A slot per publish the session is fed, so feeding never blocks.
		peers[i], feeds[i] = p, make(chan uint16, offered/sessions)
		wg.Add(2)
		go func() { // the device's ack reader, until the broker hangs up
			defer wg.Done()
			for {
				pkt, err := ReadPacket(p.r)
				if err != nil {
					return
				}
				if pkt.Type == PUBACK {
					mu.Lock()
					acked[fmt.Sprintf("%d-%d", i, pkt.PacketID)] = true
					mu.Unlock()
				}
			}
		}()
		go func() { // the device's sender: pipelines, never waits for acks
			defer wg.Done()
			for id := range feeds[i] {
				if p.publishQoS1("t/abuser", id, fmt.Sprintf("%d-%d", i, id)) != nil {
					return
				}
			}
		}()
	}
	for n := 0; n < offered; n++ {
		feeds[n%sessions] <- uint16(n/sessions + 1)
		ab.sim.Advance(step)
		time.Sleep(100 * time.Microsecond)
	}
	for _, f := range feeds {
		close(f)
	}
	// Let the paced sessions drain what they hold at the quota's rate.
	for n := 0; n < 400; n++ {
		ab.sim.Advance(100 * time.Millisecond)
		time.Sleep(100 * time.Microsecond)
	}

	routed := func() map[string]bool {
		out := make(map[string]bool)
		for _, p := range sub.publishes() {
			out[string(p.Payload)] = true
		}
		return out
	}
	unrouted := func() (lost []string, n int) {
		got := routed()
		mu.Lock()
		defer mu.Unlock()
		for id := range acked {
			if !got[id] {
				lost = append(lost, id)
			}
		}
		return lost, len(acked)
	}
	lost, n := unrouted()
	for deadline := time.Now().Add(2 * time.Second); len(lost) > 0 && time.Now().Before(deadline); lost, n = unrouted() {
		time.Sleep(5 * time.Millisecond)
	}
	if len(lost) > 0 {
		t.Fatalf("%d of %d acked publishes never routed, e.g. %v", len(lost), n, lost[:min(len(lost), 5)])
	}
	if n == 0 {
		t.Fatal("no publish was acked")
	}
	if counter(ab.Broker, "mqtt.publish.throttled") == 0 {
		t.Fatal("an abuser at 10× its quota was never refused")
	}
	if got := counter(ab.Broker, "mqtt.quota.disconnects"); got != 0 {
		t.Fatalf("mqtt.quota.disconnects = %d, want 0: a tenant in debt is refused, never dropped", got)
	}
	for _, p := range peers {
		p.conn.Close()
	}
	wg.Wait()
}

// TestAdmissionPacingIsolation: while an abuser's reader is paused, a
// polite tenant's publishes are acked and routed without the simulated
// clock moving; the abuser's paused publish is acked once it does.
func TestAdmissionPacingIsolation(t *testing.T) {
	ab := newAdmissionBroker(t, tenant.Quota{MsgsPerSec: 10})
	routed := ab.collector()
	abuser := ab.dial("abuser-1", "abuser")
	polite := ab.dial("polite-1", "polite")
	for id := uint16(1); id <= 10; id++ {
		if abuser.publish("t/abuser", id) != pubAcked {
			t.Fatalf("burst publish %d not acked", id)
		}
	}
	if err := abuser.publishQoS1("t/abuser", 11, "0.42"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return ab.debt("abuser") > 0 })

	start := ab.sim.Now()
	for id := uint16(1); id <= 5; id++ {
		if polite.publish("t/polite", id) != pubAcked {
			t.Fatalf("polite publish %d not acked while the abuser is paced", id)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return routed("t/polite") == 5 })
	if !ab.sim.Now().Equal(start) {
		t.Fatal("the simulated clock moved")
	}
	if got := routed("t/abuser"); got != 10 {
		t.Fatalf("the paced publish was routed before its wait: %d routed", got)
	}
	ab.sim.Advance(100 * time.Millisecond)
	if pkt := abuser.read(); pkt.Type != PUBACK || pkt.PacketID != 11 {
		t.Fatalf("paced publish answered %+v, want PUBACK 11", pkt)
	}
	waitFor(t, 2*time.Second, func() bool { return routed("t/abuser") == 11 })
}

// TestAdmissionPaceBoundsTheWait: a publish costing a full second of
// quota waits exactly one second — below the client's 2 s AckTimeout —
// and a session paced like that with a 1 s keepalive is not dropped by
// the watchdog. Broker.Close cuts a pause short.
func TestAdmissionPaceBoundsTheWait(t *testing.T) {
	// Ten bytes a second, ten-byte payloads: every publish after the
	// first is charged one second of debt.
	ab := newAdmissionBroker(t, tenant.Quota{MsgsPerSec: 100, BytesPerSec: 10})
	p, code := dialRaw(t, ab.Broker, &Packet{Type: CONNECT, ClientID: "dev-1", Username: "tenant:farm", KeepAliveSec: 1})
	if code != ConnAccepted {
		t.Fatalf("CONNECT refused: 0x%02x", code)
	}
	acks := make(chan uint16, 7) // one per publish below
	go func() {
		for {
			pkt, err := ReadPacket(p.r)
			if err != nil {
				close(acks)
				return
			}
			if pkt.Type == PUBACK {
				acks <- pkt.PacketID
			}
		}
	}()
	const tick = 100 * time.Millisecond
	for id := uint16(1); id <= 6; id++ {
		if err := p.publishQoS1("t/x", id, "0123456789"); err != nil {
			t.Fatal(err)
		}
		waited := time.Duration(0)
		for acked := false; !acked; {
			select {
			case got, ok := <-acks:
				if !ok {
					t.Fatalf("session dropped while paced, after %d publishes", id-1)
				}
				if got != id {
					t.Fatalf("PUBACK %d, want %d", got, id)
				}
				acked = true
			case <-time.After(5 * time.Millisecond):
				if waited > 2*time.Second {
					t.Fatalf("publish %d unacked after %v of simulated time", id, waited)
				}
				ab.sim.Advance(tick)
				waited += tick
			}
		}
		if id > 1 && (waited < time.Second || waited > time.Second+2*tick) {
			t.Fatalf("publish %d acked after %v of simulated time, want one second", id, waited)
		}
	}
	if n := ab.SessionCount(); n != 1 {
		t.Fatalf("%d sessions after the paced run, want 1", n)
	}

	// One more paced publish, then Close: it must not wait for the clock.
	if err := p.publishQoS1("t/x", 7, "0123456789"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return ab.debt("farm") > 0 })
	closed := make(chan struct{})
	go func() {
		ab.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Broker.Close waited out a paused reader")
	}
}
