package mqtt

import (
	"net"
	"strings"
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

// TestAdmissionLadderEnforcedByBroker walks one abusive tenant down the
// whole shed ladder on a simulated clock, next to a polite tenant on the
// same broker: the sampled rung PUBACKs without routing, the reject rung
// withholds the PUBACK, the disconnect rung ends the session, and a
// reconnect while still in debt is refused with CONNACK 0x97. The polite
// tenant's every publish is acked and delivered throughout.
func TestAdmissionLadderEnforcedByBroker(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	adm := tenant.NewAdmission(tenant.Config{
		Enabled: true,
		Limits:  tenant.Limits{Default: tenant.Quota{MsgsPerSec: 10}},
		Burst:   time.Second,
		Clock:   sim,
	})
	b := NewBroker(BrokerConfig{
		Admission: adm,
		Clock:     sim,
		Logf:      t.Logf,
		TenantFunc: func(_, username string) tenant.ID {
			if rest, ok := strings.CutPrefix(username, "tenant:"); ok {
				return tenant.ID(rest)
			}
			return tenant.None
		},
	})
	defer b.Close()
	dialTenant := func(id, tenantID string) (*rawPeer, byte) {
		return dialRaw(t, b, &Packet{Type: CONNECT, ClientID: id, Username: "tenant:" + tenantID})
	}

	// An internal (tenant-less) collector counts what was routed, per topic.
	sub := attachScripted(t, b, "collector", "t/#", 0)
	routed := func(topic string) int {
		n := 0
		for _, p := range sub.publishes() {
			if p.Topic == topic {
				n++
			}
		}
		return n
	}

	polite, code := dialTenant("polite-1", "polite")
	if code != ConnAccepted {
		t.Fatalf("polite CONNECT refused: 0x%02x", code)
	}
	abuser, code := dialTenant("abuser-1", "abuser")
	if code != ConnAccepted {
		t.Fatalf("abuser CONNECT refused: 0x%02x", code)
	}

	// The clock stands still, so the abuser's 10-message burst drains and
	// every further publish deepens its debt: sample, then reject, then
	// disconnect. The polite tenant publishes once per eight abusive
	// messages, staying inside its own burst.
	var acked, withheld, politeAcked int
	closed := false
	for id := uint16(1); id < 200 && !closed; id++ {
		switch abuser.publish("t/abuser", id) {
		case pubAcked:
			acked++
		case pubWithheld:
			withheld++
		case pubClosed:
			closed = true
		}
		if id%8 == 0 {
			if polite.publish("t/polite", id) != pubAcked {
				t.Fatalf("polite publish %d not acked next to the abuser", id)
			}
			politeAcked++
		}
	}
	if !closed {
		t.Fatal("the abuser was never disconnected")
	}

	sampled := counter(b, "mqtt.publish.sampled")
	throttled := counter(b, "mqtt.publish.throttled")
	disconnects := counter(b, "mqtt.quota.disconnects")
	if sampled == 0 {
		t.Fatal("the sample rung never fired")
	}
	if disconnects != 1 {
		t.Fatalf("mqtt.quota.disconnects = %d, want 1", disconnects)
	}
	// The disconnecting publish counts as throttled too; every other
	// throttled publish went without its PUBACK.
	if withheld == 0 || int64(withheld) != throttled-disconnects {
		t.Fatalf("withheld PUBACKs = %d, throttled = %d, disconnects = %d", withheld, throttled, disconnects)
	}
	// Sampled publishes were acked but never routed.
	wantRouted := acked - int(sampled)
	waitFor(t, 2*time.Second, func() bool {
		return routed("t/abuser") == wantRouted && routed("t/polite") == politeAcked
	})
	if got := counter(b, "mqtt.publish.in"); got != int64(wantRouted+politeAcked) {
		t.Fatalf("mqtt.publish.in = %d, want %d routed", got, wantRouted+politeAcked)
	}

	// Reconnecting while still in debt is refused at the door.
	if _, code := dialTenant("abuser-2", "abuser"); code != ConnRefusedQuota {
		t.Fatalf("reconnect in debt answered 0x%02x, want 0x%02x", code, ConnRefusedQuota)
	}
	if got := counter(b, "mqtt.connect.quota_refused"); got != 1 {
		t.Fatalf("mqtt.connect.quota_refused = %d, want 1", got)
	}
	// Once the debt refills the tenant is admitted again.
	sim.Advance(2 * time.Second)
	if _, code := dialTenant("abuser-3", "abuser"); code != ConnAccepted {
		t.Fatalf("reconnect after refill answered 0x%02x", code)
	}

	// The polite tenant was never touched by the abuser's ladder.
	if polite.publish("t/polite", 1) != pubAcked {
		t.Fatal("polite publish after the abuse not acked")
	}
	for _, st := range adm.Tenants() {
		if st.ID == "polite" && (st.Sampled != 0 || st.Throttled != 0 || st.Disconnects != 0) {
			t.Fatalf("polite tenant degraded: %+v", st)
		}
	}
}
