// Command swamp-attack exercises every §III threat against a freshly wired
// SWAMP platform and prints an attack-vs-defense report: what each injector
// achieved and which security layer (broker ACL, secchan, replay guard,
// PEP, anomaly engine) caught or blocked it.
//
// Usage:
//
//	swamp-attack                # plaintext deployment
//	swamp-attack -sealed        # with payload encryption
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/swamp-project/swamp/internal/attack"
	"github.com/swamp-project/swamp/internal/core"
	"github.com/swamp-project/swamp/internal/model"
)

func main() {
	sealed := flag.Bool("sealed", false, "enable secchan payload encryption")
	flag.Parse()
	if err := run(*sealed); err != nil {
		fmt.Fprintln(os.Stderr, "swamp-attack:", err)
		os.Exit(1)
	}
}

func run(sealed bool) error {
	p, err := core.New(core.Options{Pilot: core.PilotMATOPIBA, Mode: core.ModeFarmFog, Sealed: sealed, Seed: 5})
	if err != nil {
		return err
	}
	defer p.Close()
	at := time.Now()
	fmt.Printf("target: pilot=%s sealed=%v\n\n", p.Opts.Pilot.Name, sealed)

	// Some honest traffic to establish baselines.
	for i := 0; i < 5; i++ {
		if err := p.PumpOnce(at, 5*time.Second); err != nil {
			return err
		}
		at = at.Add(time.Minute)
	}

	// --- 1. DoS flood ---
	fmt.Println("[1] DoS flood (500 msg/s for 2s against the broker)")
	flooder, err := p.DialDevice("dos-bot")
	if err != nil {
		return err
	}
	f := &attack.DoSFlooder{
		Publish: func(topic string, payload []byte) error {
			// ACL confines the bot to its own topic; the flood is the point.
			return flooder.Publish("ul/swamp-matopiba/dos-bot/attrs", payload, 0, false)
		},
		Topic: "ul/swamp-matopiba/dos-bot/attrs", RatePerSec: 500,
	}
	stats, err := f.Run(nil, 2*time.Second)
	if err != nil {
		return err
	}
	time.Sleep(100 * time.Millisecond)
	dosAlerts := p.Anomaly.CountByKind()["dos"]
	fmt.Printf("    attacker sent %d frames; anomaly engine raised %d dos alert(s)\n\n", stats.Sent, dosAlerts)

	// --- 2. Unknown-device injection (unauthorized node) ---
	fmt.Println("[2] Unauthorized node injecting fake measurements")
	rogue, err := p.DialDevice("ghost-probe")
	if err != nil {
		return err
	}
	_ = rogue.Publish("ul/swamp-matopiba/ghost-probe/attrs", []byte("m1|0.01"), 1, false)
	time.Sleep(100 * time.Millisecond)
	fmt.Printf("    agent dropped %d unknown-device batch(es); broker denied %d publish(es)\n\n",
		p.Metrics().Counter("agent.north.unknown").Value(),
		p.Metrics().Counter("mqtt.publish.denied").Value())

	// --- 3. Eavesdropping ---
	fmt.Println("[3] Passive eavesdropper on the broker fabric")
	var eve attack.Eavesdropper
	prevTap := p.Broker.Tap
	p.Broker.Tap = func(clientID, topic string, payload []byte, t time.Time) {
		eve.Observe(topic, payload)
		if prevTap != nil {
			prevTap(clientID, topic, payload, t)
		}
	}
	if err := p.PumpOnce(at, 5*time.Second); err != nil {
		return err
	}
	exp := eve.Analyze()
	fmt.Printf("    captured %d frames: %d intelligible, %d opaque (sealed=%v)\n\n",
		exp.Total, exp.Intelligible, exp.Opaque, sealed)

	// --- 4. Replay ---
	if sealed {
		fmt.Println("[4] Replay of captured sealed envelopes")
		before := p.Metrics().Counter("agent.north.replay").Value()
		var rep attack.Replayer
		p.Broker.Tap = func(clientID, topic string, payload []byte, t time.Time) {
			rep.Capture(topic, payload)
			if prevTap != nil {
				prevTap(clientID, topic, payload, t)
			}
		}
		if err := p.PumpOnce(at.Add(time.Minute), 5*time.Second); err != nil {
			return err
		}
		replayClient, err := p.DialDevice("replay-bot")
		if err != nil {
			return err
		}
		// The bot republishes as the original devices would (topic reuse).
		sent, _ := rep.ReplayAll(func(topic string, payload []byte) error {
			return p.Broker.InjectPublish("iot-agent", topic, payload, 0, false)
		})
		_ = replayClient
		time.Sleep(200 * time.Millisecond)
		after := p.Metrics().Counter("agent.north.replay").Value()
		fmt.Printf("    replayed %d frames; replay guard rejected %d\n\n", sent, after-before)
	} else {
		fmt.Println("[4] Replay attack: skipped (only meaningful with -sealed)")
		fmt.Println()
	}

	// --- 5. Rogue actuator commands ---
	fmt.Println("[5] Rogue actuator takeover with a stolen identity")
	rc := &attack.RogueCommander{
		Issuer: "stolen-token",
		Send: func(c model.Command) error {
			// All command traffic crosses the PEP in a real deployment;
			// the stolen token fails introspection.
			if _, err := p.PEP.Authorize("bogus-token-value", "command", "actuator:matopiba:"+string(c.Target)); err != nil {
				return err
			}
			return p.Agent.SendCommand(c)
		},
	}
	res := rc.OpenEverything([]model.DeviceID{"matopiba-pivot-s00", "matopiba-valve"}, at)
	blocked := 0
	for _, err := range res {
		if err != nil {
			blocked++
		}
	}
	fmt.Printf("    %d/%d rogue commands blocked at the PEP\n\n", blocked, len(res))

	// --- 6. Sybil swarm ---
	fmt.Println("[6] Sybil swarm (6 fake identities reporting identical NDVI)")
	swarm := &attack.SybilSwarm{
		IDPrefix: "sybil", N: 6, Value: 0.82, Quantity: model.QNDVI,
		Publish: func(dev string, rs []model.Reading) error {
			for _, r := range rs {
				p.Anomaly.OnReading(r)
			}
			return nil
		},
	}
	for k := 0; k < 8; k++ {
		if err := swarm.Round(at.Add(time.Duration(k) * time.Minute)); err != nil {
			return err
		}
	}
	p.Anomaly.ScanSybil(at.Add(time.Hour))
	fmt.Printf("    anomaly engine flagged %d sybil identities\n\n", p.Anomaly.CountByKind()["sybil"])

	fmt.Println("alert summary:", p.Anomaly.CountByKind())
	fmt.Println("audit entries:", len(p.PEP.Audit()))
	return nil
}
