package attack

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/agent"
	"github.com/swamp-project/swamp/internal/anomaly"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/security/secchan"
)

func TestDoSFlooderRateAndStats(t *testing.T) {
	var mu sync.Mutex
	n := 0
	pub := func(topic string, payload []byte) error {
		mu.Lock()
		n++
		mu.Unlock()
		return nil
	}
	f := &DoSFlooder{Publish: pub, Topic: "x", RatePerSec: 1000}
	stats, err := f.Run(nil, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent < 30 || stats.Errors != 0 {
		t.Errorf("stats = %+v", stats)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(n) != stats.Sent {
		t.Errorf("published %d, stats %d", n, stats.Sent)
	}
}

func TestDoSFlooderStopsOnSignal(t *testing.T) {
	stop := make(chan struct{})
	f := &DoSFlooder{Publish: func(string, []byte) error { return nil }, Topic: "x", RatePerSec: 100}
	done := make(chan FloodStats, 1)
	go func() {
		st, _ := f.Run(stop, 0)
		done <- st
	}()
	time.Sleep(30 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("flooder did not stop")
	}
}

func TestDoSFlooderValidation(t *testing.T) {
	f := &DoSFlooder{}
	if _, err := f.Run(nil, time.Millisecond); err == nil {
		t.Error("empty flooder accepted")
	}
}

func TestDoSFlooderTriggersRateDetector(t *testing.T) {
	var alert *anomaly.Alert
	var mu sync.Mutex
	eng := anomaly.NewEngine(anomaly.EngineConfig{
		Rate: anomaly.RateConfig{Window: time.Second, LimitPerSec: 20},
		Sink: func(a anomaly.Alert) {
			mu.Lock()
			defer mu.Unlock()
			if a.Kind == "dos" && alert == nil {
				alert = &a
			}
		},
	})
	pub := func(topic string, payload []byte) error {
		eng.OnMessage("flooder", topic, payload, time.Now())
		return nil
	}
	f := &DoSFlooder{Publish: pub, Topic: "t", RatePerSec: 2000}
	f.Run(nil, 200*time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if alert == nil {
		t.Fatal("flood not detected by rate detector")
	}
}

func collect(dst *[]model.Reading, mu *sync.Mutex) func([]model.Reading) error {
	return func(rs []model.Reading) error {
		mu.Lock()
		*dst = append(*dst, rs...)
		mu.Unlock()
		return nil
	}
}

func TestTamperBiasAndScale(t *testing.T) {
	var got []model.Reading
	var mu sync.Mutex
	in := []model.Reading{{Device: "d", Quantity: model.QSoilMoisture, Value: 0.20, At: time.Now()}}

	bias, err := TamperSender(collect(&got, &mu), TamperBias, 0.1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bias(in)
	scale, _ := TamperSender(collect(&got, &mu), TamperScale, 0.5, 0, 1)
	scale(in)
	mu.Lock()
	defer mu.Unlock()
	if got[0].Value != 0.30000000000000004 && got[0].Value != 0.3 {
		t.Errorf("bias: %g", got[0].Value)
	}
	if got[1].Value != 0.10 {
		t.Errorf("scale: %g", got[1].Value)
	}
	// Originals untouched.
	if in[0].Value != 0.20 {
		t.Error("tamper mutated caller's slice")
	}
}

func TestTamperStuckFreezes(t *testing.T) {
	var got []model.Reading
	var mu sync.Mutex
	stuck, err := TamperSender(collect(&got, &mu), TamperStuck, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		stuck([]model.Reading{{Device: "d", Quantity: model.QSoilMoisture, Value: 0.2 + float64(i)*0.01, At: time.Now()}})
	}
	mu.Lock()
	defer mu.Unlock()
	for i, r := range got {
		if r.Value != 0.2 {
			t.Errorf("reading %d = %g, want frozen 0.2", i, r.Value)
		}
	}
}

func TestTamperSpike(t *testing.T) {
	var got []model.Reading
	var mu sync.Mutex
	spike, err := TamperSender(collect(&got, &mu), TamperSpike, 10, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		spike([]model.Reading{{Device: "d", Quantity: model.QSoilMoisture, Value: 1, At: time.Now()}})
	}
	mu.Lock()
	defer mu.Unlock()
	spiked := 0
	for _, r := range got {
		if r.Value == 10 {
			spiked++
		}
	}
	if spiked < 25 || spiked > 75 {
		t.Errorf("spiked %d/100 at p=0.5", spiked)
	}
}

func TestTamperValidation(t *testing.T) {
	if _, err := TamperSender(func([]model.Reading) error { return nil }, TamperMode(99), 0, 0, 1); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := TamperSender(func([]model.Reading) error { return nil }, TamperSpike, 2, 0, 1); err == nil {
		t.Error("spike without probability accepted")
	}
}

func TestTamperDetectedByEWMA(t *testing.T) {
	var alerts []anomaly.Alert
	var mu sync.Mutex
	eng := anomaly.NewEngine(anomaly.EngineConfig{Sink: func(a anomaly.Alert) {
		mu.Lock()
		defer mu.Unlock()
		if a.Kind == "deviation" {
			alerts = append(alerts, a)
		}
	}})
	honest := func(rs []model.Reading) error {
		for _, r := range rs {
			eng.OnReading(r)
		}
		return nil
	}
	// Baseline period: honest traffic.
	for i := 0; i < 100; i++ {
		honest([]model.Reading{{Device: "p", Quantity: model.QSoilMoisture, Value: 0.25 + 0.001*float64(i%5), At: time.Now()}})
	}
	// Then the MITM injects a large spike.
	spike, _ := TamperSender(honest, TamperBias, 0.3, 0, 1)
	spike([]model.Reading{{Device: "p", Quantity: model.QSoilMoisture, Value: 0.25, At: time.Now()}})
	mu.Lock()
	defer mu.Unlock()
	if len(alerts) == 0 {
		t.Fatal("biased reading not detected")
	}
}

func TestSybilSwarmRound(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string][]float64)
	pub := func(dev string, rs []model.Reading) error {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range rs {
			seen[dev] = append(seen[dev], r.Value)
		}
		return nil
	}
	s := &SybilSwarm{IDPrefix: "fake", N: 5, Publish: pub, Value: 0.8, Quantity: model.QNDVI}
	for k := 0; k < 3; k++ {
		if err := s.Round(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 5 {
		t.Fatalf("identities = %d", len(seen))
	}
	for dev, vs := range seen {
		if len(vs) != 3 {
			t.Errorf("%s published %d rounds", dev, len(vs))
		}
		for _, v := range vs {
			if v != 0.8 {
				t.Errorf("%s value %g", dev, v)
			}
		}
	}
	bad := &SybilSwarm{}
	if err := bad.Round(time.Now()); err == nil {
		t.Error("empty swarm accepted")
	}
}

func TestSybilSwarmCaughtByDetector(t *testing.T) {
	var alerts []anomaly.Alert
	eng := anomaly.NewEngine(anomaly.EngineConfig{
		Sybil: anomaly.SybilConfig{MinSamples: 4},
		Sink: func(a anomaly.Alert) {
			if a.Kind == "sybil" {
				alerts = append(alerts, a)
			}
		},
	})
	pub := func(dev string, rs []model.Reading) error {
		for _, r := range rs {
			eng.OnReading(r)
		}
		return nil
	}
	s := &SybilSwarm{IDPrefix: "sy", N: 6, Publish: pub, Value: 0.8, Quantity: model.QNDVI}
	for k := 0; k < 6; k++ {
		s.Round(time.Now())
	}
	eng.ScanSybil(time.Now())
	if len(alerts) != 6 {
		t.Fatalf("detected %d of 6 sybil identities", len(alerts))
	}
}

func TestEavesdropperExposure(t *testing.T) {
	var e Eavesdropper
	// Plaintext UL traffic: fully intelligible.
	for i := 0; i < 10; i++ {
		e.Observe("t", []byte(agent.EncodeUL(map[string]float64{"m": 0.2 + float64(i)*0.01})))
	}
	// Sealed traffic: opaque.
	ring := secchan.NewKeyRing()
	ring.Generate("dev")
	for i := 0; i < 15; i++ {
		env, err := ring.Seal("dev", []byte("m|0.25"), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Observe("t", env)
	}
	exp := e.Analyze()
	if exp.Total != 25 || exp.Intelligible != 10 || exp.Opaque != 15 {
		t.Errorf("exposure = %+v", exp)
	}
	if e.Captured() != 25 {
		t.Errorf("captured = %d", e.Captured())
	}
}

func TestReplayerBlockedBySecchan(t *testing.T) {
	ring := secchan.NewKeyRing()
	ring.Generate("dev")
	guard := secchan.NewReplayGuard()

	var r Replayer
	accepted, rejected := 0, 0
	receive := func(topic string, payload []byte) error {
		sender, seq, _, err := ring.Open(payload, nil)
		if err != nil {
			rejected++
			return nil
		}
		if err := guard.Check(sender, seq); err != nil {
			rejected++
			return nil
		}
		accepted++
		return nil
	}

	// Legitimate transmission, captured on the wire.
	for i := 0; i < 8; i++ {
		env, _ := ring.Seal("dev", []byte(fmt.Sprintf("m|0.%d", i)), nil)
		r.Capture("t", env)
		receive("t", env)
	}
	if accepted != 8 {
		t.Fatalf("legitimate traffic: %d accepted", accepted)
	}
	// Replay the whole capture: everything must bounce off the guard.
	sent, err := r.ReplayAll(receive)
	if err != nil || sent != 8 {
		t.Fatalf("replay sent %d, err %v", sent, err)
	}
	if accepted != 8 || rejected != 8 {
		t.Errorf("after replay: accepted %d rejected %d", accepted, rejected)
	}
	if _, err := r.ReplayAll(nil); err == nil {
		t.Error("nil publish accepted")
	}
}

func TestRogueCommander(t *testing.T) {
	var issued []model.Command
	unprotected := func(c model.Command) error {
		issued = append(issued, c)
		return nil
	}
	rc := &RogueCommander{Send: unprotected, Issuer: "stolen-token"}
	res := rc.OpenEverything([]model.DeviceID{"valve-1", "pump-1"}, time.Now())
	if len(res) != 2 || res["valve-1"] != nil {
		t.Errorf("unprotected attack blocked unexpectedly: %v", res)
	}
	if len(issued) != 2 || issued[0].Value != 1.0 {
		t.Errorf("issued = %+v", issued)
	}

	// With an authorizing wrapper, the same attack dies at the PEP.
	guarded := func(c model.Command) error {
		if c.Issuer != "authorized-operator" {
			return errors.New("pep: denied")
		}
		return nil
	}
	rc2 := &RogueCommander{Send: guarded, Issuer: "stolen-token"}
	res2 := rc2.OpenEverything([]model.DeviceID{"valve-1"}, time.Now())
	if res2["valve-1"] == nil {
		t.Error("guarded command channel let the rogue through")
	}
}
