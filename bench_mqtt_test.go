// Benchmarks for the MQTT transport-plane fan-out path: publish→deliver
// latency with and without a stalled subscriber attached.
//
// The headline comparison is queued-stalled vs queued-baseline: with
// bounded per-session outbound queues, a subscriber wedged mid-write
// overflows only its own queue, so healthy subscribers' p50 latency stays
// within 2× of the no-stall baseline.
package swamp_test

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/simnet"
)

// benchMQTTFanout measures per-message publish→deliver latency to a healthy
// subscriber while three more healthy subscribers (and optionally one
// stalled session) share the fan-out.
func benchMQTTFanout(b *testing.B, stalled bool) {
	const stallDelay = 2 * time.Millisecond
	reg := metrics.NewRegistry()
	broker := mqtt.NewBroker(mqtt.BrokerConfig{
		Metrics:         reg,
		SessionQueueLen: 64,
	})
	defer broker.Close()

	if stalled {
		st := mqtt.NewSlowTransport(stallDelay)
		defer st.Close()
		broker.AttachTransport(st)
		st.Inject(&mqtt.Packet{Type: mqtt.CONNECT, ClientID: "stalled"})
		st.Inject(&mqtt.Packet{Type: mqtt.SUBSCRIBE, PacketID: 1,
			Filters: []mqtt.Subscription{{Filter: "fan/#"}}})
		deadline := time.Now().Add(2 * time.Second)
		for reg.Counter("mqtt.subscribe.ok").Value() == 0 {
			if time.Now().After(deadline) {
				b.Fatal("stalled session never subscribed")
			}
			time.Sleep(time.Millisecond)
		}
	}

	dial := func(id string) *mqtt.Client {
		ct, st, cleanup, err := mqtt.NewSimPair(simnet.Config{}, id)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(cleanup)
		broker.AttachTransport(st)
		c, err := mqtt.Connect(ct, mqtt.ClientConfig{ClientID: id})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}

	// One probe subscriber reports latency; three more add fan-out weight.
	probe := dial("probe-sub")
	lat := make(chan time.Duration, 1)
	if _, err := probe.Subscribe("fan/#", 0, func(m mqtt.Message) {
		at := time.Unix(0, int64(binary.BigEndian.Uint64(m.Payload)))
		lat <- time.Since(at)
	}); err != nil {
		b.Fatal(err)
	}
	var sink atomic.Uint64
	for i := 0; i < 3; i++ {
		sub := dial(fmt.Sprintf("bulk-sub-%d", i))
		if _, err := sub.Subscribe("fan/#", 0, func(mqtt.Message) { sink.Add(1) }); err != nil {
			b.Fatal(err)
		}
	}
	pub := dial("pub")

	hist := metrics.NewHistogram()
	payload := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
		if err := pub.Publish("fan/x", payload, 0, false); err != nil {
			b.Fatal(err)
		}
		select {
		case d := <-lat:
			hist.Observe(d)
		case <-time.After(5 * time.Second):
			b.Fatal("probe subscriber starved")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(hist.Quantile(0.5))/1e3, "p50-µs")
	b.ReportMetric(float64(hist.Quantile(0.99))/1e3, "p99-µs")
}

// BenchmarkMQTTFanOutStalledSubscriber is the transport-plane acceptance
// pair: compare p50-µs — queued-stalled stays within 2× of queued-baseline.
func BenchmarkMQTTFanOutStalledSubscriber(b *testing.B) {
	b.Run("queued-baseline", func(b *testing.B) { benchMQTTFanout(b, false) })
	b.Run("queued-stalled", func(b *testing.B) { benchMQTTFanout(b, true) })
}

// BenchmarkMQTTAggregateFanOut measures raw fan-out throughput (messages ×
// subscribers per second) with no stall.
func BenchmarkMQTTAggregateFanOut(b *testing.B) {
	b.Run("queued", func(b *testing.B) {
		broker := mqtt.NewBroker(mqtt.BrokerConfig{})
		defer broker.Close()
		const nSubs = 8
		var delivered atomic.Uint64
		for i := 0; i < nSubs; i++ {
			ct, st, cleanup, err := mqtt.NewSimPair(simnet.Config{QueueLen: 8192}, fmt.Sprintf("s%d", i))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(cleanup)
			broker.AttachTransport(st)
			c, err := mqtt.Connect(ct, mqtt.ClientConfig{ClientID: fmt.Sprintf("s%d", i)})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			if _, err := c.Subscribe("agg/#", 1, func(mqtt.Message) { delivered.Add(1) }); err != nil {
				b.Fatal(err)
			}
		}
		ct, st, cleanup, err := mqtt.NewSimPair(simnet.Config{QueueLen: 8192}, "pub")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(cleanup)
		broker.AttachTransport(st)
		pub, err := mqtt.Connect(ct, mqtt.ClientConfig{ClientID: "pub"})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { pub.Close() })

		b.ResetTimer()
		// QoS 1 publishes are broker-acked, so the producer cannot outrun
		// the broker and the measured rate is real routed fan-out.
		for i := 0; i < b.N; i++ {
			if err := pub.Publish("agg/x", []byte("m|0.21"), 1, false); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds(), "deliveries/s")
	})
}
