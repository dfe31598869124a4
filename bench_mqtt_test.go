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
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/mqtt"
)

// slowConn is the broker's end of a subscriber that drains slower than the
// farm publishes: every Write first sleeps for delay.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// dialPipe connects a client to broker over a net.Pipe.
func dialPipe(b *testing.B, broker *mqtt.Broker, id string) *mqtt.Client {
	b.Helper()
	client, server := net.Pipe()
	broker.AttachConn(server)
	c, err := mqtt.Connect(client, mqtt.ClientConfig{ClientID: id})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// benchMQTTFanout measures per-message publish→deliver latency to a healthy
// subscriber while three more healthy subscribers (and optionally one
// stalled session) share the fan-out.
func benchMQTTFanout(b *testing.B, stalled bool) {
	const stallDelay = 2 * time.Millisecond
	reg := metrics.NewRegistry()
	broker := mqtt.NewBroker(mqtt.BrokerConfig{Metrics: reg})
	defer broker.Close()

	if stalled {
		client, server := net.Pipe()
		defer client.Close()
		broker.AttachConn(slowConn{Conn: server, delay: stallDelay})
		go func() { _, _ = io.Copy(io.Discard, client) }()
		for _, p := range []*mqtt.Packet{
			{Type: mqtt.CONNECT, ClientID: "stalled"},
			{Type: mqtt.SUBSCRIBE, PacketID: 1, Filters: []mqtt.Subscription{{Filter: "fan/#"}}},
		} {
			raw, err := p.Encode()
			if err == nil {
				_, err = client.Write(raw)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for reg.Counter("mqtt.subscribe.ok").Value() == 0 {
			if time.Now().After(deadline) {
				b.Fatal("stalled session never subscribed")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One probe subscriber reports latency; three more add fan-out weight.
	probe := dialPipe(b, broker, "probe-sub")
	lat := make(chan time.Duration, 1)
	if _, err := probe.Subscribe("fan/#", 0, func(m mqtt.Message) {
		at := time.Unix(0, int64(binary.BigEndian.Uint64(m.Payload)))
		lat <- time.Since(at)
	}); err != nil {
		b.Fatal(err)
	}
	var sink atomic.Uint64
	for i := 0; i < 3; i++ {
		sub := dialPipe(b, broker, fmt.Sprintf("bulk-sub-%d", i))
		if _, err := sub.Subscribe("fan/#", 0, func(mqtt.Message) { sink.Add(1) }); err != nil {
			b.Fatal(err)
		}
	}
	pub := dialPipe(b, broker, "pub")

	lats := make([]time.Duration, 0, b.N)
	payload := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
		if err := pub.Publish("fan/x", payload, 0, false); err != nil {
			b.Fatal(err)
		}
		select {
		case d := <-lat:
			lats = append(lats, d)
		case <-time.After(5 * time.Second):
			b.Fatal("probe subscriber starved")
		}
	}
	b.StopTimer()
	slices.Sort(lats)
	quantile := func(q float64) float64 { return float64(lats[int(q*float64(len(lats)-1))]) / 1e3 }
	b.ReportMetric(quantile(0.5), "p50-µs")
	b.ReportMetric(quantile(0.99), "p99-µs")
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
			c := dialPipe(b, broker, fmt.Sprintf("s%d", i))
			if _, err := c.Subscribe("agg/#", 1, func(mqtt.Message) { delivered.Add(1) }); err != nil {
				b.Fatal(err)
			}
		}
		pub := dialPipe(b, broker, "pub")

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
