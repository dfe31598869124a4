package mqtt

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAttachLocalDelivers: a local attachment sees what clients and
// InjectPublish publish under its filter, nothing else, nothing retained
// from before it attached, and nothing after detach.
func TestAttachLocalDelivers(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	pub := newTestPair(t, b, "pub")
	if err := pub.Publish("ul/k/old/attrs", []byte("retained"), 1, true); err != nil {
		t.Fatal(err)
	}
	// A PUBACK precedes its publish's routing; the next one follows it.
	if err := pub.Publish("sync", nil, 1, false); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []string
	detach, err := b.AttachLocal("local", "ul/+/+/attrs", func(m Message) {
		mu.Lock()
		got = append(got, m.Topic+"="+string(m.Payload))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := func() string {
		mu.Lock()
		defer mu.Unlock()
		return strings.Join(got, " ")
	}

	// QoS 1 Publish returns on PUBACK, which is queued before the handler
	// runs: wait for the handler, not for Publish.
	if err := pub.Publish("ul/k/d1/attrs", []byte("a"), 1, false); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("ul/k/d1/cmd", []byte("not-mine"), 1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return seen() == "ul/k/d1/attrs=a" })
	// InjectPublish runs the handler on the caller's goroutine.
	if err := b.InjectPublish("fog", "ul/k/d2/attrs", []byte("b"), 0, false); err != nil {
		t.Fatal(err)
	}
	if want := "ul/k/d1/attrs=a ul/k/d2/attrs=b"; seen() != want {
		t.Fatalf("handler saw %q, want %q", seen(), want)
	}

	detach()
	detach() // idempotent
	if err := b.InjectPublish("fog", "ul/k/d3/attrs", []byte("c"), 0, false); err != nil {
		t.Fatal(err)
	}
	if want := "ul/k/d1/attrs=a ul/k/d2/attrs=b"; seen() != want {
		t.Fatalf("handler ran after detach: %q", seen())
	}
	// The id is free again.
	newTestPair(t, b, "local")
}

func TestAttachLocalValidates(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	h := func(Message) {}
	if _, err := b.AttachLocal("", "a/#", h); err == nil {
		t.Error("empty client id accepted")
	}
	if _, err := b.AttachLocal("x", "a/#", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := b.AttachLocal("x", "a/#/b", h); err == nil {
		t.Error("malformed filter accepted")
	}
	newTestPair(t, b, "taken")
	if _, err := b.AttachLocal("taken", "a/#", h); err == nil {
		t.Error("attached under a connected session's id")
	}
	detach, err := b.AttachLocal("x", "a/#", h)
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	if _, err := b.AttachLocal("x", "b/#", h); err == nil {
		t.Error("second attachment under the same id accepted")
	}
	b.Close()
	if _, err := b.AttachLocal("y", "a/#", h); err == nil {
		t.Error("closed broker accepted an attachment")
	}
}

// TestReservedIDRefusedAtConnect: a network client naming an attached id is
// refused with ConnRefusedIdentifier — over TCP, as a device would try — and
// the attachment keeps receiving.
func TestReservedIDRefusedAtConnect(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var n atomic.Int64
	detach, err := b.AttachLocal("iot-agent", "ul/+/+/attrs", func(Message) { n.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer detach()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = b.Serve(ln) }() // returns when ln closes

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(conn)
	defer st.close()
	if err := st.writePacket(&Packet{Type: CONNECT, ClientID: "iot-agent", CleanSession: true}); err != nil {
		t.Fatal(err)
	}
	ack, err := st.readPacket()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != CONNACK || ack.ReturnCode != ConnRefusedIdentifier {
		t.Fatalf("CONNECT as an attached id answered %v code %d, want CONNACK code %d", ack.Type, ack.ReturnCode, ConnRefusedIdentifier)
	}
	if _, err := st.readPacket(); err == nil {
		t.Error("refused connection left open")
	}
	if got := b.Metrics().Counter("mqtt.connect.refused").Value(); got != 1 {
		t.Errorf("mqtt.connect.refused = %d, want 1", got)
	}
	if b.SessionCount() != 0 {
		t.Errorf("%d sessions after a refused CONNECT", b.SessionCount())
	}
	if err := b.InjectPublish("dev", "ul/k/d/attrs", []byte("x"), 0, false); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 1 {
		t.Errorf("attachment saw %d publishes after the refused CONNECT, want 1", n.Load())
	}
}

// TestLocalHandlerBlocksOnlyItsPublisher: a blocked handler stalls the
// connection that published — after its PUBACK — and nobody else; when it
// resumes, everything that connection sent arrives, in order.
func TestLocalHandlerBlocksOnlyItsPublisher(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var mu sync.Mutex
	var got []string
	detach, err := b.AttachLocal("local", "in/#", func(m Message) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		mu.Lock()
		got = append(got, string(m.Payload))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()

	stalled := newTestPairCfg(t, b, ClientConfig{ClientID: "stalled", AckTimeout: 30 * time.Second})
	other := newTestPair(t, b, "other")
	sub := newTestPair(t, b, "sub")
	var routed atomic.Int64
	if _, err := sub.Subscribe("side/#", 1, func(Message) { routed.Add(1) }); err != nil {
		t.Fatal(err)
	}

	// The first publish is acknowledged although its handler never returns.
	if err := stalled.Publish("in/a", []byte("0"), 1, false); err != nil {
		t.Fatalf("publish whose handler blocks was not acknowledged: %v", err)
	}
	<-entered
	// Its connection's reader is inside the handler: what follows waits
	// unread (nothing is shed) …
	const more = 50
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= more; i++ {
			if err := stalled.Publish("in/a", []byte(strconv.Itoa(i)), 1, false); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// … while other connections publish and are routed as usual.
	for i := 0; i < 20; i++ {
		if err := other.Publish("side/x", []byte("s"), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return routed.Load() == 20 })
	if in := b.Metrics().Counter("mqtt.publish.in").Value(); in != 21 {
		t.Errorf("mqtt.publish.in = %d behind a blocked handler, want 21 (1 stalled + 20 side)", in)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == more+1
	})
	for i, v := range got {
		if v != strconv.Itoa(i) {
			t.Fatalf("delivery %d = %q: order broken: %v", i, v, got)
		}
	}
	if d := b.Metrics().Counter("mqtt.queue.dropped").Value(); d != 0 {
		t.Errorf("mqtt.queue.dropped = %d", d)
	}
}

// TestLocalAttachConcurrentPublishers: several connections publish through
// one attachment at once (-race covers the handler running on all their
// readers); every message arrives once, each connection's in its order.
func TestLocalAttachConcurrentPublishers(t *testing.T) {
	const conns, perConn = 6, 300
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	var mu sync.Mutex
	next := make(map[string]int, conns)
	var bad atomic.Int64
	detach, err := b.AttachLocal("local", "in/+", func(m Message) {
		seq, _ := strconv.Atoi(string(m.Payload))
		mu.Lock()
		if next[m.Topic] != seq {
			bad.Add(1)
		}
		next[m.Topic] = seq + 1
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cl := newTestPair(t, b, fmt.Sprintf("c%d", c))
		topic := fmt.Sprintf("in/c%d", c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				if err := cl.Publish(topic, []byte(strconv.Itoa(i)), 1, false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for c := 0; c < conns; c++ {
			if next[fmt.Sprintf("in/c%d", c)] != perConn {
				return false
			}
		}
		return true
	})
	if bad.Load() != 0 {
		t.Errorf("%d deliveries out of their connection's order", bad.Load())
	}
}

// TestDetachLocalWaitsForInflight: detach returns only once the call in
// flight has returned, and no call starts afterwards even from a publisher
// that resolved its route before the detach.
func TestDetachLocalWaitsForInflight(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	gate := make(chan struct{})
	entered := make(chan struct{})
	var calls, after atomic.Int64
	var detached atomic.Bool
	detach, err := b.AttachLocal("local", "in/#", func(Message) {
		if detached.Load() {
			after.Add(1)
		}
		if calls.Add(1) == 1 {
			close(entered)
			<-gate
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	go func() { _ = b.InjectPublish("p", "in/a", []byte("x"), 0, false) }()
	<-entered
	returned := make(chan struct{})
	go func() {
		detach()
		detached.Store(true)
		close(returned)
	}()
	// Publishers keep arriving while detach waits.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_ = b.InjectPublish("p", "in/a", []byte("y"), 0, false)
			}
		}()
	}
	select {
	case <-returned:
		t.Fatal("detach returned while a handler call was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("detach never returned")
	}
	wg.Wait()
	if after.Load() != 0 {
		t.Errorf("%d handler calls started after detach returned", after.Load())
	}
}
