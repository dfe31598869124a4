package ngsi

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestNotificationQueueOverflow: a slow subscriber cannot block updates;
// excess notifications are counted and dropped.
func TestNotificationQueueOverflow(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	defer b.Close()
	block := make(chan struct{})
	var delivered atomic.Int32
	if _, err := b.Subscribe(Subscription{
		EntityIDPattern: "*",
		Notifier: Callback(func(Notification) {
			<-block
			delivered.Add(1)
		}),
	}); err != nil {
		t.Fatal(err)
	}
	// Flood past the queue size while the handler is blocked.
	const writes = notifyQueueLen + 50
	for i := 0; i < writes; i++ {
		if err := b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Metrics().Counter("ngsi.notify.dropped").Value(); got == 0 {
		t.Error("overflow not counted")
	}
	close(block)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && delivered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() == 0 {
		t.Error("queued notifications never delivered after unblock")
	}
	// Updates themselves were never blocked.
	if e, err := b.GetEntity("e"); err != nil {
		t.Fatal(err)
	} else if v, _ := e.Attrs["a"].Float(); v != writes-1 {
		t.Errorf("last write lost: %v", v)
	}
}

// TestCloseDrainsQueuedNotifications: notifications already queued at Close
// are still delivered.
func TestCloseDrainsQueuedNotifications(t *testing.T) {
	b := NewBroker(BrokerConfig{})
	var delivered atomic.Int32
	if _, err := b.Subscribe(Subscription{
		EntityIDPattern: "*",
		Notifier:        Callback(func(Notification) { delivered.Add(1) }),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.UpdateAttrs("e", "T", map[string]Attribute{"a": num(float64(i))})
	}
	b.Close() // must drain before returning
	if delivered.Load() != 10 {
		t.Errorf("delivered %d/10 before close completed", delivered.Load())
	}
}
