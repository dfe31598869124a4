//go:build !race

// The race detector instruments allocations, so this guard runs in normal
// builds only; the race builds cover the same lane through the Lane and
// Pipeline tests.

package ngsi

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/tenant"
)

// serveFixed204 answers every complete request read from c with a fixed
// 204, all the answers to one read in one write, and allocates nothing per
// request — so an allocation count across all goroutines is the lane's.
func serveFixed204(c net.Conn) {
	defer c.Close()
	answer := []byte("HTTP/1.1 204 No Content\r\n\r\n")
	end, field := []byte("\r\n\r\n"), []byte("Content-Length: ")
	buf, out := make([]byte, 256<<10), make([]byte, 0, 64<<10)
	have := 0
	for {
		n, err := c.Read(buf[have:])
		if err != nil {
			return
		}
		have += n
		off := 0
		out = out[:0]
		for {
			head := bytes.Index(buf[off:have], end)
			if head < 0 {
				break
			}
			size := 0
			if at := bytes.Index(buf[off:off+head], field); at >= 0 {
				for i := off + at + len(field); buf[i] >= '0' && buf[i] <= '9'; i++ {
					size = 10*size + int(buf[i]-'0')
				}
			}
			if off+head+len(end)+size > have {
				break
			}
			off += head + len(end) + size
			out = append(out, answer...)
		}
		have = copy(buf, buf[off:have])
		if len(out) > 0 {
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}
}

// TestWebhookLaneAllocs bounds the allocations per delivered notification
// once a lane is warm: its connection open, its buffers grown. What is
// left is what http.ReadResponse allocates per answer. Measured: 4.00 on
// linux/amd64, Go 1.24. The same delivery through net/http's
// Client.Post, before the lanes owned their connections, cost 62.94.
func TestWebhookLaneAllocs(t *testing.T) {
	const bound = 4
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serveFixed204(c)
		}
	}()
	pool := NewWebhookPool(WebhookConfig{})
	t.Cleanup(pool.Close)
	hn, err := pool.notifier("sub-allocs", "http://"+ln.Addr().String()+"/notify", tenant.None)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 9, 28, 15, 4, 5, 0, time.UTC)
	notes := make([]Notification, 16)
	for i := range notes {
		notes[i] = Notification{Entity: &Entity{ID: fmt.Sprintf("urn:swamp:probe:%04d", i), Type: "SoilProbe", Attrs: map[string]Attribute{
			"soilMoisture_d20": {Type: "Number", Value: 0.2375, At: at},
			"soilMoisture_d50": {Type: "Number", Value: 0.3, At: at},
		}}}
	}
	deliver := func() {
		want := pool.cSent.Value() + uint64(len(notes))
		for _, note := range notes {
			hn.Notify(note)
		}
		for pool.cSent.Value() < want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 3; i++ {
		deliver()
	}
	perNote := testing.AllocsPerRun(50, deliver) / float64(len(notes))
	t.Logf("%.2f allocs per delivered notification (%d writes for %d sent)", perNote, pool.cWrites.Value(), pool.cSent.Value())
	if perNote > bound {
		t.Errorf("%.2f allocs per delivered notification, want ≤ %d", perNote, bound)
	}
}
