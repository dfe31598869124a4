package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// The trace records spans from outside the program, around the points where
// a reading crosses a layer boundary the harness can observe:
//
//	gen         due → written to the MQTT connection       (harness)
//	mqtt        written → PUBACK                            (internal/mqtt)
//	agent_ngsi  PUBACK → the harness's own ngsi.Callback    (internal/agent + internal/ngsi:
//	            subscription fires                           decode, batch window, context apply,
//	                                                         shard dispatch incl. head-of-line wait)
//	webhook     callback → POST received by the sink        (internal/ngsi webhook pool)
//	cloud_store callback → point visible via Store.Latest   (internal/anomaly + fog + cloud +
//	            (1 reading in 100)                           timeseries + wal commit wait)
//
// All spans of one reading share its id "<probe>/<seq>" and hang off the
// reading's root span.

// span is one line of trace.jsonl.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the phase began
	End    int64  `json:"end_ns"`
	// SelfNS is the span's duration minus the part of it its children cover.
	SelfNS int64 `json:"self_ns"`
}

// selfTime returns the span's duration minus the part of that interval its
// child spans cover (children may overlap one another and stick out).
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.End - parent.Start - covered
}

// spansOf builds the span tree of one reading from its timestamps; spans
// whose ends were not both observed are left out.
func spansOf(traceID string, r *readingRec) []span {
	due, written, puback := r.due.Load(), r.written.Load(), r.puback.Load()
	callback, posted, stored := r.callback.Load(), r.posted.Load(), r.stored.Load()
	root := span{Trace: traceID, ID: 1, Name: "reading", Start: due, End: max(written, puback, callback, posted, stored)}
	var kids []span
	add := func(name string, a, b int64) {
		if a != 0 && b != 0 && b >= a {
			kids = append(kids, span{Trace: traceID, ID: len(kids) + 2, Parent: 1, Name: name, Start: a, End: b})
		}
	}
	add("gen", due, written)
	add("mqtt", written, puback)
	add("agent_ngsi", puback, callback)
	add("webhook", callback, posted)
	add("cloud_store", callback, stored)
	for i := range kids {
		kids[i].SelfNS = kids[i].End - kids[i].Start // leaves
	}
	root.SelfNS = selfTime(root, kids)
	return append([]span{root}, kids...)
}

// maxTraces caps trace.jsonl; a longer phase is written with an even stride.
const maxTraces = 20_000

// writeTrace writes the phase's spans, held in memory until now.
func (ph *phase) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := int(ph.published.Load())
	stride := n/maxTraces + 1
	for i := 0; i < n; i += stride {
		probe, seq := ph.fx.order.at(ph.kBase + i)
		for _, s := range spansOf(fmt.Sprintf("%04d/%d", probe, seq), &ph.recs[i]) {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startTrace attaches the harness's own in-process subscription to the
// context broker: its callback marks the moment a reading's context update
// reaches the shard dispatcher. The returned function detaches it.
func (fx *fixture) startTrace() (stop func(), err error) {
	id, err := fx.p.Context.Subscribe(ngsi.Subscription{
		ID:              "bench-trace",
		EntityIDPattern: benchEntityPrefix + "*",
		Notifier:        ngsi.Callback(fx.onContextUpdate),
	})
	if err != nil {
		return nil, fmt.Errorf("trace subscription: %w", err)
	}
	return func() { _ = fx.p.Context.Unsubscribe(id) }, nil
}

// onContextUpdate runs on a shard dispatcher; it must stay cheap.
func (fx *fixture) onContextUpdate(n ngsi.Notification) {
	at := time.Now()
	ph := fx.cur.Load()
	probe, ok := probeOfEntity(n.Entity.ID)
	v, isNum := n.Entity.Attrs[attrD20].Float()
	if ph == nil || !ok || !isNum || probe >= fx.w.probes {
		return
	}
	k := fx.order.index(probe, seqOf(v))
	rec := ph.rec(k)
	if rec == nil || !rec.callback.CompareAndSwap(0, ph.ns(at)) {
		return
	}
	if ph.storeTap != nil && k%storeSampleEvery == 0 {
		select {
		case ph.storeTap <- k:
		default: // watcher behind: skip this sample rather than block the dispatcher
		}
	}
}

// watchStore resolves the sampled readings' cloud_store spans: it polls
// the time-series store until the reading's point is visible.
func (ph *phase) watchStore(stop <-chan struct{}) {
	fx := ph.fx
	for {
		var k int
		select {
		case k = <-ph.storeTap:
		case <-stop:
			return
		}
		probe, seq := fx.order.at(k)
		key := timeseries.SeriesKey{Device: deviceID(probe), Quantity: attrD20}
		deadline := time.Now().Add(opTimeout)
		for time.Now().Before(deadline) {
			if pt, ok := fx.p.Store.Latest(key); ok && seqOf(pt.Value) >= seq {
				ph.rec(k).stored.Store(ph.ns(time.Now()))
				break
			}
			sleepUntil(time.Now().Add(100 * time.Microsecond)) // nanosleep: a Go timer this short keeps a processor spinning
		}
	}
}
