package wal

import (
	"errors"
	"testing"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// TestApplierKeepsRecordOrder: an upsert or a delete applies after the
// merges queued before it, so a queued run lands as the records read.
func TestApplierKeepsRecordOrder(t *testing.T) {
	ctx := ngsi.NewBroker(ngsi.BrokerConfig{})
	defer ctx.Close()
	a := &Applier{Context: ctx, Store: timeseries.New()}
	attr := func(v float64) ngsi.Attribute { return ngsi.Attribute{Type: "Number", Value: v} }
	var recs []Record
	add := func(rec Record, err error) {
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	add(EncodeEntityMerge([]ngsi.MergeEntry{{ID: "urn:a", Type: "T", Attrs: map[string]ngsi.Attribute{"x": attr(1)}}}))
	add(EncodeEntityUpsert(&ngsi.Entity{ID: "urn:a", Type: "T", Attrs: map[string]ngsi.Attribute{"y": attr(2)}}))
	add(EncodeEntityMerge([]ngsi.MergeEntry{{ID: "urn:b", Type: "T", Attrs: map[string]ngsi.Attribute{"x": attr(1)}}}))
	add(EncodeEntityDelete("urn:b"))
	for _, rec := range recs {
		if err := a.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	e, err := ctx.GetEntity("urn:a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Attrs["x"]; ok || len(e.Attrs) != 1 {
		t.Fatalf("upsert applied before the merge queued ahead of it: %v", e.Attrs)
	}
	if _, err := ctx.GetEntity("urn:b"); !errors.Is(err, ngsi.ErrNotFound) {
		t.Fatalf("delete applied before the merge queued ahead of it (err=%v)", err)
	}
}
