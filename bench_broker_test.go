// Benchmarks for the NGSI context-broker hot path: concurrent attribute
// upserts and subscription fan-out under a realistic subscription load
// (1k subscriptions, the "thousands of devices per pilot" regime the paper
// names as the platform's scale challenge), on the sharded broker with the
// pattern-shape subscription index.
package swamp_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/swamp-project/swamp/internal/httpapi"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/security/oauth"
	"github.com/swamp-project/swamp/internal/security/pep"
	"github.com/swamp-project/swamp/internal/tenant"
)

const (
	benchEntities = 1024
	benchSubs     = 1000
)

func benchEntityID(i int) string { return fmt.Sprintf("urn:bench:probe:%04d", i) }

// benchProbeAttrs is one probe reading: two numeric depth attributes. The
// broker copies what it stores, so the benchmarks share the map.
var benchProbeAttrs = map[string]ngsi.Attribute{
	"soilMoisture_d20": {Type: "Number", Value: 0.23},
	"soilMoisture_d50": {Type: "Number", Value: 0.29},
}

// benchFleetIDs returns n probe ids in ascending order.
func benchFleetIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("urn:bench:probe:%06d", i)
	}
	return ids
}

// newBenchBroker builds a broker carrying benchSubs subscriptions: mostly
// exact-id subscriptions spread over the entity space, plus a small mix of
// prefix and wildcard patterns like a real deployment (dashboards, fog
// sync, per-plot alarms).
func newBenchBroker(b *testing.B, cfg ngsi.BrokerConfig) *ngsi.Broker {
	b.Helper()
	ctx := ngsi.NewBroker(cfg)
	b.Cleanup(ctx.Close)
	var delivered atomic.Uint64
	handler := func(ngsi.Notification) { delivered.Add(1) }
	for i := 0; i < benchSubs; i++ {
		var pattern string
		switch {
		case i%100 == 0: // 1%: catch-all (platform telemetry, dashboards)
			pattern = "*"
		case i%20 == 0: // 5%: prefix (per-farm views)
			pattern = fmt.Sprintf("urn:bench:probe:%02d*", i%100)
		default: // exact-id (per-plot alarms)
			pattern = benchEntityID(i % benchEntities)
		}
		if _, err := ctx.Subscribe(ngsi.Subscription{
			EntityIDPattern: pattern,
			ConditionAttrs:  []string{"soilMoisture_d20"},
			Notifier:        ngsi.Callback(handler),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return ctx
}

func benchConcurrentUpsert(b *testing.B, cfg ngsi.BrokerConfig) {
	ctx := newBenchBroker(b, cfg)
	attrs := benchProbeAttrs
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			id := benchEntityID(int(i % benchEntities))
			if err := ctx.UpdateAttrs(id, "SoilProbe", attrs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBrokerConcurrentUpsert measures concurrent UpdateAttrs
// throughput with 1k live subscriptions at 1/4/8 shards.
func BenchmarkBrokerConcurrentUpsert(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("indexed-shards-%d", shards), func(b *testing.B) {
			b.SetParallelism(4)
			benchConcurrentUpsert(b, ngsi.BrokerConfig{Shards: shards})
		})
	}
}

// BenchmarkBrokerNotifyFanout measures the cost of evaluating the
// subscription set for one update that matches a single exact-id
// subscription — the common case for per-plot alarms.
func BenchmarkBrokerNotifyFanout(b *testing.B) {
	b.Run("indexed", func(b *testing.B) {
		ctx := newBenchBroker(b, ngsi.BrokerConfig{})
		attrs := map[string]ngsi.Attribute{
			"soilMoisture_d20": {Type: "Number", Value: 0.21},
		}
		id := benchEntityID(7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ctx.UpdateAttrs(id, "SoilProbe", attrs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBrokerBatchUpdate measures the batched ingest path: 64 entities
// per BatchUpdate (one lock acquisition per touched shard) against the same
// 64 entities applied as individual UpdateAttrs calls.
func BenchmarkBrokerBatchUpdate(b *testing.B) {
	const batchSize = 64
	attrs := func() map[string]ngsi.Attribute {
		return map[string]ngsi.Attribute{
			"soilMoisture_d20": {Type: "Number", Value: 0.23},
		}
	}
	b.Run("individual", func(b *testing.B) {
		ctx := newBenchBroker(b, ngsi.BrokerConfig{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batchSize; j++ {
				if err := ctx.UpdateAttrs(benchEntityID((i*batchSize+j)%benchEntities), "SoilProbe", attrs()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		ctx := newBenchBroker(b, ngsi.BrokerConfig{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := make(map[string]ngsi.BatchEntry, batchSize)
			for j := 0; j < batchSize; j++ {
				batch[benchEntityID((i*batchSize+j)%benchEntities)] = ngsi.BatchEntry{Type: "SoilProbe", Attrs: attrs()}
			}
			if err := ctx.BatchUpdate(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBrokerUpdateAttrs is the bare write path — no subscriptions, no
// journal — merging a probe's two numeric attributes into an existing
// entity, at a farm-sized and a fleet-sized store (8 shards). It prices
// what each update pays to keep the shard's entity table in step: finding
// the row and storing two column cells.
func BenchmarkBrokerUpdateAttrs(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		// The store is built once per size, not once per b.N escalation.
		ctx := ngsi.NewBroker(ngsi.BrokerConfig{})
		b.Cleanup(ctx.Close)
		ids := benchFleetIDs(n)
		for _, id := range ids {
			if err := ctx.UpdateAttrs(id, "SoilProbe", benchProbeAttrs); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("entities-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A stride coprime with n: successive updates land far apart.
				if err := ctx.UpdateAttrs(ids[i*7919%n], "SoilProbe", benchProbeAttrs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBrokerProvision creates 100 000 two-attribute entities in an
// empty broker per iteration: ids arriving in ascending order (each row
// appends to its shard's table), shuffled over 8 shards (each row is
// inserted mid-slice among ~12 500), and shuffled into a single shard — the
// 100 000-row O(rows) shift DESIGN.md §2.1 names as the table's known cost.
func BenchmarkBrokerProvision(b *testing.B) {
	const n = 100_000
	ascending := benchFleetIDs(n)
	shuffled := slices.Clone(ascending)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, tc := range []struct {
		name   string
		ids    []string
		shards int
	}{{"ascending-shards-8", ascending, 8}, {"shuffled-shards-8", shuffled, 8}, {"shuffled-shards-1", shuffled, 1}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := ngsi.NewBroker(ngsi.BrokerConfig{Shards: tc.shards})
				for _, id := range tc.ids {
					if err := ctx.UpdateAttrs(id, "SoilProbe", benchProbeAttrs); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				ctx.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkBrokerFilteredQuery measures a selective northbound query
// (~1% of a 8k-entity farm matches, page of 10) three ways: the
// pre-redesign shape — list the whole id/type space sorted by id, then
// filter and page in the caller — against the query engine doing the
// filter, order, page cut and projection itself, ordered and unordered.
func BenchmarkBrokerFilteredQuery(b *testing.B) {
	const queryEntities = 8192
	seed := func(b *testing.B) *ngsi.Broker {
		b.Helper()
		ctx := ngsi.NewBroker(ngsi.BrokerConfig{})
		b.Cleanup(ctx.Close)
		for i := 0; i < queryEntities; i++ {
			err := ctx.UpsertEntity(&ngsi.Entity{
				ID: fmt.Sprintf("urn:bench:q:%05d", i), Type: "SoilProbe",
				Attrs: map[string]ngsi.Attribute{
					"soilMoisture_d20": {Type: "Number", Value: float64(i%1000) / 1000},
					"soilMoisture_d50": {Type: "Number", Value: float64(i%500) / 1000},
					"battery":          {Type: "Number", Value: 0.5},
					"zone":             {Type: "Text", Value: fmt.Sprintf("zone-%d", i%16)},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		return ctx
	}
	conds, err := ngsi.ParseQ("soilMoisture_d20<0.01")
	if err != nil {
		b.Fatal(err)
	}
	const page = 10

	b.Run("filter-in-caller", func(b *testing.B) {
		ctx := seed(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ctx.Query(ngsi.Query{IDPattern: "*", Type: "SoilProbe", OrderBy: ngsi.OrderByID})
			if err != nil {
				b.Fatal(err)
			}
			all := res.Entities // lists and sorts everything
			got := 0
			for _, e := range all {
				if v, ok := e.Attrs["soilMoisture_d20"].Float(); ok && v < 0.01 {
					if got++; got == page {
						break
					}
				}
			}
			if got != page {
				b.Fatalf("matched %d", got)
			}
		}
	})
	b.Run("pushdown-ordered", func(b *testing.B) {
		ctx := seed(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ctx.Query(ngsi.Query{
				Type: "SoilProbe", Conditions: conds,
				OrderBy: ngsi.OrderByID, Limit: page,
			})
			if err != nil || len(res.Entities) != page {
				b.Fatalf("%d entities, %v", len(res.Entities), err)
			}
		}
	})
	b.Run("pushdown-unordered", func(b *testing.B) {
		ctx := seed(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ctx.Query(ngsi.Query{
				Type: "SoilProbe", Conditions: conds, Limit: page,
			})
			if err != nil || len(res.Entities) != page {
				b.Fatalf("%d entities, %v", len(res.Entities), err)
			}
		}
	})
	b.Run("pushdown-projected", func(b *testing.B) {
		ctx := seed(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ctx.Query(ngsi.Query{
				Type: "SoilProbe", Conditions: conds,
				Attrs: []string{"soilMoisture_d20"}, OrderBy: ngsi.OrderByID, Limit: page,
			})
			if err != nil || len(res.Entities) != page {
				b.Fatalf("%d entities, %v", len(res.Entities), err)
			}
		}
	})
}

// seedFleet stores a dashboard-shaped fleet: n soil probes, two depth
// attributes each, carrying the metadata the IoT agent attaches. About
// half the fleet reads above 0.25 at d20.
func seedFleet(b *testing.B, ctx *ngsi.Broker, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("urn:farm1:probe:%04d", i)
		meta := map[string]string{"device": fmt.Sprintf("farm1-p%04d", i), "owner": "farm1"}
		err := ctx.UpsertEntity(&ngsi.Entity{ID: id, Type: "SoilProbe", Attrs: map[string]ngsi.Attribute{
			"soilMoisture_d20": {Type: "Number", Value: 0.15 + float64(i*7919%1000)/5000, Metadata: meta},
			"soilMoisture_d50": {Type: "Number", Value: 0.20 + float64(i*104729%1000)/5000, Metadata: meta},
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerFleetListing is the dashboard's filtered fleet listing at
// the broker: 1 000 probes, a q= filter about half of them pass, the exact
// count, and the second 100-entity page in id order.
func BenchmarkBrokerFleetListing(b *testing.B) {
	ctx := ngsi.NewBroker(ngsi.BrokerConfig{})
	b.Cleanup(ctx.Close)
	seedFleet(b, ctx, 1000)
	conds, err := ngsi.ParseQ("soilMoisture_d20>0.25")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctx.Query(ngsi.Query{
			Type: "SoilProbe", Conditions: conds, OrderBy: ngsi.OrderByID,
			Offset: 100, Limit: 100, Count: true,
		})
		if err != nil || len(res.Entities) != 100 || res.Total < 400 || res.Total > 600 {
			b.Fatalf("%d entities of %d, %v", len(res.Entities), res.Total, err)
		}
	}
}

// BenchmarkHTTPFleetListing is the same listing through the northbound
// handler — bearer token, PEP, query engine, JSON body — on a recorder.
// Every request carries a distinct threshold spelling of the same
// selectivity, as a dashboard fleet's listings do.
func BenchmarkHTTPFleetListing(b *testing.B) {
	idm := identity.NewStore()
	if err := idm.Register(identity.Principal{
		ID: "farmer", Roles: []identity.Role{identity.RoleFarmer}, Owner: "farm1",
	}, "pw"); err != nil {
		b.Fatal(err)
	}
	tokens := oauth.NewServer(idm, oauth.Config{})
	pdp := pep.NewPDP(pep.Policy{
		ID: "own-data", Roles: []identity.Role{identity.RoleFarmer},
		Owners: []tenant.ID{"farm1"}, ResourcePattern: "ngsi:*", Effect: pep.Permit,
	})
	ctx := ngsi.NewBroker(ngsi.BrokerConfig{})
	b.Cleanup(ctx.Close)
	seedFleet(b, ctx, 1000)
	api, err := httpapi.NewServer(httpapi.Config{Context: ctx, Tokens: tokens, PEP: pep.NewPEP(tokens, pdp, nil)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(api.Close)
	tok, err := tokens.GrantPassword("farmer", "pw")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf(
			"/v2/entities?type=SoilProbe&q=soilMoisture_d20%%3E0.25%06d&limit=100&offset=100&options=count", i), nil)
		req.Header.Set("Authorization", "Bearer "+tok.Value)
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.Len() < 10_000 {
			b.Fatalf("status %d, %d-byte body", rec.Code, rec.Body.Len())
		}
	}
}

// BenchmarkBatcherIngest measures the full coalescing path: Add →
// wake-driven flush → BatchUpdate, configured as the agent does.
func BenchmarkBatcherIngest(b *testing.B) {
	ctx := newBenchBroker(b, ngsi.BrokerConfig{})
	ba, err := ngsi.NewBatcher(ngsi.BatcherConfig{Writer: ngsi.Local{Broker: ctx}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ba.Close)
	meta := map[string]string{"device": "probe-1", "owner": "farm1"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// What the agent builds per message, for Add to keep: a map of its
		// own, every attribute carrying the provision's metadata.
		attrs := map[string]ngsi.Attribute{
			"soilMoisture_d20": {Type: "Number", Value: 0.23, Metadata: meta},
			"soilMoisture_d40": {Type: "Number", Value: 0.27, Metadata: meta},
		}
		if err := ba.Add(benchEntityID(i%benchEntities), "SoilProbe", attrs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ba.Flush()
}
