package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// fakeCluster is a scripted cluster Backend that records routed calls.
type fakeCluster struct {
	calls    []string
	queryRes ngsi.QueryResult
	entity   *ngsi.Entity
	err      error
	agg      timeseries.Aggregate
	wins     []timeseries.WindowAggregate
}

func (f *fakeCluster) Query(q ngsi.Query) (ngsi.QueryResult, error) {
	f.calls = append(f.calls, fmt.Sprintf("query limit=%d offset=%d order=%s", q.Limit, q.Offset, q.OrderBy))
	return f.queryRes, f.err
}

func (f *fakeCluster) GetEntity(id string) (*ngsi.Entity, error) {
	f.calls = append(f.calls, "get "+id)
	if f.entity == nil && f.err == nil {
		return nil, fmt.Errorf("entity %q: %w", id, ngsi.ErrNotFound)
	}
	return f.entity, f.err
}

func (f *fakeCluster) UpdateAttrs(id, typ string, attrs map[string]ngsi.Attribute) error {
	f.calls = append(f.calls, "update "+id)
	return f.err
}

func (f *fakeCluster) BatchUpdate(updates map[string]ngsi.BatchEntry) error {
	f.calls = append(f.calls, fmt.Sprintf("batch n=%d", len(updates)))
	return f.err
}

func (f *fakeCluster) DeleteEntity(id string) error {
	f.calls = append(f.calls, "delete "+id)
	return f.err
}

func (f *fakeCluster) AppendBatch(pts []timeseries.BatchPoint) (int, int, error) {
	f.calls = append(f.calls, fmt.Sprintf("append n=%d", len(pts)))
	return 0, 0, f.err
}

func (f *fakeCluster) Summary(device, quantity string, from, to time.Time) (timeseries.Aggregate, error) {
	f.calls = append(f.calls, "summary "+device+"/"+quantity)
	return f.agg, f.err
}

func (f *fakeCluster) Windows(device, quantity string, from, to time.Time, window time.Duration) ([]timeseries.WindowAggregate, error) {
	f.calls = append(f.calls, "windows "+device+"/"+quantity)
	return f.wins, f.err
}

func newClusterFixture(t *testing.T, fc *fakeCluster) *fixture {
	t.Helper()
	return newFixtureWith(t, func(c *Config) { c.Cluster = fc })
}

// TestClusterRoutesDataPlane: with a cluster backend configured, the
// entity and analytics routes go through it, not the local stores.
func TestClusterRoutesDataPlane(t *testing.T) {
	fc := &fakeCluster{
		queryRes: ngsi.QueryResult{Entities: []*ngsi.Entity{
			{ID: "urn:farm1:p9", Type: "SoilProbe", Attrs: map[string]ngsi.Attribute{}},
		}, Total: 41},
		entity: &ngsi.Entity{ID: "urn:farm1:p9", Type: "SoilProbe", Attrs: map[string]ngsi.Attribute{}},
		agg:    timeseries.Aggregate{Count: 3, Min: 1, Max: 5, Mean: 3},
		wins:   []timeseries.WindowAggregate{{Aggregate: timeseries.Aggregate{Count: 2}}},
	}
	f := newClusterFixture(t, fc)
	tok := f.token(t, "farmer")

	resp := f.do(t, "GET", "/v2/entities?idPattern=urn:farm1:*&options=count", tok, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Fiware-Total-Count"); got != "41" {
		t.Fatalf("total count header %q", got)
	}
	var list []ngsi.Entity
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != "urn:farm1:p9" {
		t.Fatalf("list body %+v", list)
	}

	resp = f.do(t, "GET", "/v2/entities/urn:farm1:p9", tok, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = f.do(t, "POST", "/v2/entities/urn:farm1:p9/attrs", tok, []byte(`{"soilMoisture":{"value":0.4}}`))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = f.do(t, "POST", "/v2/op/update", tok, []byte(`{"entities":[{"id":"urn:farm1:p9","attrs":{"soilMoisture":{"value":0.5}}}]}`))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = f.do(t, "DELETE", "/v2/entities/urn:farm1:p9", tok, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = f.do(t, "GET", "/v2/analytics/farm1-p1/soilMoisture", tok, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytics status %d", resp.StatusCode)
	}
	var sum map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if sum["count"].(float64) != 3 {
		t.Fatalf("analytics body %+v", sum)
	}

	resp = f.do(t, "GET", "/v2/analytics/farm1-p1/soilMoisture/series?window=30m", tok, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("series status %d", resp.StatusCode)
	}
	resp.Body.Close()

	want := []string{
		"query limit=100 offset=0 order=id",
		"get urn:farm1:p9",
		"update urn:farm1:p9",
		"batch n=1",
		"delete urn:farm1:p9",
		"summary farm1-p1/soilMoisture",
		"windows farm1-p1/soilMoisture",
	}
	if len(fc.calls) != len(want) {
		t.Fatalf("calls %v, want %v", fc.calls, want)
	}
	for i := range want {
		if fc.calls[i] != want[i] {
			t.Fatalf("call %d = %q, want %q", i, fc.calls[i], want[i])
		}
	}
}

// TestClusterListReachesBackend: the same listing twice must hit the
// backend both times.
func TestClusterListReachesBackend(t *testing.T) {
	fc := &fakeCluster{}
	f := newClusterFixture(t, fc)
	tok := f.token(t, "farmer")
	for i := 0; i < 2; i++ {
		resp := f.do(t, "GET", "/v2/entities?idPattern=urn:farm1:*", tok, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %d status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if len(fc.calls) != 2 {
		t.Fatalf("backend saw %d queries, want 2: %v", len(fc.calls), fc.calls)
	}
}

// TestClusterErrorMapping: infrastructure failures answer 503 so clients
// retry; not-found keeps its 404.
func TestClusterErrorMapping(t *testing.T) {
	fc := &fakeCluster{err: fmt.Errorf("%w: partition 3", ngsi.ErrUnavailable)}
	f := newClusterFixture(t, fc)
	tok := f.token(t, "farmer")

	resp := f.do(t, "POST", "/v2/entities/urn:farm1:p9/attrs", tok, []byte(`{"soilMoisture":{"value":0.4}}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update on ack timeout: status %d, want 503", resp.StatusCode)
	}
	var apiErr apiError
	_ = json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if apiErr.Error != "cluster_unavailable" {
		t.Fatalf("error kind %q", apiErr.Error)
	}

	resp = f.do(t, "GET", "/v2/entities?idPattern=urn:farm1:*", tok, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("list on cluster error: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	resp = f.do(t, "DELETE", "/v2/entities/urn:farm1:p9", tok, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delete on cluster error: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// Not-found stays 404 even through the cluster path.
	fc.err = nil
	fc.entity = nil
	resp = f.do(t, "GET", "/v2/entities/urn:farm1:p9", tok, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing entity: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestClusterBadIDAnswers400: a request defect answers in cluster mode
// exactly as on a single node — 400, not a retryable 503 — even when the
// broker's error quotes an id that contains "cluster: ".
func TestClusterBadIDAnswers400(t *testing.T) {
	const path = "/v2/entities/urn:farm1:cluster:%20x/attrs"
	body := []byte(`{"soilMoisture":{"value":0.4}}`)

	single := newFixture(t)
	want := single.do(t, "POST", path, single.token(t, "farmer"), body)
	wantBody, _ := io.ReadAll(want.Body)
	if want.StatusCode != http.StatusBadRequest {
		t.Fatalf("single node: status %d, want 400: %s", want.StatusCode, wantBody)
	}

	// The cluster backend fails with the broker's own error for the id.
	broker := ngsi.NewBroker(ngsi.BrokerConfig{})
	t.Cleanup(broker.Close)
	fc := &fakeCluster{err: broker.UpdateAttrs("urn:farm1:cluster: x", "Thing",
		map[string]ngsi.Attribute{"soilMoisture": {Type: "Number", Value: 0.4}})}
	if fc.err == nil {
		t.Fatal("broker accepted a whitespace id")
	}
	f := newClusterFixture(t, fc)
	got := f.do(t, "POST", path, f.token(t, "farmer"), body)
	gotBody, _ := io.ReadAll(got.Body)
	if got.StatusCode != want.StatusCode || string(gotBody) != string(wantBody) {
		t.Fatalf("cluster mode: %d %s, want %d %s", got.StatusCode, gotBody, want.StatusCode, wantBody)
	}
}

// TestReadyzDetail: the ops readiness body carries the Detail fields on
// both the ready and unready paths.
func TestReadyzDetail(t *testing.T) {
	ready := errors.New("replication lag 123 records")
	gate := func() error { return ready }
	o := NewOps(nil, gate, nil)
	o.Metrics = nil // /metrics unused here
	o.Detail = func() map[string]any {
		return map[string]any{
			"recovery": map[string]any{"records": 42},
			"cluster":  map[string]any{"parts_led": 3, "max_lag": 123},
			"status":   "should-be-ignored",
		}
	}
	srv := httptest.NewServer(o)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unready status %d", resp.StatusCode)
	}
	if body["status"] != "unready" || body["reason"] != ready.Error() {
		t.Fatalf("unready body %+v", body)
	}
	if body["cluster"].(map[string]any)["max_lag"].(float64) != 123 {
		t.Fatalf("detail missing from unready body: %+v", body)
	}

	ready = nil
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body = map[string]any{}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("ready: status=%d body=%+v", resp.StatusCode, body)
	}
	if body["recovery"].(map[string]any)["records"].(float64) != 42 {
		t.Fatalf("detail missing from ready body: %+v", body)
	}
}
