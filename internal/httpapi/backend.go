package httpapi

import (
	"errors"
	"time"

	"github.com/swamp-project/swamp/internal/cloud"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// Backend is the data plane every entity and analytics route reads and
// writes through: ngsi.Writer, the write path every platform ingress
// shares, plus the reads. A single node serves it from its local stores
// (localBackend); a cluster serves it through internal/cluster's Router,
// which routes to partition owners and satisfies this structurally —
// httpapi deliberately does not import the cluster plane.
//
// Error contract: failures carry their kind as a sentinel, whichever
// node served them. ngsi.ErrNotFound answers 404, ngsi.ErrDurability
// and ngsi.ErrUnavailable answer 503 (retry); anything else is a
// request defect and answers the route's own status.
//
// Entities returned by Query are read-only (ngsi.QueryResult): they are
// the broker's stored versions.
//
// Calls carry no tenant. Admission is charged exactly once, at the
// ingress node that resolved the principal, and the serving leader
// neither re-admits nor accounts a routed request.
type Backend interface {
	ngsi.Writer
	Query(q ngsi.Query) (ngsi.QueryResult, error)
	GetEntity(id string) (*ngsi.Entity, error)
	Summary(device, quantity string, from, to time.Time) (timeseries.Aggregate, error)
	Windows(device, quantity string, from, to time.Time, window time.Duration) ([]timeseries.WindowAggregate, error)
}

// localBackend is a single node's Backend: the broker serves entities,
// the analytics facade serves series.
type localBackend struct {
	*ngsi.Broker
	analytics *cloud.Analytics
}

// AppendBatch refuses telemetry: no route writes it, and a single node's
// server holds only the analytics read facade over its store.
func (localBackend) AppendBatch([]timeseries.BatchPoint) (int, int, error) {
	return 0, 0, errors.New("httpapi: no telemetry write path")
}

func (b localBackend) Summary(device, quantity string, from, to time.Time) (timeseries.Aggregate, error) {
	return b.analytics.Summary(device, quantity, from, to), nil
}

func (b localBackend) Windows(device, quantity string, from, to time.Time, window time.Duration) ([]timeseries.WindowAggregate, error) {
	return b.analytics.Windows(device, quantity, from, to, window)
}
