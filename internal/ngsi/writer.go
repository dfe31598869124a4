package ngsi

import "github.com/swamp-project/swamp/internal/timeseries"

// Writer is the platform's one write path. Every ingress writes through
// it: the IoT agent's batcher, the fog and cloud telemetry ingest, the
// mobile-fog survey and the northbound API. A single node writes through
// Local; a cluster writes through internal/cluster's Router, which sends
// each write to its partition's leader and waits there for min_isr
// follower acks. Errors carry the northbound's sentinels (ErrNotFound,
// ErrDurability, ErrUnavailable) whichever node served them.
type Writer interface {
	UpdateAttrs(id, typ string, attrs map[string]Attribute) error
	BatchUpdate(updates map[string]BatchEntry) error
	DeleteEntity(id string) error
	// AppendBatch appends telemetry; a point the store would refuse
	// (empty key, non-finite value) counts as rejected, not as an error.
	AppendBatch(pts []timeseries.BatchPoint) (accepted, rejected int, err error)
}

// Local is a single node's Writer: entity writes apply to the broker,
// telemetry to the store.
type Local struct {
	*Broker
	*timeseries.Store
}

// AppendBatch appends telemetry to the store. A journal failure is an
// ErrDurability, as it is for an entity write.
func (l Local) AppendBatch(pts []timeseries.BatchPoint) (accepted, rejected int, err error) {
	accepted, rejected, err = l.Store.AppendBatch(pts)
	return accepted, rejected, notDurable(err)
}
