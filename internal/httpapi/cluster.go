package httpapi

import (
	"errors"
	"net/http"
	"strings"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// ClusterBackend is the cluster-aware data plane: reads and writes that
// must route to partition owners instead of the local stores. The
// concrete implementation lives in internal/cluster (its Router
// satisfies this structurally); httpapi deliberately does not import it,
// keeping the northbound buildable — and testable — without the cluster
// plane.
//
// Error contract: lookups wrap ngsi.ErrNotFound; infrastructure
// failures (not-the-leader bounces, fencing, replication-ack timeouts,
// peer transport loss) are prefixed "cluster: " and map to 503 — the
// write may be retried against the (possibly re-elected) owner.
//
// Entities returned by Query are read-only (ngsi.QueryResult): the local
// leg of a scatter-gather hands back the broker's stored versions.
//
// Calls carry no tenant. Admission is charged exactly once, at the
// ingress node that resolved the principal, and the serving leader
// neither re-admits nor accounts a routed request.
type ClusterBackend interface {
	Query(q ngsi.Query) (ngsi.QueryResult, error)
	GetEntity(id string) (*ngsi.Entity, error)
	UpdateAttrs(id, typ string, attrs map[string]ngsi.Attribute) error
	BatchUpdate(updates map[string]ngsi.BatchEntry) error
	DeleteEntity(id string) error
	Summary(device, quantity string, from, to time.Time) (timeseries.Aggregate, error)
	Windows(device, quantity string, from, to time.Time, window time.Duration) ([]timeseries.WindowAggregate, error)
}

// clusterRetryable reports whether an error from the cluster backend is
// an infrastructure condition the client should retry (503) rather than
// a request defect (400/404). Cluster-plane errors all carry the
// package's "cluster: " prefix somewhere in the chain.
func clusterRetryable(err error) bool {
	return strings.Contains(err.Error(), "cluster: ")
}

// writeClusterMutationErr is writeMutationErr for routed writes: the
// not-found sentinel keeps its 404, durability and cluster-plane
// failures answer 503 (retry), everything else falls back to the
// caller's validation status.
func writeClusterMutationErr(w http.ResponseWriter, fallbackCode int, kind string, err error) {
	switch {
	case errors.Is(err, ngsi.ErrNotFound):
		writeErr(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, ngsi.ErrDurability):
		writeErr(w, http.StatusServiceUnavailable, "durability_failure", err.Error())
	case clusterRetryable(err):
		writeErr(w, http.StatusServiceUnavailable, "cluster_unavailable", err.Error())
	default:
		writeErr(w, fallbackCode, kind, err.Error())
	}
}

// Backend indirection: each data route calls through these so cluster
// mode changes routing, not handler logic.

func (s *Server) backendQuery(q ngsi.Query) (ngsi.QueryResult, error) {
	if s.cfg.Cluster != nil {
		return s.cfg.Cluster.Query(q)
	}
	return s.cfg.Context.Query(q)
}

func (s *Server) backendGetEntity(id string) (*ngsi.Entity, error) {
	if s.cfg.Cluster != nil {
		return s.cfg.Cluster.GetEntity(id)
	}
	return s.cfg.Context.GetEntity(id)
}

func (s *Server) backendUpdateAttrs(id, typ string, attrs map[string]ngsi.Attribute) error {
	if s.cfg.Cluster != nil {
		return s.cfg.Cluster.UpdateAttrs(id, typ, attrs)
	}
	return s.cfg.Context.UpdateAttrs(id, typ, attrs)
}

func (s *Server) backendBatchUpdate(updates map[string]ngsi.BatchEntry) error {
	if s.cfg.Cluster != nil {
		return s.cfg.Cluster.BatchUpdate(updates)
	}
	return s.cfg.Context.BatchUpdate(updates)
}

func (s *Server) backendDeleteEntity(id string) error {
	if s.cfg.Cluster != nil {
		return s.cfg.Cluster.DeleteEntity(id)
	}
	return s.cfg.Context.DeleteEntity(id)
}
