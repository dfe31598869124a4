package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// Wire DTOs for routed requests (msgReq/msgResp bodies, JSON). The
// partition scope replaces ngsi.Query.IDFilter on the wire: the serving
// node rebuilds the filter from the shared hash, so follower copies of
// foreign partitions never leak into a scatter leg.
type wireQuery struct {
	IDPattern  string           `json:"idPattern,omitempty"`
	Type       string           `json:"type,omitempty"`
	Conditions []ngsi.Condition `json:"conditions,omitempty"`
	Attrs      []string         `json:"attrs,omitempty"`
	OrderBy    string           `json:"orderBy,omitempty"`
	Limit      int              `json:"limit,omitempty"`
	Offset     int              `json:"offset,omitempty"`
	Count      bool             `json:"count,omitempty"`
	Parts      []int            `json:"parts,omitempty"`
}

type wireQueryResult struct {
	Entities []*ngsi.Entity `json:"entities"`
	Total    int            `json:"total"`
}

type wireID struct {
	ID string `json:"id"`
}

type wireUpdate struct {
	ID    string                    `json:"id"`
	Type  string                    `json:"type"`
	Attrs map[string]ngsi.Attribute `json:"attrs"`
}

type wireBatch struct {
	Updates map[string]ngsi.BatchEntry `json:"updates"`
}

type wireAppend struct {
	Points []timeseries.BatchPoint `json:"points"`
}

type wireAppendResult struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

type wireSeries struct {
	Device   string        `json:"device"`
	Quantity string        `json:"quantity"`
	From     time.Time     `json:"from"`
	To       time.Time     `json:"to"`
	Window   time.Duration `json:"window,omitempty"`
}

type wireWindows struct {
	Windows []timeseries.WindowAggregate `json:"windows"`
}

// partFilter builds the scatter-leg id filter for a partition subset.
func (n *Node) partFilter(parts []int) func(string) bool {
	if len(parts) == 0 {
		return nil
	}
	set := make(map[int]bool, len(parts))
	for _, p := range parts {
		set[p] = true
	}
	return func(id string) bool { return set[n.m.PartitionOf(id)] }
}

// serveReq answers one routed request on the serving node.
func (n *Node) serveReq(c Conn, rq reqMsg) {
	body, err := n.handleReq(rq.Kind, rq.Body)
	resp := respMsg{ID: rq.ID, Body: body}
	if err != nil {
		resp.Err = err.Error()
	}
	_ = c.Send(encodeResp(nil, resp))
}

func (n *Node) handleReq(kind byte, body []byte) ([]byte, error) {
	switch kind {
	case reqQuery:
		var wq wireQuery
		if err := json.Unmarshal(body, &wq); err != nil {
			return nil, err
		}
		res, err := n.hooks.Context.Query(ngsi.Query{
			IDPattern:  wq.IDPattern,
			Type:       wq.Type,
			Conditions: wq.Conditions,
			Attrs:      wq.Attrs,
			OrderBy:    wq.OrderBy,
			Limit:      wq.Limit,
			Offset:     wq.Offset,
			Count:      wq.Count,
			IDFilter:   n.partFilter(wq.Parts),
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(wireQueryResult{Entities: res.Entities, Total: res.Total})
	case reqGet:
		var w wireID
		if err := json.Unmarshal(body, &w); err != nil {
			return nil, err
		}
		e, err := n.hooks.Context.GetEntity(w.ID)
		if err != nil {
			return nil, err
		}
		return json.Marshal(e)
	case reqUpdateAttrs:
		var w wireUpdate
		if err := json.Unmarshal(body, &w); err != nil {
			return nil, err
		}
		return nil, n.UpdateAttrs(w.ID, w.Type, w.Attrs)
	case reqBatchUpdate:
		var w wireBatch
		if err := json.Unmarshal(body, &w); err != nil {
			return nil, err
		}
		return nil, n.BatchUpdate(w.Updates)
	case reqDelete:
		var w wireID
		if err := json.Unmarshal(body, &w); err != nil {
			return nil, err
		}
		return nil, n.DeleteEntity(w.ID)
	case reqAppend:
		var w wireAppend
		if err := json.Unmarshal(body, &w); err != nil {
			return nil, err
		}
		acc, rej, err := n.AppendBatch(w.Points)
		if err != nil {
			return nil, err
		}
		return json.Marshal(wireAppendResult{Accepted: acc, Rejected: rej})
	case reqSummary:
		var w wireSeries
		if err := json.Unmarshal(body, &w); err != nil {
			return nil, err
		}
		agg := n.hooks.Store.Summarize(
			timeseries.SeriesKey{Device: w.Device, Quantity: w.Quantity}, w.From, w.To)
		return json.Marshal(agg)
	case reqWindows:
		var w wireSeries
		if err := json.Unmarshal(body, &w); err != nil {
			return nil, err
		}
		wins, err := n.hooks.Store.AggregateWindows(
			timeseries.SeriesKey{Device: w.Device, Quantity: w.Quantity}, w.From, w.To, w.Window)
		if err != nil {
			return nil, err
		}
		return json.Marshal(wireWindows{Windows: wins})
	}
	return nil, fmt.Errorf("cluster: unknown request kind %d", kind)
}

// --- peer client (one multiplexed request connection per peer) ---

type peerClient struct {
	conn    Conn
	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan respMsg
	broken  bool
}

func newPeerClient(conn Conn) *peerClient {
	pc := &peerClient{conn: conn, waiting: make(map[uint64]chan respMsg)}
	go pc.readLoop()
	return pc
}

func (pc *peerClient) readLoop() {
	for frame := range pc.conn.Recv() {
		t, body, err := frameType(frame)
		if err != nil || t != msgResp {
			continue
		}
		r, err := decodeResp(body)
		if err != nil {
			continue
		}
		pc.mu.Lock()
		ch := pc.waiting[r.ID]
		delete(pc.waiting, r.ID)
		pc.mu.Unlock()
		if ch != nil {
			ch <- r
		}
	}
	pc.mu.Lock()
	pc.broken = true
	for id, ch := range pc.waiting {
		close(ch)
		delete(pc.waiting, id)
	}
	pc.mu.Unlock()
}

func (pc *peerClient) call(kind byte, in, out any, timeout time.Duration) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	ch := make(chan respMsg, 1)
	pc.mu.Lock()
	if pc.broken {
		pc.mu.Unlock()
		return ErrConnClosed
	}
	pc.nextID++
	id := pc.nextID
	pc.waiting[id] = ch
	pc.mu.Unlock()
	if err := pc.conn.Send(encodeReq(nil, reqMsg{ID: id, Kind: kind, Body: body})); err != nil {
		pc.mu.Lock()
		delete(pc.waiting, id)
		pc.mu.Unlock()
		return err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r, ok := <-ch:
		if !ok {
			return ErrConnClosed
		}
		if r.Err != "" {
			// Re-establish the not-found sentinel across the wire so
			// callers' errors.Is checks keep working (broker errors wrap
			// it, so match the suffix, not the whole string).
			if strings.HasSuffix(r.Err, ngsi.ErrNotFound.Error()) {
				return fmt.Errorf("cluster: peer: %s: %w", strings.TrimSuffix(r.Err, ngsi.ErrNotFound.Error()), ngsi.ErrNotFound)
			}
			return errors.New(r.Err)
		}
		if out == nil || len(r.Body) == 0 {
			return nil
		}
		return json.Unmarshal(r.Body, out)
	case <-timer.C:
		pc.mu.Lock()
		delete(pc.waiting, id)
		pc.mu.Unlock()
		return fmt.Errorf("cluster: request to peer timed out after %s", timeout)
	}
}

// Router is the cluster-aware northbound backend: writes and point reads
// route to the owning partition leader, entity listings and analytics
// scatter-gather across every leader and merge with ordering, limit,
// offset and count preserved. It implements httpapi.ClusterBackend.
type Router struct {
	node *Node
	mu   sync.Mutex
	pcs  map[string]*peerClient
}

// NewRouter builds the routing layer over a node.
func NewRouter(n *Node) *Router {
	return &Router{node: n, pcs: make(map[string]*peerClient)}
}

// Close severs the peer request connections.
func (rt *Router) Close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for peer, pc := range rt.pcs {
		_ = pc.conn.Close()
		delete(rt.pcs, peer)
	}
}

func (rt *Router) reqTimeout() time.Duration {
	t := 2 * rt.node.ackTimeout()
	if t < 10*time.Second {
		t = 10 * time.Second
	}
	return t
}

func (rt *Router) peer(node string) (*peerClient, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if pc, ok := rt.pcs[node]; ok && !pc.broken {
		return pc, nil
	}
	if rt.node.cfg.Dial == nil {
		return nil, fmt.Errorf("cluster: no dialer configured, cannot reach %s", node)
	}
	conn, err := rt.node.cfg.Dial(node)
	if err != nil {
		return nil, err
	}
	pc := newPeerClient(conn)
	rt.pcs[node] = pc
	return pc, nil
}

// call routes one request to a peer node. Every caller serves its own
// node's share locally and calls only for the others.
func (rt *Router) call(node string, kind byte, in, out any) error {
	pc, err := rt.peer(node)
	if err != nil {
		return err
	}
	return pc.call(kind, in, out, rt.reqTimeout())
}

func (rt *Router) owner(key string) string {
	leader, _ := rt.node.m.Leader(rt.node.m.PartitionOf(key))
	return leader
}

// GetEntity reads an entity from its owning leader.
func (rt *Router) GetEntity(id string) (*ngsi.Entity, error) {
	node := rt.owner(id)
	if node == rt.node.id {
		return rt.node.hooks.Context.GetEntity(id)
	}
	var e ngsi.Entity
	if err := rt.call(node, reqGet, wireID{ID: id}, &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// UpdateAttrs routes an attribute merge to the owning leader.
func (rt *Router) UpdateAttrs(id, typ string, attrs map[string]ngsi.Attribute) error {
	node := rt.owner(id)
	if node == rt.node.id {
		return rt.node.UpdateAttrs(id, typ, attrs)
	}
	return rt.call(node, reqUpdateAttrs, wireUpdate{ID: id, Type: typ, Attrs: attrs}, nil)
}

// DeleteEntity routes a delete to the owning leader.
func (rt *Router) DeleteEntity(id string) error {
	node := rt.owner(id)
	if node == rt.node.id {
		return rt.node.DeleteEntity(id)
	}
	return rt.call(node, reqDelete, wireID{ID: id}, nil)
}

// BatchUpdate splits a batch by owning leader and applies the slices
// concurrently. Per-entity atomicity holds (an entity is in exactly one
// slice); cross-entity atomicity across nodes does not, matching the
// broker's own per-shard semantics.
func (rt *Router) BatchUpdate(updates map[string]ngsi.BatchEntry) error {
	slices := make(map[string]map[string]ngsi.BatchEntry)
	for id, e := range updates {
		node := rt.owner(id)
		if slices[node] == nil {
			slices[node] = make(map[string]ngsi.BatchEntry)
		}
		slices[node][id] = e
	}
	return rt.fanOut(len(slices), func(errs chan<- error) {
		for node, slice := range slices {
			go func(node string, slice map[string]ngsi.BatchEntry) {
				if node == rt.node.id {
					errs <- rt.node.BatchUpdate(slice)
					return
				}
				errs <- rt.call(node, reqBatchUpdate, wireBatch{Updates: slice}, nil)
			}(node, slice)
		}
	})
}

// AppendBatch splits telemetry by owning leader. Returns the summed
// accepted/rejected counts; the first error aborts the report.
func (rt *Router) AppendBatch(batch []timeseries.BatchPoint) (accepted, rejected int, err error) {
	slices := make(map[string][]timeseries.BatchPoint)
	for _, bp := range batch {
		node := rt.owner(bp.Key.Device)
		slices[node] = append(slices[node], bp)
	}
	var mu sync.Mutex
	err = rt.fanOut(len(slices), func(errs chan<- error) {
		for node, slice := range slices {
			go func(node string, slice []timeseries.BatchPoint) {
				var acc, rej int
				var e error
				if node == rt.node.id {
					acc, rej, e = rt.node.AppendBatch(slice)
				} else {
					var res wireAppendResult
					e = rt.call(node, reqAppend, wireAppend{Points: slice}, &res)
					acc, rej = res.Accepted, res.Rejected
				}
				mu.Lock()
				accepted += acc
				rejected += rej
				mu.Unlock()
				errs <- e
			}(node, slice)
		}
	})
	return accepted, rejected, err
}

// fanOut runs n concurrent legs and returns the first error.
func (rt *Router) fanOut(n int, start func(errs chan<- error)) error {
	errs := make(chan error, n)
	start(errs)
	var first error
	for i := 0; i < n; i++ {
		if e := <-errs; e != nil && first == nil {
			first = e
		}
	}
	return first
}

// Query scatter-gathers an entity listing across every partition leader
// and merges: each leg runs the query over its own partitions with the
// global ordering and an offset+limit over-fetch, the merged set is
// re-sorted, and the global offset/limit window is cut. Counts are exact
// — partitions are disjoint, so leg totals sum.
func (rt *Router) Query(q ngsi.Query) (ngsi.QueryResult, error) {
	m := rt.node.m
	byLeader := make(map[string][]int)
	for p := 0; p < m.Partitions(); p++ {
		leader, _ := m.Leader(p)
		byLeader[leader] = append(byLeader[leader], p)
	}
	need := 0
	if q.Limit > 0 {
		need = q.Offset + q.Limit
	}
	wq := wireQuery{
		IDPattern:  q.IDPattern,
		Type:       q.Type,
		Conditions: q.Conditions,
		Attrs:      q.Attrs,
		OrderBy:    q.OrderBy,
		Limit:      need,
		Count:      q.Count,
	}

	type legResult struct {
		res wireQueryResult
		err error
	}
	results := make(chan legResult, len(byLeader))
	for leader, parts := range byLeader {
		go func(leader string, parts []int) {
			var lr legResult
			if leader == rt.node.id {
				res, err := rt.node.hooks.Context.Query(ngsi.Query{
					IDPattern:  q.IDPattern,
					Type:       q.Type,
					Conditions: q.Conditions,
					Attrs:      q.Attrs,
					OrderBy:    q.OrderBy,
					Limit:      need,
					Count:      q.Count,
					IDFilter:   rt.node.partFilter(parts),
				})
				lr = legResult{res: wireQueryResult{Entities: res.Entities, Total: res.Total}, err: err}
			} else {
				sub := wq
				sub.Parts = parts
				lr.err = rt.call(leader, reqQuery, sub, &lr.res)
			}
			results <- lr
		}(leader, parts)
	}

	// The local leg's entities are the broker's stored versions: merged,
	// ordered and cut below by pointer, never written.
	var all []*ngsi.Entity
	total := 0
	for range byLeader {
		lr := <-results
		if lr.err != nil {
			return ngsi.QueryResult{}, lr.err
		}
		all = append(all, lr.res.Entities...)
		if q.Count {
			total += lr.res.Total
		}
	}
	if q.OrderBy != "" {
		ngsi.SortEntities(all, q.OrderBy)
	}
	if q.Offset > 0 {
		if q.Offset >= len(all) {
			all = nil
		} else {
			all = all[q.Offset:]
		}
	}
	if q.Limit > 0 && len(all) > q.Limit {
		all = all[:q.Limit]
	}
	res := ngsi.QueryResult{Entities: all, Total: -1}
	if q.Count {
		res.Total = total
	}
	return res, nil
}

// Summary routes a series aggregate to the device's owning leader.
func (rt *Router) Summary(device, quantity string, from, to time.Time) (timeseries.Aggregate, error) {
	node := rt.owner(device)
	if node == rt.node.id {
		return rt.node.hooks.Store.Summarize(
			timeseries.SeriesKey{Device: device, Quantity: quantity}, from, to), nil
	}
	var agg timeseries.Aggregate
	err := rt.call(node, reqSummary,
		wireSeries{Device: device, Quantity: quantity, From: from, To: to}, &agg)
	return agg, err
}

// Windows routes a downsampled series read to the device's owning leader.
func (rt *Router) Windows(device, quantity string, from, to time.Time, window time.Duration) ([]timeseries.WindowAggregate, error) {
	node := rt.owner(device)
	if node == rt.node.id {
		return rt.node.hooks.Store.AggregateWindows(
			timeseries.SeriesKey{Device: device, Quantity: quantity}, from, to, window)
	}
	var out wireWindows
	err := rt.call(node, reqWindows,
		wireSeries{Device: device, Quantity: quantity, From: from, To: to, Window: window}, &out)
	return out.Windows, err
}
