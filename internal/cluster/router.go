package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/httpapi"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// httpapi does not import the cluster plane; the contract is pinned here.
var _ httpapi.Backend = (*Router)(nil)

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

type wireAppended struct {
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

func (w wireSeries) key() timeseries.SeriesKey {
	return timeseries.SeriesKey{Device: w.Device, Quantity: w.Quantity}
}

// errKinds are the sentinels a msgResp's error kind names: kind k is
// errKinds[k-1], and zero names none. The kind crosses the wire so a
// routed failure keeps the sentinel the northbound maps to a status.
var errKinds = [...]error{ngsi.ErrNotFound, ngsi.ErrDurability, ngsi.ErrUnavailable}

func errKind(err error) byte {
	for i, s := range errKinds {
		if errors.Is(err, s) {
			return byte(i + 1)
		}
	}
	return 0
}

// remoteErr rebuilds a peer's failure: its text, and the sentinel its
// kind names.
func remoteErr(r respMsg) error {
	e := &kindError{msg: r.Err}
	if k := int(r.Kind); k > 0 && k <= len(errKinds) {
		e.kind = errKinds[k-1]
	}
	return e
}

// --- one function per request kind: the Router's local leg calls it,
// and handleReq calls it for a peer's request ---

func (n *Node) query(w wireQuery) (ngsi.QueryResult, error) {
	return n.cfg.Context.Query(ngsi.Query{
		IDPattern:  w.IDPattern,
		Type:       w.Type,
		Conditions: w.Conditions,
		Attrs:      w.Attrs,
		OrderBy:    w.OrderBy,
		Limit:      w.Limit,
		Offset:     w.Offset,
		Count:      w.Count,
		IDFilter:   n.partFilter(w.Parts),
	})
}

func (n *Node) getEntity(w wireID) (*ngsi.Entity, error) { return n.cfg.Context.GetEntity(w.ID) }

func (n *Node) updateAttrs(w wireUpdate) (struct{}, error) {
	return struct{}{}, n.UpdateAttrs(w.ID, w.Type, w.Attrs)
}

func (n *Node) batchUpdate(w wireBatch) (struct{}, error) {
	return struct{}{}, n.BatchUpdate(w.Updates)
}

func (n *Node) deleteEntity(w wireID) (struct{}, error) { return struct{}{}, n.DeleteEntity(w.ID) }

func (n *Node) appendBatch(w wireAppend) (wireAppended, error) {
	acc, rej, err := n.AppendBatch(w.Points)
	return wireAppended{Accepted: acc, Rejected: rej}, err
}

func (n *Node) summary(w wireSeries) (timeseries.Aggregate, error) {
	return n.cfg.Store.Summarize(w.key(), w.From, w.To), nil
}

func (n *Node) windows(w wireSeries) ([]timeseries.WindowAggregate, error) {
	return n.cfg.Store.AggregateWindows(w.key(), w.From, w.To, w.Window)
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
		resp.Kind, resp.Err = errKind(err), err.Error()
	}
	_ = c.Send(encodeResp(nil, resp))
}

func (n *Node) handleReq(kind byte, body []byte) ([]byte, error) {
	switch kind {
	case reqQuery:
		return serve(body, n.query)
	case reqGet:
		return serve(body, n.getEntity)
	case reqUpdateAttrs:
		return serve(body, n.updateAttrs)
	case reqBatchUpdate:
		return serve(body, n.batchUpdate)
	case reqDelete:
		return serve(body, n.deleteEntity)
	case reqAppend:
		return serve(body, n.appendBatch)
	case reqSummary:
		return serve(body, n.summary)
	case reqWindows:
		return serve(body, n.windows)
	}
	return nil, fmt.Errorf("cluster: unknown request kind %d", kind)
}

// serve decodes a request body, runs fn on it and encodes the result.
func serve[In, Out any](body []byte, fn func(In) (Out, error)) ([]byte, error) {
	var in In
	if err := json.Unmarshal(body, &in); err != nil {
		return nil, err
	}
	out, err := fn(in)
	if err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

// --- peer client (one multiplexed request connection per peer) ---

type peerClient struct {
	conn    Conn
	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan respMsg
	broken  atomic.Bool // set under mu when the read loop ends
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
	pc.broken.Store(true)
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
	if pc.broken.Load() {
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
		return unavailablef("cluster: send to peer: %v", err)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r, ok := <-ch:
		if !ok {
			return ErrConnClosed
		}
		if r.Err != "" {
			return remoteErr(r)
		}
		return json.Unmarshal(r.Body, out)
	case <-timer.C:
		pc.mu.Lock()
		delete(pc.waiting, id)
		pc.mu.Unlock()
		return unavailablef("cluster: request to peer timed out after %s", timeout)
	}
}

// Router is the cluster's Writer and northbound Backend: writes and point
// reads route to the owning partition leader, entity listings
// scatter-gather across every leader and merge with ordering, limit,
// offset and count preserved.
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
	if pc, ok := rt.pcs[node]; ok && !pc.broken.Load() {
		return pc, nil
	}
	if rt.node.cfg.Dial == nil {
		return nil, unavailablef("cluster: no dialer configured, cannot reach %s", node)
	}
	conn, err := rt.node.cfg.Dial(node)
	if err != nil {
		return nil, unavailablef("cluster: dial %s: %v", node, err)
	}
	pc := newPeerClient(conn)
	rt.pcs[node] = pc
	return pc, nil
}

// route serves one request on node: in-process through fn when that is
// this node, otherwise over the wire, where the peer's handleReq runs
// the same fn.
func route[In, Out any](rt *Router, node string, kind byte, in In, fn func(In) (Out, error)) (Out, error) {
	if node == rt.node.id {
		return fn(in)
	}
	var out Out
	pc, err := rt.peer(node)
	if err == nil {
		err = pc.call(kind, in, &out, rt.reqTimeout())
	}
	return out, err
}

func (rt *Router) owner(key string) string {
	leader, _ := rt.node.m.Leader(rt.node.m.PartitionOf(key))
	return leader
}

// GetEntity reads an entity from its owning leader.
func (rt *Router) GetEntity(id string) (*ngsi.Entity, error) {
	return route(rt, rt.owner(id), reqGet, wireID{ID: id}, rt.node.getEntity)
}

// UpdateAttrs routes an attribute merge to the owning leader.
func (rt *Router) UpdateAttrs(id, typ string, attrs map[string]ngsi.Attribute) error {
	_, err := route(rt, rt.owner(id), reqUpdateAttrs, wireUpdate{ID: id, Type: typ, Attrs: attrs}, rt.node.updateAttrs)
	return err
}

// DeleteEntity routes a delete to the owning leader.
func (rt *Router) DeleteEntity(id string) error {
	_, err := route(rt, rt.owner(id), reqDelete, wireID{ID: id}, rt.node.deleteEntity)
	return err
}

// scatter runs one routed call per node concurrently and returns every
// leg's result and the first error.
func scatter[In, Out any](rt *Router, legs map[string]In, kind byte, fn func(In) (Out, error)) ([]Out, error) {
	type result struct {
		out Out
		err error
	}
	results := make(chan result, len(legs))
	for node, in := range legs {
		go func() {
			out, err := route(rt, node, kind, in, fn)
			results <- result{out, err}
		}()
	}
	outs := make([]Out, 0, len(legs))
	var first error
	for range legs {
		r := <-results
		outs = append(outs, r.out)
		if r.err != nil && first == nil {
			first = r.err
		}
	}
	return outs, first
}

// BatchUpdate splits a batch by owning leader and applies the slices
// concurrently, returning the first error. Per-entity atomicity holds
// (an entity is in exactly one slice); cross-entity atomicity across
// nodes does not, matching the broker's own per-shard semantics.
func (rt *Router) BatchUpdate(updates map[string]ngsi.BatchEntry) error {
	legs := make(map[string]wireBatch)
	for id, e := range updates {
		node := rt.owner(id)
		if legs[node].Updates == nil {
			legs[node] = wireBatch{Updates: make(map[string]ngsi.BatchEntry)}
		}
		legs[node].Updates[id] = e
	}
	_, err := scatter(rt, legs, reqBatchUpdate, rt.node.batchUpdate)
	return err
}

// AppendBatch splits telemetry by device owner and appends the slices
// concurrently. A point the store would refuse is counted rejected here,
// as the store counts it, and never encoded (encoding/json refuses NaN).
// Each slice commits as one batch on its owner; slices on different
// owners succeed or fail apart. The counts sum the slices, and the first
// error is returned.
func (rt *Router) AppendBatch(batch []timeseries.BatchPoint) (accepted, rejected int, err error) {
	legs := make(map[string]wireAppend)
	for _, bp := range batch {
		if timeseries.ValidatePoint(bp.Key, bp.Point) != nil {
			rejected++
			continue
		}
		node := rt.owner(bp.Key.Device)
		legs[node] = wireAppend{Points: append(legs[node].Points, bp)}
	}
	res, err := scatter(rt, legs, reqAppend, rt.node.appendBatch)
	for _, r := range res {
		accepted += r.Accepted
		rejected += r.Rejected
	}
	return accepted, rejected, err
}

// Query scatter-gathers an entity listing across every partition leader
// and merges: each leg runs the query over its own partitions with the
// global ordering and an offset+limit over-fetch, the merged set is
// re-sorted, and the global offset/limit window is cut. Counts are exact
// — partitions are disjoint, so leg totals sum.
func (rt *Router) Query(q ngsi.Query) (ngsi.QueryResult, error) {
	need := 0
	if q.Limit > 0 {
		need = q.Offset + q.Limit
	}
	m := rt.node.m
	legs := make(map[string]wireQuery)
	for p := 0; p < m.Partitions(); p++ {
		leader, _ := m.Leader(p)
		leg, ok := legs[leader]
		if !ok {
			leg = wireQuery{
				IDPattern:  q.IDPattern,
				Type:       q.Type,
				Conditions: q.Conditions,
				Attrs:      q.Attrs,
				OrderBy:    q.OrderBy,
				Limit:      need,
				Count:      q.Count,
			}
		}
		leg.Parts = append(leg.Parts, p)
		legs[leader] = leg
	}
	legRes, err := scatter(rt, legs, reqQuery, rt.node.query)
	if err != nil {
		return ngsi.QueryResult{}, err
	}

	// The local leg's entities are the broker's stored versions: merged,
	// ordered and cut below by pointer, never written.
	var all []*ngsi.Entity
	total := 0
	for _, r := range legRes {
		all = append(all, r.Entities...)
		total += r.Total
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
	return route(rt, rt.owner(device), reqSummary,
		wireSeries{Device: device, Quantity: quantity, From: from, To: to}, rt.node.summary)
}

// Windows routes a downsampled series read to the device's owning leader.
func (rt *Router) Windows(device, quantity string, from, to time.Time, window time.Duration) ([]timeseries.WindowAggregate, error) {
	return route(rt, rt.owner(device), reqWindows,
		wireSeries{Device: device, Quantity: quantity, From: from, To: to, Window: window}, rt.node.windows)
}
