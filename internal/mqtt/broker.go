package mqtt

import (
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/shardhash"
	"github.com/swamp-project/swamp/internal/tenant"
)

// AuthFunc authenticates a connecting client and returns an MQTT connect
// return code (ConnAccepted to admit). It is the hook the SWAMP security
// layer plugs into (device API keys, OAuth bearer passwords).
type AuthFunc func(clientID, username, password string) byte

// ACLFunc authorizes one topic operation. write=true means publish,
// write=false means subscribe. Returning false rejects the operation.
type ACLFunc func(clientID, topic string, write bool) bool

// BrokerConfig tunes broker behaviour. The zero value is usable.
type BrokerConfig struct {
	// Auth is consulted on CONNECT; nil admits everyone.
	Auth AuthFunc
	// ACL is consulted on PUBLISH and SUBSCRIBE; nil allows everything.
	ACL ACLFunc
	// TenantFunc resolves the connecting client to its tenant, once, at
	// CONNECT time (after Auth accepts). nil, or returning tenant.None,
	// marks the session as internal platform traffic — never admitted
	// against a quota.
	TenantFunc func(clientID, username string) tenant.ID
	// Admission is the shared per-tenant admission controller. nil (or
	// disabled) admits everything; when set, CONNECT, PUBLISH and
	// SUBSCRIBE are charged against the session tenant's quotas.
	Admission *tenant.Admission
	// SessionQueueLen bounds each session's outbound queue in packets
	// (default 256). A QoS 0 delivery that meets a full queue sheds the
	// oldest queued QoS 0 delivery; QoS 1 deliveries queue while fewer than
	// 4× this many await a PUBACK. Either way only that session degrades.
	// It also bounds the control queue, past which the session's reader
	// waits.
	SessionQueueLen int
	// Clock drives keepalive and Tap timestamps (nil → wall clock).
	Clock clock.Clock
	// Metrics receives broker counters; nil allocates a private registry.
	Metrics *metrics.Registry
	// Logf receives diagnostics; nil means log.Printf.
	Logf func(format string, args ...any)
}

// DefaultSessionQueueLen is the per-session outbound queue bound.
const DefaultSessionQueueLen = 256

// keepaliveTick is how often a session's keepalive watchdog looks at it.
const keepaliveTick = time.Second

// DefaultRetainedShards is the retained-store shard count.
const DefaultRetainedShards = 8

// DefaultFlushWatermark is the byte threshold at which the session writer
// flushes its connection mid-batch. The writer always flushes once
// its queue drains empty, so the watermark only bounds latency under
// sustained backlog.
const DefaultFlushWatermark = 8 << 10

// DefaultRouteCacheSize caps the concrete-topic route cache. The cache is
// reset wholesale when it fills, which is fine for the telemetry workload
// it exists for: a device's topics repeat for its lifetime.
const DefaultRouteCacheSize = 4096

// Broker is an MQTT 3.1.1-subset message broker. Construct with NewBroker;
// attach clients with Serve (TCP) or AttachConn (any connection, such as one
// end of a net.Pipe), and in-process consumers with AttachLocal.
//
// Concurrency: the subscription trie is an immutable copy-on-write structure
// behind an atomic.Pointer — route() reads it lock-free; mutations
// (SUBSCRIBE/UNSUBSCRIBE/disconnect) are serialized by subMu, publish a new
// root, then bump subEpoch. Resolved routes for concrete topics are cached
// and tagged with the epoch captured before the match, so a cached route is
// served only while no mutation has intervened — never stale. Fan-out is
// asynchronous and encode-once: the PUBLISH frame is encoded into a shared
// refcounted buffer and enqueued onto each subscriber's bounded queue; a
// dedicated writer goroutine per session drains the whole queue per wakeup
// into one buffered flush, so a slow or dead subscriber degrades only
// itself and N queued packets cost one syscall instead of N.
type Broker struct {
	cfg BrokerConfig
	reg *metrics.Registry
	clk clock.Clock

	sessMu   sync.RWMutex
	sessions map[string]*session
	locals   map[string]*localSub // in-process attachments, by reserved client id
	closed   bool

	subMu    sync.Mutex // serializes trie mutations; readers never take it
	subs     atomic.Pointer[subTree]
	subEpoch atomic.Uint64

	rcMu       sync.Mutex // serializes route-cache map replacement
	routeCache atomic.Pointer[routeMap]

	retained []*retainedShard

	wg   sync.WaitGroup
	done chan struct{}

	// Hot-path counters, resolved once: the northbound bridge pushes every
	// sensor reading through publish/deliver, so per-message registry map
	// lookups add up.
	cPubIn, cPubDenied, cDeliverOut, cDeliverErr *metrics.Counter
	cQueueDropped, cFlushes, cFlushedPkts        *metrics.Counter
	cRouteMiss, cPubThrottled, cQuotaDisc        *metrics.Counter
	gQueueDepth                                  *metrics.Gauge
	// lastQuotaLog rate-limits the quota-disconnect log line (unix nanos
	// of the last emission).
	lastQuotaLog atomic.Int64

	// Tap, if set, observes every PUBLISH routed by the broker. The anomaly
	// detection layer uses it as its traffic feed. Must be set before
	// clients attach. The callback must not block.
	Tap func(clientID, topic string, payload []byte, at time.Time)
}

// routeMap is the route cache: concrete topic → cached resolution. The map
// itself is copy-on-write (replaced only when a new topic is inserted, under
// rcMu); each entry's resolution swaps independently through an inner
// atomic.Pointer so epoch invalidation rebuilds one route without copying
// the map.
type routeMap map[string]*routeEntry

type routeEntry struct {
	v atomic.Pointer[routeTargets]
}

// routeTargets is one resolved fan-out: the sessions and local attachments
// subscribed to a topic at the moment epoch was observed.
type routeTargets struct {
	epoch   uint64
	targets []routeTarget
	locals  []*localSub
}

type routeTarget struct {
	s   *session
	qos byte // granted subscription QoS
}

// localSub is one in-process attachment (AttachLocal).
type localSub struct {
	h Handler
	// gate is held shared around every handler call and exclusively by
	// detach, which so returns once no call is in flight and none can start.
	gate sync.RWMutex
	gone bool
}

func (l *localSub) deliver(m Message) {
	l.gate.RLock()
	if !l.gone {
		l.h(m)
	}
	l.gate.RUnlock()
}

type retainedMsg struct {
	payload []byte
	qos     byte
}

// retainedShard is one lock's worth of the retained-message store.
type retainedShard struct {
	mu sync.RWMutex
	m  map[string]retainedMsg
}

// NewBroker constructs a broker ready to accept connections.
func NewBroker(cfg BrokerConfig) *Broker {
	if cfg.SessionQueueLen <= 0 {
		cfg.SessionQueueLen = DefaultSessionQueueLen
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	shards := make([]*retainedShard, DefaultRetainedShards)
	for i := range shards {
		shards[i] = &retainedShard{m: make(map[string]retainedMsg)}
	}
	b := &Broker{
		cfg:      cfg,
		reg:      cfg.Metrics,
		clk:      cfg.Clock,
		sessions: make(map[string]*session),
		locals:   make(map[string]*localSub),
		retained: shards,
		done:     make(chan struct{}),

		cPubIn:        cfg.Metrics.Counter("mqtt.publish.in"),
		cPubDenied:    cfg.Metrics.Counter("mqtt.publish.denied"),
		cDeliverOut:   cfg.Metrics.Counter("mqtt.deliver.out"),
		cDeliverErr:   cfg.Metrics.Counter("mqtt.deliver.err"),
		cQueueDropped: cfg.Metrics.Counter("mqtt.queue.dropped"),
		cFlushes:      cfg.Metrics.Counter("mqtt.writer.flushes"),
		cFlushedPkts:  cfg.Metrics.Counter("mqtt.writer.flushed_packets"),
		cRouteMiss:    cfg.Metrics.Counter("mqtt.route.cache_miss"),
		cPubThrottled: cfg.Metrics.Counter("mqtt.publish.throttled"),
		cQuotaDisc:    cfg.Metrics.Counter("mqtt.quota.disconnects"),
		gQueueDepth:   cfg.Metrics.Gauge("mqtt.queue.depth"),
	}
	b.subs.Store(newSubTree())
	return b
}

// Metrics returns the broker's metrics registry.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }

// retainedFor returns the retained shard owning topic.
func (b *Broker) retainedFor(topic string) *retainedShard {
	return b.retained[shardhash.Index(len(b.retained), topic)]
}

// Serve accepts TCP connections on ln until the broker is closed or the
// listener fails. It blocks; run it in a goroutine.
func (b *Broker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-b.done:
				return nil
			default:
				return fmt.Errorf("mqtt broker: accept: %w", err)
			}
		}
		b.AttachConn(conn)
	}
}

// AttachConn hands a connected client to the broker, which serves it on its
// own goroutine until disconnect.
func (b *Broker) AttachConn(conn net.Conn) {
	b.sessMu.Lock()
	if b.closed {
		b.sessMu.Unlock()
		conn.Close()
		return
	}
	b.wg.Add(1)
	b.sessMu.Unlock()
	go func() {
		defer b.wg.Done()
		b.serveConn(newStream(conn))
	}()
}

// Close disconnects every client and waits for connection goroutines.
func (b *Broker) Close() {
	b.sessMu.Lock()
	if b.closed {
		b.sessMu.Unlock()
		return
	}
	b.closed = true
	sessions := make([]*session, 0, len(b.sessions))
	for _, s := range b.sessions {
		sessions = append(sessions, s)
	}
	b.sessMu.Unlock()
	close(b.done)
	for _, s := range sessions {
		s.close()
	}
	b.wg.Wait()
}

// SessionCount returns the number of connected clients.
func (b *Broker) SessionCount() int {
	b.sessMu.RLock()
	defer b.sessMu.RUnlock()
	return len(b.sessions)
}

// RetainedCount returns the number of retained topics.
func (b *Broker) RetainedCount() int {
	n := 0
	for _, sh := range b.retained {
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// session is one connected client.
type session struct {
	id     string
	conn   *stream
	broker *Broker

	// tenant is resolved once at CONNECT and is immutable afterwards.
	// tenant.None marks internal platform sessions, exempt from admission.
	tenant tenant.ID
	// tenantSubs counts the subscription-quota slots this session holds,
	// so close() can return exactly what was reserved.
	tenantSubs atomic.Int64

	// qcap is the session's queue bound (BrokerConfig.SessionQueueLen).
	qcap int

	mu sync.Mutex
	// pending holds the packet ids of QoS 1 deliveries not yet PUBACKed,
	// queued or on the wire, so no id is reused while in flight.
	pending map[uint16]struct{}
	// outq is the ring of queued deliveries in routing order, drained by
	// the writer. It is allocated at qcap on first use and grows only when
	// QoS 1 deliveries take the queue past its bound.
	outq            []outMsg
	outHead, outLen int
	ctlq            []*Packet // control acks, drained ahead of outq
	ctlAlt          []*Packet // writer's drained ctl slice, swapped back in
	ctlRoom         sync.Cond // on mu: the writer took the control queue, or the session closed
	nextID          uint16
	lastSeen        time.Time
	keep            time.Duration
	closedFl        bool

	wbatch []outMsg // writer-owned drain scratch, reused across wakeups

	notify chan struct{} // cap 1: wakes the writer when work is queued
	done   chan struct{}
}

// outMsg is one queued delivery: a shared encoded frame, of which the queue
// holds its own reference.
type outMsg struct {
	f   *Frame
	pid uint16
	qos byte
}

// pushLocked appends m behind everything queued, growing the ring when it
// is full.
func (s *session) pushLocked(m outMsg) {
	if s.outLen == len(s.outq) {
		q := make([]outMsg, max(s.qcap, 2*len(s.outq)))
		for i := range s.outLen {
			q[i] = s.outq[(s.outHead+i)%len(s.outq)]
		}
		s.outq, s.outHead = q, 0
	}
	s.outq[(s.outHead+s.outLen)%len(s.outq)] = m
	s.outLen++
}

// dropOldestQoS0Locked removes the oldest queued QoS 0 delivery, moving the
// QoS 1 deliveries ahead of it up one slot so the queue keeps its order,
// and returns its frame: nil when only QoS 1 deliveries are queued.
func (s *session) dropOldestQoS0Locked() *Frame {
	n := len(s.outq)
	for i := range s.outLen {
		j := (s.outHead + i) % n
		if s.outq[j].qos != 0 {
			continue
		}
		f := s.outq[j].f
		for ; j != s.outHead; j = (j - 1 + n) % n {
			s.outq[j] = s.outq[(j-1+n)%n]
		}
		s.popLocked()
		return f
	}
	return nil
}

// popLocked removes and returns the oldest ring entry.
func (s *session) popLocked() outMsg {
	m := s.outq[s.outHead]
	s.outq[s.outHead] = outMsg{}
	s.outHead = (s.outHead + 1) % len(s.outq)
	s.outLen--
	return m
}

func (s *session) close() {
	s.mu.Lock()
	if s.closedFl {
		s.mu.Unlock()
		return
	}
	s.closedFl = true
	dropped := s.outLen
	var frames []*Frame
	for s.outLen > 0 {
		frames = append(frames, s.popLocked().f)
	}
	s.ctlq = nil
	s.ctlRoom.Broadcast()
	s.mu.Unlock()
	if dropped > 0 {
		s.broker.gQueueDepth.Add(-float64(dropped))
	}
	for _, f := range frames {
		f.release()
	}
	// Return every subscription-quota slot the session still holds; the
	// Swap makes a takeover + dropSession pair release exactly once.
	for n := s.tenantSubs.Swap(0); n > 0; n-- {
		s.broker.cfg.Admission.ReleaseSubscription(s.tenant)
	}
	close(s.done)
	s.conn.close()
}

func (s *session) touch() {
	now := s.broker.clk.Now()
	s.mu.Lock()
	s.lastSeen = now
	s.mu.Unlock()
}

func (b *Broker) serveConn(t *stream) {
	// First packet must be CONNECT.
	first, err := t.readPacket()
	if err != nil {
		t.close()
		return
	}
	if first.Type != CONNECT {
		b.cfg.Logf("mqtt broker: %v: first packet %v, want CONNECT", t.conn.RemoteAddr(), first.Type)
		t.close()
		return
	}
	if first.ClientID == "" {
		_ = t.writePacket(&Packet{Type: CONNACK, ReturnCode: ConnRefusedIdentifier})
		t.close()
		return
	}
	if b.cfg.Auth != nil {
		if code := b.cfg.Auth(first.ClientID, first.Username, first.Password); code != ConnAccepted {
			b.reg.Counter("mqtt.connect.refused").Inc()
			_ = t.writePacket(&Packet{Type: CONNACK, ReturnCode: code})
			t.close()
			return
		}
	}
	var tid tenant.ID
	if b.cfg.TenantFunc != nil {
		tid = b.cfg.TenantFunc(first.ClientID, first.Username)
	}
	// The quota gate is the last CONNECT check: a suspended or deeply
	// indebted tenant is refused at the door rather than admitted into a
	// session every publish of which would be shed.
	if !b.cfg.Admission.AdmitConnect(tid) {
		b.reg.Counter("mqtt.connect.quota_refused").Inc()
		_ = t.writePacket(&Packet{Type: CONNACK, ReturnCode: ConnRefusedQuota})
		t.close()
		return
	}

	s := &session{
		id:       first.ClientID,
		tenant:   tid,
		conn:     t,
		broker:   b,
		qcap:     b.cfg.SessionQueueLen,
		pending:  make(map[uint16]struct{}),
		lastSeen: b.clk.Now(),
		keep:     time.Duration(first.KeepAliveSec) * time.Second,
		notify:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	s.ctlRoom.L = &s.mu

	// Session takeover: a reconnect with the same client id displaces the
	// old connection (3.1.1 §3.1.4). Displace + strip subscriptions +
	// install must be atomic under sessMu: publishing the new session
	// before the old one's subscriptions are removed would let a racing
	// route() deliver the old session's topics to the new connection, and a
	// delayed removal would strip subscriptions the new client has
	// already re-established. Nesting subMu inside sessMu is safe — no
	// path acquires them in the opposite nesting.
	b.sessMu.Lock()
	if b.closed {
		b.sessMu.Unlock()
		t.close()
		return
	}
	if b.locals[s.id] != nil {
		// The id is an in-process attachment's: no takeover, no sharing.
		b.sessMu.Unlock()
		b.reg.Counter("mqtt.connect.refused").Inc()
		_ = t.writePacket(&Packet{Type: CONNACK, ReturnCode: ConnRefusedIdentifier})
		t.close()
		return
	}
	if old := b.sessions[s.id]; old != nil {
		old.close()
		b.stripSubscriptions(s.id)
	}
	b.sessions[s.id] = s
	b.sessMu.Unlock()

	// CONNACK is written before the writer goroutine exists, so the
	// single-writer-per-connection rule holds from the first data packet on.
	if err := t.writePacket(&Packet{Type: CONNACK, ReturnCode: ConnAccepted}); err != nil {
		b.dropSession(s)
		return
	}
	b.reg.Counter("mqtt.connect.accepted").Inc()

	// Dedicated writer: drains the outbound queue. The keepalive watchdog
	// is a separate goroutine on purpose: a dead TCP peer can wedge the
	// writer inside a blocking write forever, and only an independent
	// watchdog can then drop the session (closing the connection unblocks
	// the writer).
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.sessionWriter(s)
	}()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.keepaliveWatchdog(s)
	}()

	for {
		pkt, err := t.readPacket()
		if err != nil {
			break
		}
		s.touch()
		if stop := b.handlePacket(s, pkt); stop {
			break
		}
	}
	b.dropSession(s)
}

// stripSubscriptions removes every subscription of clientID from the trie,
// bumping the epoch if anything changed. Callers hold whatever outer locks
// they need; subMu only serializes the trie swap itself.
func (b *Broker) stripSubscriptions(clientID string) {
	b.subMu.Lock()
	if nr, changed := b.subs.Load().withoutClient(clientID); changed {
		b.subs.Store(nr)
		b.subEpoch.Add(1)
	}
	b.subMu.Unlock()
}

// handlePacket processes one inbound packet; it reports whether the session
// should end. Control responses (PUBACK/SUBACK/UNSUBACK/PINGRESP) are routed
// through the session's control queue rather than written here: the session
// writer goroutine is the only writer of the connection.
func (b *Broker) handlePacket(s *session, pkt *Packet) (stop bool) {
	switch pkt.Type {
	case PUBLISH:
		return b.handlePublish(s, pkt)
	case PUBACK:
		s.mu.Lock()
		delete(s.pending, pkt.PacketID)
		s.mu.Unlock()
	case SUBSCRIBE:
		b.handleSubscribe(s, pkt)
	case UNSUBSCRIBE:
		b.handleUnsubscribe(s, pkt)
	case PINGREQ:
		b.enqueueCtl(s, &Packet{Type: PINGRESP})
	case DISCONNECT:
		return true
	default:
		b.cfg.Logf("mqtt broker: %s sent unexpected %v", s.id, pkt.Type)
		return true
	}
	return false
}

// handlePublish processes one inbound PUBLISH; it reports whether the
// session should end (the disconnect rung of the tenant shed ladder).
func (b *Broker) handlePublish(s *session, pkt *Packet) (stop bool) {
	if err := ValidateTopicName(pkt.Topic); err != nil {
		b.cfg.Logf("mqtt broker: %s: %v", s.id, err)
		return false
	}
	if b.cfg.ACL != nil && !b.cfg.ACL(s.id, pkt.Topic, true) {
		b.cPubDenied.Inc()
		return false
	}
	// Tenant admission walks the shed ladder before any routing work —
	// a refused message costs the platform nothing but this switch.
	switch d := b.cfg.Admission.Admit(s.tenant, int64(len(pkt.Payload))); d.Action {
	case tenant.ActAllow:
		// Pacing: a tenant in debt has this reader wait until its bucket
		// is back at zero (≤ 1 s) before the PUBACK and the routing, so
		// TCP flow control slows the device; every PUBACK stands for a
		// routed message.
		// Close ends the session, and with it the wait.
		if !b.cfg.Admission.Pace(d, s.done) {
			return true
		}
	case tenant.ActRejected:
		// Reject rung: drop without PUBACK. A QoS 1 publisher's ack
		// timeout (the client's ErrAckTimeout) is the honest backpressure
		// signal here — nothing was acknowledged, so nothing acked is lost.
		b.cPubThrottled.Inc()
		return false
	case tenant.ActDisconnected:
		// Last rung: the tenant kept hammering through a full reject
		// window, so the session itself goes. The log line is sampled to
		// one per second — a reconnect-hammering tenant must not be able
		// to spam the operator log; mqtt.quota.disconnects counts every
		// occurrence.
		b.cPubThrottled.Inc()
		b.cQuotaDisc.Inc()
		if now := b.clk.Now().UnixNano(); now-b.lastQuotaLog.Load() > int64(time.Second) {
			b.lastQuotaLog.Store(now)
			b.cfg.Logf("mqtt broker: %s (tenant %s): disconnected for sustained quota overrun", s.id, s.tenant)
		}
		return true
	}
	b.cPubIn.Inc()
	if pkt.QoS == 1 {
		b.enqueueCtl(s, &Packet{Type: PUBACK, PacketID: pkt.PacketID})
	}
	if pkt.Retain {
		b.storeRetained(pkt.Topic, pkt.Payload, pkt.QoS)
	}
	if tap := b.Tap; tap != nil {
		tap(s.id, pkt.Topic, pkt.Payload, b.clk.Now())
	}
	b.routePublish(pkt.Topic, pkt.Payload, pkt.QoS)
	return false
}

// storeRetained updates the retained store for topic; an empty payload
// clears it (3.1.1 §3.3.1.3).
func (b *Broker) storeRetained(topic string, payload []byte, qos byte) {
	sh := b.retainedFor(topic)
	sh.mu.Lock()
	if len(payload) == 0 {
		delete(sh.m, topic)
	} else {
		sh.m[topic] = retainedMsg{payload: payload, qos: qos}
	}
	sh.mu.Unlock()
}

// routePublish fans a publish out to matching subscribers. Towards network
// sessions it only matches and enqueues — it never writes to a connection, so
// a stalled subscriber cannot block the publisher's read goroutine. Local
// attachments run last, inline, and may block it on purpose (AttachLocal).
//
// The hot path takes no locks and, at steady state, performs no heap
// allocations: the subscription trie is read through an atomic pointer, the
// resolved route comes from the epoch-validated cache, and the PUBLISH frame
// is encoded once into a pooled refcounted buffer shared by every session
// target — and not at all when only local attachments match.
func (b *Broker) routePublish(topic string, payload []byte, qos byte) {
	// Epoch before match: if a mutation lands between these two loads the
	// entry is tagged with the older epoch and the next publish rebuilds.
	// A cached entry is served only while its tag equals the current epoch,
	// so a stale route can never be served.
	epoch := b.subEpoch.Load()
	var rt *routeTargets
	var re *routeEntry
	if mp := b.routeCache.Load(); mp != nil {
		if e := (*mp)[topic]; e != nil {
			re = e
			if v := e.v.Load(); v != nil && v.epoch == epoch {
				rt = v
			}
		}
	}
	if rt == nil {
		rt = b.buildRoute(topic, epoch, re)
	}
	// Encode at most twice — QoS 0 and QoS 1 wire layouts differ by the
	// 2-byte PacketID — and share each frame across all its targets.
	var f0, f1 *Frame
	for _, tg := range rt.targets {
		q := qos
		if tg.qos < q {
			q = tg.qos
		}
		if q == 0 {
			if f0 == nil {
				f0 = newPublishFrame(topic, payload, 0, false)
			}
			b.enqueueMsg(tg.s, f0, 0)
		} else {
			if f1 == nil {
				f1 = newPublishFrame(topic, payload, 1, false)
			}
			b.enqueueMsg(tg.s, f1, 1)
		}
	}
	if f0 != nil {
		f0.release()
	}
	if f1 != nil {
		f1.release()
	}
	for _, l := range rt.locals {
		l.deliver(Message{Topic: topic, Payload: payload, QoS: qos})
	}
}

// buildRoute resolves topic against the current trie and installs the result
// in the route cache tagged with epoch (which the caller loaded before any
// matching — see routePublish).
func (b *Broker) buildRoute(topic string, epoch uint64, re *routeEntry) *routeTargets {
	sc := matchScratchPool.Get().(*matchScratch)
	ms, nodes := b.subs.Load().matchInto(topic, sc.buf[:0])
	if nodes > 1 {
		ms = dedupMatches(ms)
	}
	rt := &routeTargets{epoch: epoch}
	if len(ms) > 0 {
		rt.targets = make([]routeTarget, 0, len(ms))
		b.sessMu.RLock()
		for _, m := range ms {
			if sess := b.sessions[m.id]; sess != nil {
				rt.targets = append(rt.targets, routeTarget{s: sess, qos: m.qos})
			} else if l := b.locals[m.id]; l != nil {
				rt.locals = append(rt.locals, l)
			}
		}
		b.sessMu.RUnlock()
	}
	sc.buf = ms[:0]
	matchScratchPool.Put(sc)
	b.cRouteMiss.Inc()
	b.storeRoute(topic, re, rt)
	return rt
}

// storeRoute publishes a freshly built route. When the topic already has an
// entry only the inner pointer swaps; inserting a new topic copies the map
// (rare: once per topic, amortized over the device's lifetime). At capacity
// the cache is reset wholesale rather than evicting piecemeal.
func (b *Broker) storeRoute(topic string, re *routeEntry, rt *routeTargets) {
	if re != nil {
		re.v.Store(rt)
		return
	}
	b.rcMu.Lock()
	mp := b.routeCache.Load()
	if mp != nil {
		if e := (*mp)[topic]; e != nil {
			// Another publisher inserted the topic while we built.
			e.v.Store(rt)
			b.rcMu.Unlock()
			return
		}
	}
	var nm routeMap
	switch {
	case mp == nil || len(*mp) >= DefaultRouteCacheSize:
		nm = make(routeMap, 64)
	default:
		nm = make(routeMap, len(*mp)+1)
		for k, v := range *mp {
			nm[k] = v
		}
	}
	e := &routeEntry{}
	e.v.Store(rt)
	nm[topic] = e
	b.routeCache.Store(&nm)
	b.rcMu.Unlock()
}

// enqueueMsg places a delivery of the shared frame f on s's outbound queue,
// behind every delivery routed to s before it: nothing is set aside and sent
// later, so each topic reaches s in routing order. Overflow policy, per QoS:
// a QoS 0 delivery that meets the queue at its bound sheds the oldest queued
// QoS 0 delivery (fresh field state matters more than stale history — the
// same call the fog queue makes), or itself when only QoS 1 is queued; a
// QoS 1 delivery queues, past the bound if need be, while fewer than 4× the
// bound await a PUBACK, and is shed beyond that. Each shed counts in
// mqtt.queue.dropped, and only this session degrades.
func (b *Broker) enqueueMsg(s *session, f *Frame, qos byte) {
	s.mu.Lock()
	if s.closedFl {
		s.mu.Unlock()
		return
	}
	full := s.outLen >= s.qcap
	var pid uint16
	var shed *Frame
	switch {
	case qos == 1 && len(s.pending) >= 4*s.qcap:
		shed = f
	case qos == 1:
		pid = s.allocPacketIDLocked()
		s.pending[pid] = struct{}{}
	case full:
		if shed = s.dropOldestQoS0Locked(); shed == nil {
			shed = f
		}
	}
	if shed != f {
		f.ref()
		s.pushLocked(outMsg{f: f, pid: pid, qos: qos})
	}
	s.mu.Unlock()

	switch {
	case shed == nil:
		b.gQueueDepth.Add(1)
	case shed != f:
		shed.release()
	}
	if shed != nil {
		b.cQueueDropped.Inc()
	}
	if full {
		// The writer is behind, and on a single-P runtime a hot publish
		// pipeline's channel handoffs can keep a runnable writer off the
		// CPU indefinitely. Yield so it can drain before the next
		// delivery meets a full queue too.
		runtime.Gosched()
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// enqueueCtl queues a control response (PUBACK, SUBACK, UNSUBACK, PINGRESP)
// for the session writer, which drains control packets ahead of data. This
// keeps exactly one goroutine writing each connection. Only the session's
// reader calls it, so a full control queue stops the reader — and with it
// the socket — until the writer takes the queue or the session ends: no
// response is ever dropped.
func (b *Broker) enqueueCtl(s *session, pkt *Packet) {
	s.mu.Lock()
	for !s.closedFl && len(s.ctlq) >= s.qcap {
		s.ctlRoom.Wait()
	}
	if s.closedFl {
		s.mu.Unlock()
		return
	}
	s.ctlq = append(s.ctlq, pkt)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// sessionWriter is the per-session writer goroutine: it drains the outbound
// queue on every wakeup, so the only contention on session.mu is the short
// enqueue/pop critical section.
func (b *Broker) sessionWriter(s *session) {
	for {
		select {
		case <-s.done:
			return
		case <-b.done:
			return
		case <-s.notify:
			if !b.drainQueue(s) {
				b.dropSession(s)
				return
			}
		}
	}
}

// releaseBatch releases the frame references batch holds and zeroes the
// entries.
func releaseBatch(batch []outMsg) {
	for i := range batch {
		batch[i].f.release()
		batch[i] = outMsg{}
	}
}

// drainQueue writes everything queued on s — control packets first, then the
// data ring — batching pops so the lock is held only to swap slices, and
// coalescing the whole drain, control packets included, into buffered writes
// flushed at queue-empty or the byte watermark. It reports false on a write
// error.
func (b *Broker) drainQueue(s *session) bool {
	unflushed, bytes := 0, 0 // packets and bytes written since the last flush
	// flush pushes what is buffered out; mqtt.writer.* count exactly these.
	flush := func() bool {
		if err := s.conn.flush(); err != nil {
			b.cDeliverErr.Inc()
			return false
		}
		b.cFlushes.Inc()
		b.cFlushedPkts.Add(uint64(unflushed))
		unflushed, bytes = 0, 0
		return true
	}
	// wrote accounts for one packet written and flushes at the watermark.
	wrote := func(wire int) bool {
		unflushed++
		bytes += wire
		return bytes < DefaultFlushWatermark || flush()
	}
	for {
		s.mu.Lock()
		ctl := s.ctlq
		if len(ctl) > 0 {
			// Swap the drained slice for the previously drained one: the
			// reader appends only to s.ctlq under the lock, and drains are
			// sequential in this goroutine, so ctlAlt is free for reuse.
			s.ctlq = s.ctlAlt[:0]
			s.ctlAlt = ctl
			s.ctlRoom.Signal()
		}
		n := s.outLen
		batch := s.wbatch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, s.popLocked())
		}
		s.wbatch = batch
		s.mu.Unlock()
		if len(ctl) == 0 && len(batch) == 0 {
			break
		}
		if n > 0 {
			b.gQueueDepth.Add(-float64(n))
		}
		for i, pkt := range ctl {
			ctl[i] = nil
			if wire, err := s.conn.bufferPacket(pkt); err != nil || !wrote(wire) {
				releaseBatch(batch)
				return false
			}
		}
		for _, m := range batch {
			if err := s.conn.writeFrame(m.f, m.pid); err != nil {
				b.cDeliverErr.Inc()
				releaseBatch(batch)
				return false
			}
			b.cDeliverOut.Inc()
			if !wrote(m.f.wireLen()) {
				releaseBatch(batch)
				return false
			}
		}
		releaseBatch(batch)
	}
	// Queue drained empty: flush whatever the watermark left buffered so
	// tail latency is bounded by one wakeup, not by future traffic.
	return unflushed == 0 || flush()
}

// keepaliveWatchdog drops the session once it has been silent past 1.5×
// its keepalive (3.1.1 §3.1.2.10). Independent of the writer goroutine so
// a connection wedged mid-write still gets reaped — dropSession's close of
// the connection is what unblocks the stuck writer.
func (b *Broker) keepaliveWatchdog(s *session) {
	for {
		select {
		case <-s.done:
			return
		case <-b.done:
			return
		case now := <-b.clk.After(keepaliveTick):
			s.mu.Lock()
			expired := s.keep > 0 && now.Sub(s.lastSeen) > s.keep*3/2
			s.mu.Unlock()
			if expired {
				b.cfg.Logf("mqtt broker: %s keepalive expired", s.id)
				b.dropSession(s)
				return
			}
		}
	}
}

// allocPacketIDLocked returns the next free packet id; s.mu must be held.
func (s *session) allocPacketIDLocked() uint16 {
	for {
		s.nextID++
		if s.nextID == 0 {
			s.nextID = 1
		}
		if _, used := s.pending[s.nextID]; !used {
			return s.nextID
		}
	}
}

func (b *Broker) handleSubscribe(s *session, pkt *Packet) {
	granted := make([]byte, len(pkt.Filters))
	accepted := make([]Subscription, 0, len(pkt.Filters))
	for i, f := range pkt.Filters {
		qos := f.QoS
		if qos > 1 {
			qos = 1 // downgrade: broker supports QoS 0/1
		}
		if err := ValidateTopicFilter(f.Filter); err != nil {
			granted[i] = 0x80
			continue
		}
		if b.cfg.ACL != nil && !b.cfg.ACL(s.id, f.Filter, false) {
			b.reg.Counter("mqtt.subscribe.denied").Inc()
			granted[i] = 0x80
			continue
		}
		// Each accepted filter holds one of the tenant's subscription
		// slots until the session releases it (UNSUBSCRIBE or close). A
		// duplicate SUBSCRIBE to the same filter double-reserves until
		// close — a bounded over-count on a misbehaving client, never a
		// leak.
		if err := b.cfg.Admission.ReserveSubscription(s.tenant); err != nil {
			b.reg.Counter("mqtt.subscribe.quota_refused").Inc()
			granted[i] = 0x80
			continue
		}
		s.tenantSubs.Add(1)
		granted[i] = qos
		accepted = append(accepted, Subscription{Filter: f.Filter, QoS: qos})
	}

	if len(accepted) > 0 {
		b.subMu.Lock()
		root := b.subs.Load()
		for _, f := range accepted {
			root = root.withSub(f.Filter, s.id, f.QoS)
		}
		// Store the new root before bumping: a reader that observes the new
		// epoch must also observe the new tree, or a cache entry could be
		// tagged fresh while built from the old tree.
		b.subs.Store(root)
		b.subEpoch.Add(1)
		b.subMu.Unlock()
	}

	// Snapshot retained messages matching the new filters.
	type retRef struct {
		topic string
		msg   retainedMsg
		qos   byte
	}
	var rets []retRef
	if len(accepted) > 0 {
		for _, sh := range b.retained {
			sh.mu.RLock()
			for topic, msg := range sh.m {
				for _, f := range accepted {
					if MatchTopic(f.Filter, topic) {
						q := msg.qos
						if f.QoS < q {
							q = f.QoS
						}
						rets = append(rets, retRef{topic: topic, msg: msg, qos: q})
						break
					}
				}
			}
			sh.mu.RUnlock()
		}
	}

	// SUBACK rides the control queue, retained snapshots the data queue;
	// the writer drains control first, so within any drain cycle the SUBACK
	// precedes the retained deliveries it acknowledges.
	b.enqueueCtl(s, &Packet{Type: SUBACK, PacketID: pkt.PacketID, GrantedQoS: granted})
	for _, r := range rets {
		f := newPublishFrame(r.topic, r.msg.payload, r.qos, true)
		b.enqueueMsg(s, f, r.qos)
		f.release()
	}
	b.reg.Counter("mqtt.subscribe.ok").Add(uint64(len(accepted)))
}

func (b *Broker) handleUnsubscribe(s *session, pkt *Packet) {
	b.subMu.Lock()
	root := b.subs.Load()
	changed := false
	for _, f := range pkt.Filters {
		var removed bool
		root, removed = root.withoutSub(f.Filter, s.id)
		if removed && s.tenantSubs.Load() > 0 {
			s.tenantSubs.Add(-1)
			b.cfg.Admission.ReleaseSubscription(s.tenant)
		}
		changed = changed || removed
	}
	if changed {
		b.subs.Store(root)
		b.subEpoch.Add(1)
	}
	b.subMu.Unlock()
	b.enqueueCtl(s, &Packet{Type: UNSUBACK, PacketID: pkt.PacketID})
}

// dropSession removes s from the broker and closes its connection.
func (b *Broker) dropSession(s *session) {
	b.sessMu.Lock()
	owner := b.sessions[s.id] == s
	if owner {
		delete(b.sessions, s.id)
	}
	b.sessMu.Unlock()
	if owner {
		b.stripSubscriptions(s.id)
	}
	s.close()
}

// errBrokerClosed reported by operations on a closed broker.
var errBrokerClosed = errors.New("mqtt: broker closed")

// AttachLocal subscribes an in-process consumer to filter under clientID:
// the receiving half of InjectPublish. h runs inline on the publisher's
// goroutine — a connection's reader, or InjectPublish's caller — after the
// PUBACK and the network subscribers are queued, where Tap runs. There is no
// queue in between: h must not retain Message.Payload, and it may block,
// which back-pressures only the connection that published and never drops;
// a connection has one reader, so per-publisher order holds. Retained
// messages are not replayed. While attached, a CONNECT naming clientID is
// refused (ConnRefusedIdentifier). detach returns once no call of h is in
// flight; later publishes are routed without it.
func (b *Broker) AttachLocal(clientID, filter string, h Handler) (detach func(), err error) {
	if clientID == "" || h == nil {
		return nil, errors.New("mqtt: local attachment needs a client id and a handler")
	}
	if err := ValidateTopicFilter(filter); err != nil {
		return nil, err
	}
	b.sessMu.Lock()
	defer b.sessMu.Unlock()
	if b.closed {
		return nil, errBrokerClosed
	}
	if b.sessions[clientID] != nil || b.locals[clientID] != nil {
		return nil, fmt.Errorf("mqtt: client id %q is in use", clientID)
	}
	l := &localSub{h: h}
	b.locals[clientID] = l
	b.subMu.Lock() // nested under sessMu, as a takeover does
	b.subs.Store(b.subs.Load().withSub(filter, clientID, 1))
	b.subEpoch.Add(1)
	b.subMu.Unlock()
	return func() {
		b.sessMu.Lock()
		if b.locals[clientID] == l {
			delete(b.locals, clientID)
			b.stripSubscriptions(clientID)
		}
		b.sessMu.Unlock()
		l.gate.Lock()
		l.gone = true
		l.gate.Unlock()
	}, nil
}

// InjectPublish routes a message as if a client had published it. The fog
// node uses this to replay its store-and-forward queue into the cloud
// broker after a partition heals, and the IoT agent to send commands.
func (b *Broker) InjectPublish(clientID, topic string, payload []byte, qos byte, retain bool) error {
	b.sessMu.RLock()
	closed := b.closed
	b.sessMu.RUnlock()
	if closed {
		return errBrokerClosed
	}
	if err := ValidateTopicName(topic); err != nil {
		return err
	}
	if b.cfg.ACL != nil && !b.cfg.ACL(clientID, topic, true) {
		b.cPubDenied.Inc()
		return fmt.Errorf("mqtt: publish to %q denied for %s", topic, clientID)
	}
	if retain {
		b.storeRetained(topic, payload, qos)
	}
	if tap := b.Tap; tap != nil {
		tap(clientID, topic, payload, b.clk.Now())
	}
	b.cPubIn.Inc()
	b.routePublish(topic, payload, qos)
	return nil
}
