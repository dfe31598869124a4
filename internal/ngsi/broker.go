package ngsi

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/clock"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/shardhash"
	"github.com/swamp-project/swamp/internal/tenant"
)

// ErrNotFound is returned for lookups of unknown entities or subscriptions.
var ErrNotFound = errors.New("ngsi: not found")

// ErrUnavailable marks a request its backend could not serve right now:
// on a cluster, the owner was not the leader, was fenced, missed its
// replication acks, or could not be reached. The client should retry.
var ErrUnavailable = errors.New("ngsi: unavailable")

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = errors.New("ngsi: broker closed")

// Notification is what a subscriber receives: the subscription that fired
// and the entity as of the update, restricted to the requested attributes.
// Entity is a stored version (or a projection sharing its attribute values)
// and is read-only: a handler may retain it for as long as it likes, and
// must never write to it, its Attrs map or any Metadata map.
type Notification struct {
	SubscriptionID string
	Entity         *Entity
	// Changed names the attributes the write set. It is shared by every
	// notification of that write and must not be modified.
	Changed []string
	At      time.Time
}

// Handler consumes notifications. Handlers run on a shard's dispatch
// goroutine; they must not block for long.
type Handler func(Notification)

// Subscription describes the NGSI-v2 subject+notification contract:
// which entities, which attribute changes trigger, which attributes are
// delivered, and optional throttling.
type Subscription struct {
	ID string
	// EntityIDPattern selects entities: exact id, prefix with '*', or "*".
	EntityIDPattern string
	// EntityType, if non-empty, further restricts matching entities.
	EntityType string
	// ConditionAttrs lists the attributes whose change fires the
	// subscription; empty means any attribute change.
	ConditionAttrs []string
	// NotifyAttrs restricts the attributes included in notifications;
	// empty means all.
	NotifyAttrs []string
	// Throttling suppresses notifications closer together than this,
	// tracked per entity.
	Throttling time.Duration
	// Notifier receives the notifications. Required. In-process
	// consumers wrap a function with Callback; WebhookPool.Subscribe
	// builds a webhook subscription's from its URL.
	Notifier Notifier
	// URL is a webhook subscription's callback URL. It makes the
	// subscription durable: the broker journals a subscription exactly
	// when URL is non-empty. In-process subscriptions leave it empty;
	// they are platform wiring re-created on startup.
	URL string
	// Owner is the tenant that created the subscription; the HTTP API
	// scopes visibility and deletion to it, and the admission plane
	// charges webhook budgets against it. tenant.None for internal
	// wiring.
	Owner tenant.ID
}

// BrokerConfig configures the context broker.
type BrokerConfig struct {
	// Clock drives throttling decisions; nil means the wall clock.
	Clock clock.Clock
	// Metrics receives broker counters; nil allocates a private registry.
	Metrics *metrics.Registry
	// Shards is the number of hash-sharded entity stores, each with its own
	// lock and dispatch worker (default 8). Upserts on entities in
	// different shards never contend.
	Shards int
}

// DefaultShards is the shard count used when BrokerConfig.Shards is zero.
const DefaultShards = 8

// notifyQueueLen bounds each shard's notification queue; a notification
// past it is counted (ngsi.notify.dropped) and dropped, so a slow
// subscriber never blocks a write.
const notifyQueueLen = 4096

// Broker is the context broker: a hash-sharded entity store with an
// indexed subscription table. Construct with NewBroker; call Close to
// release the dispatch goroutines.
type Broker struct {
	clk    clock.Clock
	reg    *metrics.Registry
	shards []*shard
	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	// Subscription table. The index is copy-on-write: subscribe/unsubscribe
	// rebuild it under subMu and publish atomically; shard update paths
	// load it lock-free.
	subMu   sync.Mutex
	subs    map[string]*subState
	nextSub int
	index   atomic.Pointer[subIndex]

	// journal, when set, receives every accepted mutation; callers are
	// only acknowledged once the journal ack resolves. Set via SetJournal
	// before the broker receives traffic.
	journal Journal

	// Hot-path counters, resolved once so updates never touch the registry
	// map.
	cUpsert, cUpdate, cDelete     *metrics.Counter
	cQueued, cDropped, cDelivered *metrics.Counter
	cThrottled                    *metrics.Counter
	cBatchCalls, cBatchEntities   *metrics.Counter
}

// shard is one slice of the entity store — an entity table (id-ordered
// rows beside numeric attribute columns; see table) — with its own lock,
// notification queue and dispatch worker. An entity id always hashes to
// the same shard, which serializes updates (and thus notification order)
// per entity.
//
// Every *Entity in the table is an immutable version: built in full by the
// write path, published under mu through table.put, never written again.
// An update replaces the row's pointer with a new version; readers (Query,
// notifications, the snapshot dump) therefore share the stored pointer
// instead of copying it.
type shard struct {
	mu sync.RWMutex
	table
	queue chan queuedNotification
	depth *metrics.Gauge
	// matched is notifyShardLocked's scratch, used under mu held for
	// writing and cleared after each use.
	matched []*subState
}

type queuedNotification struct {
	notifier Notifier
	note     Notification
}

// NewBroker constructs a broker and starts one dispatcher per shard.
func NewBroker(cfg BrokerConfig) *Broker {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	b := &Broker{
		clk:  cfg.Clock,
		reg:  cfg.Metrics,
		subs: make(map[string]*subState),
		done: make(chan struct{}),

		cUpsert:        cfg.Metrics.Counter("ngsi.upsert"),
		cUpdate:        cfg.Metrics.Counter("ngsi.update"),
		cDelete:        cfg.Metrics.Counter("ngsi.delete"),
		cQueued:        cfg.Metrics.Counter("ngsi.notify.queued"),
		cDropped:       cfg.Metrics.Counter("ngsi.notify.dropped"),
		cDelivered:     cfg.Metrics.Counter("ngsi.notify.delivered"),
		cThrottled:     cfg.Metrics.Counter("ngsi.notify.throttled"),
		cBatchCalls:    cfg.Metrics.Counter("ngsi.batch.calls"),
		cBatchEntities: cfg.Metrics.Counter("ngsi.batch.entities"),
	}
	b.index.Store(newSubIndex())
	b.reg.Gauge("ngsi.shards").Set(float64(cfg.Shards))
	b.shards = make([]*shard, cfg.Shards)
	for i := range b.shards {
		sh := &shard{
			table: newTable(),
			queue: make(chan queuedNotification, notifyQueueLen),
			depth: cfg.Metrics.Gauge(fmt.Sprintf("ngsi.queue.depth.%d", i)),
		}
		b.shards[i] = sh
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.dispatch(sh)
		}()
	}
	return b
}

// shardFor hashes an entity id onto its shard (FNV-1a).
func (b *Broker) shardFor(id string) *shard {
	return b.shards[b.shardIndex(id)]
}

func (b *Broker) shardIndex(id string) int {
	return shardhash.Index(len(b.shards), id)
}

func (b *Broker) dispatch(sh *shard) {
	for {
		select {
		case <-b.done:
			// Drain what is already queued, then exit.
			for {
				select {
				case q := <-sh.queue:
					q.notifier.Notify(q.note)
					b.cDelivered.Inc()
				default:
					sh.depth.Set(0)
					return
				}
			}
		case q := <-sh.queue:
			q.notifier.Notify(q.note)
			b.cDelivered.Inc()
			sh.depth.Set(float64(len(sh.queue)))
		}
	}
}

// Close stops the dispatchers after draining queued notifications. Updates
// that were accepted before Close are guaranteed delivery: the shard-lock
// barrier below flushes in-flight writers (their enqueues happen under the
// shard lock), and writers arriving later see closed under the lock and
// return ErrClosed without enqueuing.
func (b *Broker) Close() {
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range b.shards {
		sh.mu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier
		sh.mu.Unlock()
	}
	close(b.done)
	b.wg.Wait()
}

// Metrics returns the broker's registry.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }

// ShardCount returns the number of entity shards.
func (b *Broker) ShardCount() int { return len(b.shards) }

// QueueDepth returns the total number of notifications currently queued
// across all shard dispatchers.
func (b *Broker) QueueDepth() int {
	n := 0
	for _, sh := range b.shards {
		n += len(sh.queue)
	}
	return n
}

// UpsertEntity creates or replaces an entity wholesale and notifies
// subscribers of every attribute as changed. The stored version is a deep
// copy, so the caller keeps ownership of e.
func (b *Broker) UpsertEntity(e *Entity) error {
	if err := validateEntityKey(e.ID, e.Type); err != nil {
		return err
	}
	if b.closed.Load() {
		return ErrClosed
	}
	cp := e.Clone()
	now := b.clk.Now()
	for k, a := range cp.Attrs {
		if a.At.IsZero() {
			a.At = now
			cp.Attrs[k] = a
		}
	}
	changed := make([]string, 0, len(cp.Attrs))
	for k := range cp.Attrs {
		changed = append(changed, k)
	}

	sh := b.shardFor(cp.ID)
	sh.mu.Lock()
	if b.closed.Load() { // re-check under the lock; see Close
		sh.mu.Unlock()
		return ErrClosed
	}
	sh.put(cp, nil)
	b.cUpsert.Inc()
	b.notifyShardLocked(sh, cp, changed)
	var ack JournalAck
	if b.journal != nil {
		// Enqueue under the shard lock so log order matches apply order;
		// the fsync wait happens after unlock.
		ack = b.journal.EntityUpserted(cp)
	}
	sh.mu.Unlock()
	if ack != nil {
		return notDurable(ack.Wait())
	}
	return nil
}

// UpdateAttrs merges attribute updates into an existing entity (creating it
// with type typ if absent, matching Orion's upsert semantics for the IoT
// agent path) and fires matching subscriptions.
func (b *Broker) UpdateAttrs(id, typ string, attrs map[string]Attribute) error {
	if err := validateEntityKey(id, typ); err != nil {
		return err
	}
	if len(attrs) == 0 {
		return fmt.Errorf("ngsi: entity %q: empty attribute update", id)
	}
	if b.closed.Load() {
		return ErrClosed
	}
	now := b.clk.Now()
	sh := b.shardFor(id)
	sh.mu.Lock()
	if b.closed.Load() { // re-check under the lock; see Close
		sh.mu.Unlock()
		return ErrClosed
	}
	entry := b.applyUpdateLocked(sh, id, typ, attrs, false, now)
	var ack JournalAck
	if b.journal != nil {
		ack = b.journal.EntitiesMerged([]MergeEntry{entry})
	}
	sh.mu.Unlock()
	if ack != nil {
		return notDurable(ack.Wait())
	}
	return nil
}

// applyUpdateLocked publishes the entity's next version — the previous
// attribute map copied shallowly (values and Metadata stay shared with the
// old version, which readers may still hold) with attrs merged in — and
// fires subscriptions. sh.mu must be held for writing. The attributes are
// deep-copied on the way in unless owned (the batcher's flush gives them
// away). When a journal is attached, the returned MergeEntry carries them
// exactly as applied (timestamps resolved) for the caller to log; otherwise
// it is zero.
func (b *Broker) applyUpdateLocked(sh *shard, id, typ string, attrs map[string]Attribute, owned bool, now time.Time) MergeEntry {
	e := &Entity{ID: id, Type: typ}
	if prev := sh.get(id); prev != nil {
		e.Type = prev.Type
		e.Attrs = maps.Clone(prev.Attrs)
	} else {
		e.Attrs = make(map[string]Attribute, len(attrs))
	}
	changed := make([]string, 0, len(attrs))
	var resolved map[string]Attribute
	if b.journal != nil {
		resolved = make(map[string]Attribute, len(attrs))
	}
	for k, ca := range attrs {
		if !owned {
			ca = cloneAttr(ca)
		}
		if ca.At.IsZero() {
			ca.At = now
		}
		e.Attrs[k] = ca
		changed = append(changed, k)
		if resolved != nil {
			resolved[k] = ca
		}
	}
	sh.put(e, changed)
	b.cUpdate.Inc()
	b.notifyShardLocked(sh, e, changed)
	if resolved == nil {
		return MergeEntry{}
	}
	return MergeEntry{ID: id, Type: e.Type, Attrs: resolved}
}

// BatchEntry is one entity's slice of a BatchUpdate. It aliases the
// anonymous struct the original API used, so existing callers that build
// the map literally still compile.
type BatchEntry = struct {
	Type  string
	Attrs map[string]Attribute
}

// BatchUpdate applies several entity updates with one lock acquisition per
// shard and fires subscriptions per entity. Validation runs up front, so a
// malformed entry fails the whole batch before anything is applied. The
// one exception is a concurrent Close: it can interrupt between shards, in
// which case already-applied shards stay applied and the call returns
// ErrClosed — callers treat that as shutdown, not as a clean rejection.
// The broker copies what it keeps of updates.
func (b *Broker) BatchUpdate(updates map[string]BatchEntry) error {
	return b.batchUpdate(updates, false, nil)
}

// batchKey places one entity of a batch: batchUpdate applies a batch in
// (shard, id) order.
type batchKey struct {
	shard int
	id    string
}

func compareBatchKeys(a, b batchKey) int {
	if a.shard != b.shard {
		return a.shard - b.shard
	}
	return strings.Compare(a.id, b.id)
}

// batchUpdate is BatchUpdate; with owned, the attribute values in updates
// are the caller's to give away and the stored versions keep them uncopied.
// order, if non-nil, is scratch the caller owns for the batch's apply
// order; nil allocates it.
func (b *Broker) batchUpdate(updates map[string]BatchEntry, owned bool, order *[]batchKey) error {
	if len(updates) == 0 {
		return nil
	}
	if b.closed.Load() {
		return ErrClosed
	}
	for id, u := range updates {
		if err := validateEntityKey(id, u.Type); err != nil {
			return fmt.Errorf("ngsi: batch update %q: %w", id, err)
		}
		if len(u.Attrs) == 0 {
			return fmt.Errorf("ngsi: batch update %q: empty attribute update", id)
		}
	}
	var keys []batchKey
	if order != nil {
		keys = (*order)[:0]
		defer func() {
			clear(keys)
			*order = keys[:0]
		}()
	}
	for id := range updates {
		keys = append(keys, batchKey{shard: b.shardIndex(id), id: id})
	}
	// Shard by shard, ids sorted: a deterministic application order.
	slices.SortFunc(keys, compareBatchKeys)
	now := b.clk.Now()
	var acks []JournalAck
	for rest := keys; len(rest) > 0; {
		si, n := rest[0].shard, 1
		for n < len(rest) && rest[n].shard == si {
			n++
		}
		run := rest[:n]
		rest = rest[n:]
		sh := b.shards[si]
		sh.mu.Lock()
		if b.closed.Load() { // re-check under the lock; see Close
			sh.mu.Unlock()
			return ErrClosed
		}
		var entries []MergeEntry
		if b.journal != nil {
			entries = make([]MergeEntry, 0, len(run))
		}
		for _, k := range run {
			u := updates[k.id]
			entry := b.applyUpdateLocked(sh, k.id, u.Type, u.Attrs, owned, now)
			if entries != nil {
				entries = append(entries, entry)
			}
		}
		if len(entries) > 0 {
			// One record per shard, enqueued under its lock: per-shard
			// log order matches apply order.
			acks = append(acks, b.journal.EntitiesMerged(entries))
		}
		sh.mu.Unlock()
	}
	b.cBatchCalls.Inc()
	b.cBatchEntities.Add(uint64(len(updates)))
	return notDurable(waitAcks(acks))
}

// GetEntity returns the entity's stored version. Like Query's entities it
// is read-only: the caller may retain it, and a later write publishes a
// new version beside it instead of changing it, but must never write to
// it, its Attrs map or a Metadata map. A caller that edits takes a Clone.
func (b *Broker) GetEntity(id string) (*Entity, error) {
	sh := b.shardFor(id)
	sh.mu.RLock()
	e := sh.get(id)
	sh.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("ngsi: entity %q: %w", id, ErrNotFound)
	}
	return e, nil
}

// AppendEntityJSON appends e's wire form to dst, as e.AppendJSON does.
// When e is the version b currently stores under its id — a GetEntity
// answer no write has replaced yet — the bytes come from the version's
// memo, so repeated reads encode it once; any other entity is encoded
// afresh.
func (b *Broker) AppendEntityJSON(dst []byte, e *Entity) ([]byte, error) {
	sh := b.shardFor(e.ID)
	sh.mu.RLock()
	stored := sh.get(e.ID) == e
	sh.mu.RUnlock()
	if !stored {
		return e.AppendJSON(dst)
	}
	return e.appendVersionJSON(dst)
}

// DeleteEntity removes an entity. A journal failure rolls the delete
// back so the live state matches the reported outcome (with the same
// conservative-reporting caveat as Subscribe: the failed record may
// still prove durable across a restart).
func (b *Broker) DeleteEntity(id string) error {
	sh := b.shardFor(id)
	sh.mu.Lock()
	e := sh.remove(id)
	if e == nil {
		sh.mu.Unlock()
		return fmt.Errorf("ngsi: entity %q: %w", id, ErrNotFound)
	}
	var ack JournalAck
	if b.journal != nil {
		ack = b.journal.EntityDeleted(id)
	}
	sh.mu.Unlock()
	if ack != nil {
		if err := ack.Wait(); err != nil {
			// Reinstate (the same rollback Subscribe/Unsubscribe do):
			// the delete record was not acknowledged durable, so
			// without this the entity would read as gone until restart
			// and then likely resurrect from the replayed upserts.
			sh.mu.Lock()
			if sh.get(id) == nil {
				sh.put(e, nil)
			}
			sh.mu.Unlock()
			return notDurable(err)
		}
	}
	b.cDelete.Inc()
	return nil
}

// DumpEntities streams every stored entity to fn, shard by shard under
// the shard read lock and in id order within a shard, so two dumps of the
// same state emit the same sequence — the snapshot path. The entity is the
// stored version and read-only: fn must never write to it (retaining it is
// safe, versions are immutable), and must not call back into the broker.
func (b *Broker) DumpEntities(fn func(*Entity) error) error {
	for _, sh := range b.shards {
		sh.mu.RLock()
		for _, e := range sh.rows {
			if err := fn(e); err != nil {
				sh.mu.RUnlock()
				return err
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}

// EntityCount returns the number of stored entities.
func (b *Broker) EntityCount() int {
	n := 0
	for _, sh := range b.shards {
		sh.mu.RLock()
		n += len(sh.rows)
		sh.mu.RUnlock()
	}
	return n
}

// subIDPrefix starts every id the broker's generator emits.
const subIDPrefix = "urn:swamp:subscription:"

// nextSubIDLocked takes a fresh id from the broker's one generator.
// b.subMu must be held.
func (b *Broker) nextSubIDLocked() string {
	b.nextSub++
	return fmt.Sprintf("%s%06d", subIDPrefix, b.nextSub)
}

// Subscribe registers a subscription and returns its id. When a journal
// is attached and the subscription has a URL, it is logged for
// recovery; a journal failure rolls the registration back so the live
// state matches the reported outcome. Failure reporting is conservative:
// a commit that reported failure may still have reached disk, so a
// rolled-back mutation can reappear after a restart.
func (b *Broker) Subscribe(sub Subscription) (string, error) {
	if sub.Notifier == nil {
		return "", fmt.Errorf("ngsi: subscription without notifier")
	}
	b.subMu.Lock()
	if b.closed.Load() {
		b.subMu.Unlock()
		return "", ErrClosed
	}
	if sub.ID == "" {
		sub.ID = b.nextSubIDLocked()
	} else if n, ok := parseGeneratedSubID(sub.ID); ok && n > b.nextSub {
		// A recovered (or externally chosen) id from the generated
		// namespace advances the counter so fresh ids never collide.
		b.nextSub = n
	}
	if _, dup := b.subs[sub.ID]; dup {
		b.subMu.Unlock()
		return "", fmt.Errorf("ngsi: duplicate subscription id %q", sub.ID)
	}
	st := newSubState(sub)
	b.subs[sub.ID] = st
	b.rebuildIndexLocked()
	var ack JournalAck
	if b.journal != nil && sub.URL != "" {
		ack = b.journal.SubscriptionPut(b.viewLocked(st))
	}
	b.subMu.Unlock()
	if ack != nil {
		if err := ack.Wait(); err != nil {
			// Roll back so the observable state matches the reported
			// failure: left registered, the subscription would deliver
			// notifications until restart and then likely vanish (its
			// record was not acknowledged durable).
			b.subMu.Lock()
			if cur, ok := b.subs[sub.ID]; ok && cur == st {
				delete(b.subs, sub.ID)
				b.rebuildIndexLocked()
			}
			b.subMu.Unlock()
			return "", notDurable(err)
		}
	}
	b.reg.Counter("ngsi.subscribe").Inc()
	return sub.ID, nil
}

// parseGeneratedSubID recognizes ids from the broker's own generator.
func parseGeneratedSubID(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, subIDPrefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil && n > 0
}

// Unsubscribe removes a subscription.
func (b *Broker) Unsubscribe(id string) error {
	_, err := b.unsubscribe(id)
	return err
}

// unsubscribe removes a subscription and returns what it removed.
func (b *Broker) unsubscribe(id string) (Subscription, error) {
	b.subMu.Lock()
	st, ok := b.subs[id]
	if !ok {
		b.subMu.Unlock()
		return Subscription{}, fmt.Errorf("ngsi: subscription %q: %w", id, ErrNotFound)
	}
	delete(b.subs, id)
	b.rebuildIndexLocked()
	var ack JournalAck
	if b.journal != nil && st.sub.URL != "" {
		ack = b.journal.SubscriptionDeleted(id)
	}
	b.subMu.Unlock()
	if ack != nil {
		if err := ack.Wait(); err != nil {
			// Mirror Subscribe's rollback: the caller is told the delete
			// failed, so the subscription must stay live — without this
			// it would stop notifying now yet likely resurrect on
			// restart (the delete record was not acknowledged durable).
			b.subMu.Lock()
			if _, taken := b.subs[id]; !taken {
				b.subs[id] = st
				b.rebuildIndexLocked()
			}
			b.subMu.Unlock()
			return Subscription{}, notDurable(err)
		}
	}
	return st.sub, nil
}

// SubscriptionCount returns the number of active subscriptions.
func (b *Broker) SubscriptionCount() int {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	return len(b.subs)
}

// rebuildIndexLocked publishes a fresh immutable index built from the
// subscription set. b.subMu must be held. O(subscriptions), but Subscribe
// and Unsubscribe are rare next to updates.
func (b *Broker) rebuildIndexLocked() {
	ix := newSubIndex()
	for _, st := range b.subs {
		ix.add(st)
	}
	b.index.Store(ix)
}

// notifyShardLocked evaluates subscriptions against an entity whose
// attributes in changed were just written. The entity's shard lock must be
// held; the subscription index is read lock-free.
func (b *Broker) notifyShardLocked(sh *shard, e *Entity, changed []string) {
	matched := b.index.Load().collect(e.ID, e.Type, sh.matched[:0])
	if len(matched) == 0 {
		return
	}
	now := b.clk.Now()
	for _, st := range matched {
		s := &st.sub
		if len(s.ConditionAttrs) > 0 && !intersects(s.ConditionAttrs, changed) {
			continue
		}
		if s.Throttling > 0 {
			st.mu.Lock()
			if last, ok := st.lastNotified[e.ID]; ok && now.Sub(last) < s.Throttling {
				st.mu.Unlock()
				b.cThrottled.Inc()
				continue
			}
			st.lastNotified[e.ID] = now
			st.mu.Unlock()
		}

		// e is the version just published; it is delivered as is, or as a
		// new entity around the filtered map — never edited.
		note := Notification{SubscriptionID: s.ID, Entity: e.project(s.NotifyAttrs), Changed: changed, At: now}
		select {
		case sh.queue <- queuedNotification{notifier: s.Notifier, note: note}:
			b.cQueued.Inc()
			sh.depth.Set(float64(len(sh.queue)))
		default:
			b.cDropped.Inc()
		}
	}
	clear(matched) // pin no subscription that goes away
	sh.matched = matched[:0]
}

func intersects(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
