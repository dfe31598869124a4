package mqtt

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Message is a received publication handed to a subscription handler.
type Message struct {
	Topic   string
	Payload []byte
	QoS     byte
	Retain  bool
	Dup     bool
}

// Handler consumes messages for a subscription. Handlers run on the
// client's read loop: they must not block for long.
type Handler func(Message)

// ClientConfig configures a Client.
type ClientConfig struct {
	ClientID     string
	Username     string
	Password     string
	KeepAlive    time.Duration // 0 disables client pings
	CleanSession bool
	// AckTimeout bounds waits for CONNACK/SUBACK/PUBACK (default 2s).
	AckTimeout time.Duration
}

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("mqtt: client closed")

// ErrAckTimeout is returned when the broker does not acknowledge in time
// (wrapped with context).
var ErrAckTimeout = errors.New("mqtt: ack timeout")

// Client is an MQTT client over one connection. Construct with Connect.
// Safe for concurrent use.
type Client struct {
	cfg ClientConfig
	t   *stream

	mu       sync.Mutex
	nextID   uint16
	acks     map[uint16]chan *Packet // PUBACK / SUBACK / UNSUBACK waiters
	subs     []clientSub
	closed   bool
	closeErr error

	pingpong chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup

	// DefaultHandler receives messages that match no registered
	// subscription handler (e.g. retained floods). May be nil.
	DefaultHandler Handler
}

type clientSub struct {
	filter  string
	handler Handler
}

// Connect performs the MQTT handshake over conn and starts the client
// loops. On error conn is closed.
func Connect(conn net.Conn, cfg ClientConfig) (*Client, error) {
	if cfg.ClientID == "" {
		conn.Close()
		return nil, fmt.Errorf("mqtt: empty client id")
	}
	t := newStream(conn)
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	c := &Client{
		cfg:      cfg,
		t:        t,
		acks:     make(map[uint16]chan *Packet),
		pingpong: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	connect := &Packet{
		Type:         CONNECT,
		ClientID:     cfg.ClientID,
		Username:     cfg.Username,
		Password:     cfg.Password,
		KeepAliveSec: uint16(cfg.KeepAlive / time.Second),
		CleanSession: cfg.CleanSession,
	}
	if err := t.writePacket(connect); err != nil {
		t.close()
		return nil, fmt.Errorf("mqtt connect: %w", err)
	}
	ack, err := c.readWithTimeout(cfg.AckTimeout)
	if err != nil {
		t.close()
		return nil, fmt.Errorf("mqtt connect: waiting CONNACK: %w", err)
	}
	if ack.Type != CONNACK {
		t.close()
		return nil, fmt.Errorf("mqtt connect: got %v, want CONNACK", ack.Type)
	}
	if ack.ReturnCode != ConnAccepted {
		t.close()
		return nil, fmt.Errorf("mqtt connect: refused (code %d)", ack.ReturnCode)
	}

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.readLoop()
	}()
	if cfg.KeepAlive > 0 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.pingLoop()
		}()
	}
	return c, nil
}

// ackTimerPool recycles the timers bounding PUBACK/SUBACK/PINGRESP waits.
// A QoS 1 publisher arms one timer per publish; with time.After each would
// be a fresh runtime timer living the full AckTimeout — allocation and
// timer-heap churn that dominates paced publish loops.
var ackTimerPool sync.Pool

func getAckTimer(d time.Duration) *time.Timer {
	if v := ackTimerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putAckTimer returns a timer whose channel is empty or fired-and-drained;
// both states are safe to Reset after the Stop+drain here.
func putAckTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	ackTimerPool.Put(t)
}

// readWithTimeout reads one packet before the client loops start.
func (c *Client) readWithTimeout(d time.Duration) (*Packet, error) {
	type res struct {
		p   *Packet
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, err := c.t.readPacket()
		ch <- res{p, err}
	}()
	select {
	case r := <-ch:
		return r.p, r.err
	case <-time.After(d):
		return nil, ErrAckTimeout
	}
}

// Close disconnects cleanly and releases the client goroutines.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	_ = c.t.writePacket(&Packet{Type: DISCONNECT})
	close(c.done)
	err := c.t.close()
	c.wg.Wait()
	return err
}

// Closed reports whether the client has shut down (by Close or broker
// disconnect).
func (c *Client) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Client) readLoop() {
	for {
		pkt, err := c.t.readPacket()
		if err != nil {
			c.mu.Lock()
			if !c.closed {
				c.closed = true
				c.closeErr = err
				close(c.done)
			}
			c.mu.Unlock()
			return
		}
		switch pkt.Type {
		case PUBLISH:
			c.dispatch(pkt)
			if pkt.QoS == 1 {
				_ = c.t.writePacket(&Packet{Type: PUBACK, PacketID: pkt.PacketID})
			}
		case PUBACK, SUBACK, UNSUBACK:
			c.mu.Lock()
			ch := c.acks[pkt.PacketID]
			delete(c.acks, pkt.PacketID)
			c.mu.Unlock()
			if ch != nil {
				ch <- pkt
			}
		case PINGRESP:
			select {
			case c.pingpong <- struct{}{}:
			default:
			}
		}
	}
}

func (c *Client) dispatch(pkt *Packet) {
	msg := Message{Topic: pkt.Topic, Payload: pkt.Payload, QoS: pkt.QoS, Retain: pkt.Retain, Dup: pkt.Dup}
	// A message can match several overlapping filters (e.g. "farm/+/soil"
	// and "farm/#"); every matching handler fires, not just the first. The
	// common single-match case avoids building a slice per message.
	c.mu.Lock()
	var first Handler
	var rest []Handler
	for _, s := range c.subs {
		if MatchTopic(s.filter, pkt.Topic) {
			if first == nil {
				first = s.handler
			} else {
				rest = append(rest, s.handler)
			}
		}
	}
	c.mu.Unlock()
	if first == nil {
		if h := c.DefaultHandler; h != nil {
			h(msg)
		}
		return
	}
	first(msg)
	for _, h := range rest {
		h(msg)
	}
}

func (c *Client) pingLoop() {
	tick := time.NewTicker(c.cfg.KeepAlive)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			if err := c.t.writePacket(&Packet{Type: PINGREQ}); err != nil {
				return
			}
		}
	}
}

// allocAck registers an ack waiter and returns (packetID, channel).
func (c *Client) allocAck() (uint16, chan *Packet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClientClosed
	}
	for {
		c.nextID++
		if c.nextID == 0 {
			c.nextID = 1
		}
		if _, used := c.acks[c.nextID]; !used {
			break
		}
	}
	ch := make(chan *Packet, 1)
	c.acks[c.nextID] = ch
	return c.nextID, ch, nil
}

func (c *Client) dropAck(id uint16) {
	c.mu.Lock()
	delete(c.acks, id)
	c.mu.Unlock()
}

// Publish sends one message. QoS 0 is fire-and-forget; QoS 1 sends once and
// blocks until PUBACK, or returns ErrAckTimeout after one AckTimeout. The
// connection is a byte stream that loses nothing while it lives, so the
// client never resends on it (MQTT 5.0 §4.4); whether to publish again
// after a timeout is the caller's decision.
func (c *Client) Publish(topic string, payload []byte, qos byte, retain bool) error {
	if qos > 1 {
		return fmt.Errorf("mqtt: QoS %d unsupported", qos)
	}
	if err := ValidateTopicName(topic); err != nil {
		return err
	}
	if qos == 0 {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return ErrClientClosed
		}
		return c.t.writePacket(&Packet{Type: PUBLISH, Topic: topic, Payload: payload, Retain: retain})
	}

	id, ch, err := c.allocAck()
	if err != nil {
		return err
	}
	defer c.dropAck(id)
	pkt := &Packet{Type: PUBLISH, Topic: topic, Payload: payload, QoS: 1, Retain: retain, PacketID: id}
	if err := c.t.writePacket(pkt); err != nil {
		return fmt.Errorf("mqtt publish %q: %w", topic, err)
	}
	timer := getAckTimer(c.cfg.AckTimeout)
	defer putAckTimer(timer)
	select {
	case <-ch:
		return nil
	case <-timer.C:
		return fmt.Errorf("mqtt publish %q: %w", topic, ErrAckTimeout)
	case <-c.done:
		return ErrClientClosed
	}
}

// Subscribe registers handler for filter and waits for the broker grant.
// It returns the granted QoS.
func (c *Client) Subscribe(filter string, qos byte, handler Handler) (byte, error) {
	if err := ValidateTopicFilter(filter); err != nil {
		return 0, err
	}
	if qos > 1 {
		qos = 1
	}
	id, ch, err := c.allocAck()
	if err != nil {
		return 0, err
	}
	defer c.dropAck(id)

	// Register the handler before SUBACK so retained messages delivered
	// immediately after the grant are not missed. A re-subscribe on the
	// same filter replaces the previous handler: the broker keeps one
	// subscription per (client, filter), so must the client — appending
	// would leave a stale handler alive after Unsubscribe.
	c.mu.Lock()
	var prev Handler
	replaced := false
	for i, s := range c.subs {
		if s.filter == filter {
			prev = s.handler
			c.subs[i].handler = handler
			replaced = true
			break
		}
	}
	if !replaced {
		c.subs = append(c.subs, clientSub{filter: filter, handler: handler})
	}
	c.mu.Unlock()
	// On failure, a fresh subscribe is removed outright; a failed
	// re-subscribe restores the previous, still-granted handler — the
	// broker keeps delivering for the old grant either way.
	rollback := func() {
		if !replaced {
			c.removeSub(filter)
			return
		}
		c.mu.Lock()
		for i, s := range c.subs {
			if s.filter == filter {
				c.subs[i].handler = prev
				break
			}
		}
		c.mu.Unlock()
	}

	pkt := &Packet{Type: SUBSCRIBE, PacketID: id, Filters: []Subscription{{Filter: filter, QoS: qos}}}
	if err := c.t.writePacket(pkt); err != nil {
		rollback()
		return 0, fmt.Errorf("mqtt subscribe %q: %w", filter, err)
	}
	timer := getAckTimer(c.cfg.AckTimeout)
	defer putAckTimer(timer)
	select {
	case ack := <-ch:
		if len(ack.GrantedQoS) != 1 || ack.GrantedQoS[0] == 0x80 {
			rollback()
			return 0, fmt.Errorf("mqtt subscribe %q: rejected by broker", filter)
		}
		return ack.GrantedQoS[0], nil
	case <-timer.C:
		rollback()
		return 0, fmt.Errorf("mqtt subscribe %q: %w", filter, ErrAckTimeout)
	case <-c.done:
		return 0, ErrClientClosed
	}
}

// Unsubscribe removes the subscription for filter.
func (c *Client) Unsubscribe(filter string) error {
	id, ch, err := c.allocAck()
	if err != nil {
		return err
	}
	defer c.dropAck(id)
	pkt := &Packet{Type: UNSUBSCRIBE, PacketID: id, Filters: []Subscription{{Filter: filter}}}
	if err := c.t.writePacket(pkt); err != nil {
		return fmt.Errorf("mqtt unsubscribe %q: %w", filter, err)
	}
	timer := getAckTimer(c.cfg.AckTimeout)
	defer putAckTimer(timer)
	select {
	case <-ch:
		c.removeSub(filter)
		return nil
	case <-timer.C:
		return fmt.Errorf("mqtt unsubscribe %q: %w", filter, ErrAckTimeout)
	case <-c.done:
		return ErrClientClosed
	}
}

func (c *Client) removeSub(filter string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.subs[:0]
	for _, s := range c.subs {
		if s.filter != filter {
			kept = append(kept, s)
		}
	}
	c.subs = kept
}

// Ping sends a PINGREQ and waits for the PINGRESP, useful as a liveness
// probe over impaired links.
func (c *Client) Ping(timeout time.Duration) error {
	select {
	case <-c.pingpong: // drain stale pong
	default:
	}
	if err := c.t.writePacket(&Packet{Type: PINGREQ}); err != nil {
		return err
	}
	timer := getAckTimer(timeout)
	defer putAckTimer(timer)
	select {
	case <-c.pingpong:
		return nil
	case <-timer.C:
		return ErrAckTimeout
	case <-c.done:
		return ErrClientClosed
	}
}
