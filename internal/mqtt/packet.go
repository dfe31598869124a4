// Package mqtt implements the subset of MQTT 3.1.1 the SWAMP platform uses
// as its device transport: CONNECT/CONNACK, PUBLISH with QoS 0 and 1
// (PUBACK), SUBSCRIBE/SUBACK, UNSUBSCRIBE/UNSUBACK, PING and DISCONNECT,
// plus retained messages and the standard '+' / '#' topic wildcards.
//
// The wire codec is the real 3.1.1 framing (fixed header, varint remaining
// length, UTF-8 strings) over any net.Conn: genuine TCP clients and
// in-process peers on a net.Pipe take the same byte-stream path.
package mqtt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// PacketType is the 4-bit MQTT control packet type.
type PacketType byte

// MQTT 3.1.1 control packet types (the implemented subset).
const (
	CONNECT     PacketType = 1
	CONNACK     PacketType = 2
	PUBLISH     PacketType = 3
	PUBACK      PacketType = 4
	SUBSCRIBE   PacketType = 8
	SUBACK      PacketType = 9
	UNSUBSCRIBE PacketType = 10
	UNSUBACK    PacketType = 11
	PINGREQ     PacketType = 12
	PINGRESP    PacketType = 13
	DISCONNECT  PacketType = 14
)

var typeNames = map[PacketType]string{
	CONNECT: "CONNECT", CONNACK: "CONNACK", PUBLISH: "PUBLISH", PUBACK: "PUBACK",
	SUBSCRIBE: "SUBSCRIBE", SUBACK: "SUBACK", UNSUBSCRIBE: "UNSUBSCRIBE",
	UNSUBACK: "UNSUBACK", PINGREQ: "PINGREQ", PINGRESP: "PINGRESP", DISCONNECT: "DISCONNECT",
}

// String implements fmt.Stringer.
func (t PacketType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("packet-type(%d)", byte(t))
}

// Connect return codes carried in CONNACK.
const (
	ConnAccepted          byte = 0
	ConnRefusedProtocol   byte = 1
	ConnRefusedIdentifier byte = 2
	ConnRefusedBadAuth    byte = 4
	ConnRefusedNotAuthed  byte = 5
	// ConnRefusedQuota refuses a CONNECT whose tenant is suspended or in
	// sustained quota debt. 3.1.1 has no code for this, so the broker
	// borrows MQTT 5's quota-exceeded reason code; clients should treat
	// it as "try again later", not as an authentication failure.
	ConnRefusedQuota byte = 0x97
)

// Packet is the decoded form of one MQTT control packet. A single struct
// (rather than one type per packet) keeps the codec and the broker's
// dispatch loop simple; unused fields are zero.
type Packet struct {
	Type PacketType

	// CONNECT
	ClientID     string
	Username     string
	Password     string
	KeepAliveSec uint16
	CleanSession bool

	// CONNACK
	ReturnCode     byte
	SessionPresent bool

	// PUBLISH
	Topic    string
	Payload  []byte
	QoS      byte
	Retain   bool
	Dup      bool
	PacketID uint16 // also PUBACK / SUBSCRIBE / SUBACK / UNSUBSCRIBE / UNSUBACK

	// SUBSCRIBE / UNSUBSCRIBE
	Filters []Subscription
	// SUBACK
	GrantedQoS []byte
}

// Subscription pairs a topic filter with a requested QoS.
type Subscription struct {
	Filter string
	QoS    byte
}

// ErrMalformed is wrapped by all decode errors.
var ErrMalformed = errors.New("mqtt: malformed packet")

const maxRemainingLength = 268_435_455 // MQTT spec maximum

// protocolName and protocolLevel identify MQTT 3.1.1 in CONNECT.
const (
	protocolName  = "MQTT"
	protocolLevel = 4
)

// Encode serialises p into MQTT 3.1.1 wire format.
func (p *Packet) Encode() ([]byte, error) {
	var body bytes.Buffer
	var flags byte

	switch p.Type {
	case CONNECT:
		writeString(&body, protocolName)
		body.WriteByte(protocolLevel)
		var connectFlags byte
		if p.CleanSession {
			connectFlags |= 0x02
		}
		if p.Username != "" {
			connectFlags |= 0x80
		}
		if p.Password != "" {
			connectFlags |= 0x40
		}
		body.WriteByte(connectFlags)
		writeUint16(&body, p.KeepAliveSec)
		writeString(&body, p.ClientID)
		if p.Username != "" {
			writeString(&body, p.Username)
		}
		if p.Password != "" {
			writeString(&body, p.Password)
		}

	case CONNACK:
		var ack byte
		if p.SessionPresent {
			ack = 1
		}
		body.WriteByte(ack)
		body.WriteByte(p.ReturnCode)

	case PUBLISH:
		if p.QoS > 1 {
			return nil, fmt.Errorf("mqtt: QoS %d unsupported (only 0 and 1)", p.QoS)
		}
		if err := ValidateTopicName(p.Topic); err != nil {
			return nil, err
		}
		if p.Dup {
			flags |= 0x08
		}
		flags |= p.QoS << 1
		if p.Retain {
			flags |= 0x01
		}
		writeString(&body, p.Topic)
		if p.QoS > 0 {
			writeUint16(&body, p.PacketID)
		}
		body.Write(p.Payload)

	case PUBACK:
		writeUint16(&body, p.PacketID)

	case SUBSCRIBE:
		flags = 0x02 // mandated reserved bits
		writeUint16(&body, p.PacketID)
		if len(p.Filters) == 0 {
			return nil, fmt.Errorf("mqtt: SUBSCRIBE with no filters")
		}
		for _, f := range p.Filters {
			if err := ValidateTopicFilter(f.Filter); err != nil {
				return nil, err
			}
			writeString(&body, f.Filter)
			body.WriteByte(f.QoS)
		}

	case SUBACK:
		writeUint16(&body, p.PacketID)
		body.Write(p.GrantedQoS)

	case UNSUBSCRIBE:
		flags = 0x02
		writeUint16(&body, p.PacketID)
		if len(p.Filters) == 0 {
			return nil, fmt.Errorf("mqtt: UNSUBSCRIBE with no filters")
		}
		for _, f := range p.Filters {
			writeString(&body, f.Filter)
		}

	case UNSUBACK:
		writeUint16(&body, p.PacketID)

	case PINGREQ, PINGRESP, DISCONNECT:
		// no body

	default:
		return nil, fmt.Errorf("mqtt: cannot encode packet type %v", p.Type)
	}

	if body.Len() > maxRemainingLength {
		return nil, fmt.Errorf("mqtt: packet too large (%d bytes)", body.Len())
	}

	var out bytes.Buffer
	out.WriteByte(byte(p.Type)<<4 | flags)
	writeRemainingLength(&out, body.Len())
	out.Write(body.Bytes())
	return out.Bytes(), nil
}

// appendEncode appends p's wire encoding to dst and returns it. Packet
// types on broker hot paths (PUBLISH and the control acks) are encoded
// directly without intermediate buffers; everything else falls back to
// Encode.
func (p *Packet) appendEncode(dst []byte) ([]byte, error) {
	switch p.Type {
	case PUBLISH:
		if p.QoS > 1 {
			return nil, fmt.Errorf("mqtt: QoS %d unsupported (only 0 and 1)", p.QoS)
		}
		if err := ValidateTopicName(p.Topic); err != nil {
			return nil, err
		}
		dst, _ = appendPublish(dst, p.Topic, p.Payload, p.QoS, p.Retain, p.Dup, p.PacketID)
		return dst, nil
	case PUBACK, UNSUBACK:
		return append(dst, byte(p.Type)<<4, 2, byte(p.PacketID>>8), byte(p.PacketID)), nil
	case SUBACK:
		dst = append(dst, byte(SUBACK)<<4)
		dst = appendRemainingLength(dst, 2+len(p.GrantedQoS))
		dst = append(dst, byte(p.PacketID>>8), byte(p.PacketID))
		return append(dst, p.GrantedQoS...), nil
	case PINGREQ, PINGRESP, DISCONNECT:
		return append(dst, byte(p.Type)<<4, 0), nil
	default:
		raw, err := p.Encode()
		if err != nil {
			return nil, err
		}
		return append(dst, raw...), nil
	}
}

// appendPublish appends a complete PUBLISH frame to dst and returns the new
// slice plus the offset of the 2-byte PacketID region within it (0 when
// qos == 0 — QoS-0 frames carry no packet id, and offset 0 can never be a
// valid id position because the fixed header precedes it).
func appendPublish(dst []byte, topic string, payload []byte, qos byte, retain, dup bool, pid uint16) ([]byte, int) {
	flags := qos << 1
	if retain {
		flags |= 0x01
	}
	if dup {
		flags |= 0x08
	}
	body := 2 + len(topic) + len(payload)
	if qos > 0 {
		body += 2
	}
	dst = append(dst, byte(PUBLISH)<<4|flags)
	dst = appendRemainingLength(dst, body)
	dst = append(dst, byte(len(topic)>>8), byte(len(topic)))
	dst = append(dst, topic...)
	pidOff := 0
	if qos > 0 {
		pidOff = len(dst)
		dst = append(dst, byte(pid>>8), byte(pid))
	}
	return append(dst, payload...), pidOff
}

func appendRemainingLength(dst []byte, n int) []byte {
	for {
		b := byte(n % 128)
		n /= 128
		if n > 0 {
			b |= 0x80
		}
		dst = append(dst, b)
		if n == 0 {
			return dst
		}
	}
}

// Decode parses one packet from raw wire bytes (fixed header included).
func Decode(raw []byte) (*Packet, error) {
	r := bytes.NewReader(raw)
	p, err := ReadPacket(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, r.Len())
	}
	return p, nil
}

// ReadPacket reads and decodes exactly one packet from r.
func ReadPacket(r io.Reader) (*Packet, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = byteReader{r}
	}
	b0, err := br.ReadByte()
	if err != nil {
		return nil, err // propagate io.EOF for clean shutdown detection
	}
	rl, err := readRemainingLength(br)
	if err != nil {
		return nil, err
	}
	body, err := readBody(r, rl)
	if err != nil {
		return nil, fmt.Errorf("%w: short body: %v", ErrMalformed, err)
	}
	return decodeBody(PacketType(b0>>4), b0&0x0f, body)
}

// byteReader lends ReadPacket's header parse to a reader with no ReadByte.
type byteReader struct{ io.Reader }

func (b byteReader) ReadByte() (byte, error) {
	var p [1]byte
	_, err := io.ReadFull(b, p[:])
	return p[0], err
}

// bodyChunk is the most ReadPacket allocates on the word of a length field
// alone: the remaining length arrives before CONNECT is authenticated and
// may claim 256 MiB, so a longer body's buffer grows only as its bytes do.
const bodyChunk = 64 << 10

// readBody reads a packet's n body bytes into a buffer of their own (never
// reused: decodeBody's results alias it).
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, bodyChunk))
	filled := 0
	for {
		m, err := io.ReadFull(r, body[filled:])
		if err != nil {
			return nil, err
		}
		if filled += m; filled == n {
			return body, nil
		}
		grown := make([]byte, min(2*filled, n))
		copy(grown, body)
		body = grown
	}
}

// decodeBody parses a packet body by index. Payload and GrantedQoS alias
// body, capped so an append to either cannot write into it.
func decodeBody(pt PacketType, flags byte, body []byte) (*Packet, error) {
	p := &Packet{Type: pt}
	c := cursor{b: body}
	var err error

	switch pt {
	case CONNECT:
		name, err := c.str()
		if err != nil {
			return nil, err
		}
		if name != protocolName {
			return nil, fmt.Errorf("%w: protocol name %q", ErrMalformed, name)
		}
		level, ok := c.byte()
		if !ok {
			return nil, fmt.Errorf("%w: missing protocol level", ErrMalformed)
		}
		if level != protocolLevel {
			return nil, fmt.Errorf("%w: protocol level %d", ErrMalformed, level)
		}
		cf, ok := c.byte()
		if !ok {
			return nil, fmt.Errorf("%w: missing connect flags", ErrMalformed)
		}
		p.CleanSession = cf&0x02 != 0
		if p.KeepAliveSec, err = c.uint16(); err != nil {
			return nil, err
		}
		if p.ClientID, err = c.str(); err != nil {
			return nil, err
		}
		if cf&0x80 != 0 {
			if p.Username, err = c.str(); err != nil {
				return nil, err
			}
		}
		if cf&0x40 != 0 {
			if p.Password, err = c.str(); err != nil {
				return nil, err
			}
		}

	case CONNACK:
		if len(body) != 2 {
			return nil, fmt.Errorf("%w: CONNACK body %d bytes", ErrMalformed, len(body))
		}
		p.SessionPresent = body[0]&1 != 0
		p.ReturnCode = body[1]

	case PUBLISH:
		p.Dup = flags&0x08 != 0
		p.QoS = (flags >> 1) & 0x03
		p.Retain = flags&0x01 != 0
		if p.QoS > 1 {
			return nil, fmt.Errorf("%w: QoS %d unsupported", ErrMalformed, p.QoS)
		}
		if p.Topic, err = c.str(); err != nil {
			return nil, err
		}
		if p.QoS > 0 {
			if p.PacketID, err = c.uint16(); err != nil {
				return nil, err
			}
		}
		p.Payload = c.rest()

	case PUBACK, UNSUBACK:
		if p.PacketID, err = c.uint16(); err != nil {
			return nil, err
		}

	case SUBSCRIBE:
		if p.PacketID, err = c.uint16(); err != nil {
			return nil, err
		}
		for c.left() > 0 {
			f, err := c.str()
			if err != nil {
				return nil, err
			}
			q, ok := c.byte()
			if !ok {
				return nil, fmt.Errorf("%w: missing subscribe QoS", ErrMalformed)
			}
			p.Filters = append(p.Filters, Subscription{Filter: f, QoS: q})
		}
		if len(p.Filters) == 0 {
			return nil, fmt.Errorf("%w: SUBSCRIBE with no filters", ErrMalformed)
		}

	case SUBACK:
		if p.PacketID, err = c.uint16(); err != nil {
			return nil, err
		}
		p.GrantedQoS = c.rest()

	case UNSUBSCRIBE:
		if p.PacketID, err = c.uint16(); err != nil {
			return nil, err
		}
		for c.left() > 0 {
			f, err := c.str()
			if err != nil {
				return nil, err
			}
			p.Filters = append(p.Filters, Subscription{Filter: f})
		}

	case PINGREQ, PINGRESP, DISCONNECT:
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: %v with body", ErrMalformed, pt)
		}

	default:
		return nil, fmt.Errorf("%w: unknown packet type %d", ErrMalformed, pt)
	}
	return p, nil
}

// cursor walks a packet body.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) left() int { return len(c.b) - c.off }

func (c *cursor) byte() (byte, bool) {
	if c.left() == 0 {
		return 0, false
	}
	c.off++
	return c.b[c.off-1], true
}

func (c *cursor) uint16() (uint16, error) {
	if c.left() < 2 {
		return 0, fmt.Errorf("%w: short uint16", ErrMalformed)
	}
	v := uint16(c.b[c.off])<<8 | uint16(c.b[c.off+1])
	c.off += 2
	return v, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.uint16()
	if err != nil {
		return "", err
	}
	if c.left() < int(n) {
		return "", fmt.Errorf("%w: short string", ErrMalformed)
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

// rest returns what is left of the body, aliased and capacity-capped.
func (c *cursor) rest() []byte { return c.b[c.off:len(c.b):len(c.b)] }

// --- primitive encoders / decoders ---

func writeUint16(w *bytes.Buffer, v uint16) {
	w.WriteByte(byte(v >> 8))
	w.WriteByte(byte(v))
}

func writeString(w *bytes.Buffer, s string) {
	writeUint16(w, uint16(len(s)))
	w.WriteString(s)
}

func writeRemainingLength(w *bytes.Buffer, n int) {
	for {
		b := byte(n % 128)
		n /= 128
		if n > 0 {
			b |= 0x80
		}
		w.WriteByte(b)
		if n == 0 {
			return
		}
	}
}

func readRemainingLength(r io.ByteReader) (int, error) {
	mult := 1
	val := 0
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("%w: short remaining length", ErrMalformed)
		}
		val += int(b&0x7f) * mult
		if b&0x80 == 0 {
			return val, nil
		}
		mult *= 128
	}
	return 0, fmt.Errorf("%w: remaining length overflow", ErrMalformed)
}
