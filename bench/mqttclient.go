package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"github.com/swamp-project/swamp/internal/mqtt"
)

// mqttClient is the load generator's device gateway: one TCP connection,
// one writer (the caller of publish/flush) and one PUBACK reader, QoS 1,
// pipelined — it never waits for an acknowledgement before the next send.
// The repo's own mqtt.Client blocks per QoS 1 publish, which would turn
// every workload into a closed loop of depth one.
type mqttClient struct {
	conn net.Conn
	w    *bufio.Writer
	r    *bufio.Reader
	done chan struct{} // closed when the reader exits
	err  error         // reader's exit reason; read after done
}

func dialMQTT(addr, clientID string) (*mqttClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mqtt dial: %w", err)
	}
	c := &mqttClient{
		conn: conn,
		w:    bufio.NewWriterSize(conn, 64<<10),
		r:    bufio.NewReaderSize(conn, 64<<10),
		done: make(chan struct{}),
	}
	if err := c.write(&mqtt.Packet{Type: mqtt.CONNECT, ClientID: clientID, CleanSession: true}); err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mqtt connect: %w", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := mqtt.ReadPacket(c.r)
	if err != nil || ack.Type != mqtt.CONNACK || ack.ReturnCode != mqtt.ConnAccepted {
		conn.Close()
		return nil, fmt.Errorf("mqtt connack: %v (%+v)", err, ack)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return c, nil
}

func (c *mqttClient) write(p *mqtt.Packet) error {
	raw, err := p.Encode()
	if err != nil {
		return err
	}
	_, err = c.w.Write(raw)
	return err
}

// publish buffers one QoS 1 PUBLISH; flush puts the buffer on the wire.
func (c *mqttClient) publish(topic string, payload []byte, pid uint16) error {
	return c.write(&mqtt.Packet{Type: mqtt.PUBLISH, Topic: topic, Payload: payload, QoS: 1, PacketID: pid})
}

func (c *mqttClient) flush() error { return c.w.Flush() }

// readAcks runs the PUBACK reader until the connection closes.
func (c *mqttClient) readAcks(onAck func(pid uint16, at time.Time)) {
	defer close(c.done)
	for {
		p, err := mqtt.ReadPacket(c.r)
		if err != nil {
			c.err = err
			return
		}
		if p.Type == mqtt.PUBACK {
			onAck(p.PacketID, time.Now())
		}
	}
}

// close disconnects and waits for the reader to exit.
func (c *mqttClient) close() {
	_ = c.write(&mqtt.Packet{Type: mqtt.DISCONNECT})
	_ = c.w.Flush()
	c.conn.Close()
	<-c.done
}
