package cluster

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"github.com/swamp-project/swamp/internal/wal"
)

// decodeFrame decodes one frame with the decoder its type byte names.
func decodeFrame(frame []byte) (any, error) {
	t, body, err := frameType(frame)
	if err != nil {
		return nil, err
	}
	switch t {
	case msgHello:
		return decodeHello(body)
	case msgWelcome:
		return decodeWelcome(body)
	case msgSnapRec:
		return decodeSnapRec(body)
	case msgSnapEnd:
		return decodeSnapEnd(body)
	case msgRecord:
		return decodeRecord(body)
	case msgAck:
		return decodeAck(body)
	case msgFence:
		return decodeFence(body)
	case msgReq:
		return decodeReq(body)
	case msgResp:
		return decodeResp(body)
	}
	return nil, errShortFrame
}

// encodeFrame is decodeFrame's inverse.
func encodeFrame(m any) []byte {
	switch m := m.(type) {
	case helloMsg:
		return encodeHello(nil, m)
	case welcomeMsg:
		return encodeWelcome(nil, m)
	case wal.Record:
		return encodeSnapRec(nil, m)
	case snapEndMsg:
		return encodeSnapEnd(nil, m)
	case recordMsg:
		return encodeRecord(nil, m)
	case ackMsg:
		return encodeAck(nil, m)
	case fenceMsg:
		return encodeFence(nil, m)
	case reqMsg:
		return encodeReq(nil, m)
	case respMsg:
		return encodeResp(nil, m)
	}
	panic("encodeFrame: unknown message")
}

// TestDecodeAllocationBoundedByFrame: a peer-supplied element count
// cannot size an allocation the frame does not back. Every message
// type, decoded from a frame under 16 bytes whose fields are zero but
// for one count of 1<<20 at any offset, allocates under 64 KiB.
func TestDecodeAllocationBoundedByFrame(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<20)
	const maxFrame, budget = 15, 64 << 10
	for typ := msgHello; typ <= msgResp; typ++ {
		for off := 0; 1+off+len(huge) <= maxFrame; off++ {
			frame := make([]byte, 1+off, maxFrame)
			frame[0] = typ
			frame = append(frame, huge...)
			frame = frame[:maxFrame]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = decodeFrame(frame)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
				t.Errorf("type %d, count at offset %d: decoding %d bytes allocated %d bytes", typ, off, len(frame), got)
			}
		}
	}
}

// FuzzClusterFrame: no frame a peer sends panics the decoders, and every
// message that decodes re-encodes to a frame that decodes to the same
// value. The seed corpus holds one encoded frame per message type.
func FuzzClusterFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := decodeFrame(frame)
		if err != nil {
			return
		}
		again, err := decodeFrame(encodeFrame(m))
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message:\n%#v\n%#v", m, again)
		}
	})
}
