// Package agent implements the SWAMP IoT agent — the stand-in for the
// FIWARE IoT Agent (UltraLight 2.0 flavour). It bridges the device world
// (short UL payloads on MQTT topics, per-device API keys, optional secchan
// envelopes) to the context world (NGSI entities and attributes), and
// routes southbound actuator commands back over MQTT. It runs inside the
// MQTT broker's process, attached to it directly rather than through a
// client session.
package agent

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// EncodeUL renders a measurement map as an UltraLight 2.0 payload:
// "k1|v1|k2|v2", keys sorted for determinism.
func EncodeUL(values map[string]float64) string {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(k)
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(values[k], 'g', -1, 64))
	}
	return b.String()
}

// ulMeasure is one decoded UltraLight measurement. key aliases the
// payload it was decoded from.
type ulMeasure struct {
	key   []byte
	value float64
}

// decodeUL parses an UltraLight 2.0 payload, "k1|v1|k2|v2", appending its
// measurements to out. It copies nothing: the keys alias p. Values must be
// finite: strconv accepts "NaN" and "Inf", but no sensor measures them and
// one NaN poisons every running baseline downstream. A key may appear once.
func decodeUL(p []byte, out []ulMeasure) ([]ulMeasure, error) {
	if len(p) == 0 {
		return out, fmt.Errorf("agent: empty UL payload")
	}
	if n := bytes.Count(p, []byte{'|'}) + 1; n%2 != 0 {
		return out, fmt.Errorf("agent: UL payload with %d fields (odd)", n)
	}
	first := len(out)
	for field, more := 0, true; more; field += 2 {
		var key, val []byte
		key, p, _ = cutField(p) // the field count is even: a value follows
		val, p, more = cutField(p)
		if len(key) == 0 {
			return out, fmt.Errorf("agent: UL payload with empty key at field %d", field)
		}
		v, err := strconv.ParseFloat(string(val), 64)
		if err != nil {
			return out, fmt.Errorf("agent: UL value for %q: %w", string(key), err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("agent: UL value for %q is not finite: %q", string(key), string(val))
		}
		out = append(out, ulMeasure{key: key, value: v})
	}
	got := out[first:]
	slices.SortFunc(got, func(a, b ulMeasure) int { return bytes.Compare(a.key, b.key) })
	for i := 1; i < len(got); i++ {
		if bytes.Equal(got[i-1].key, got[i].key) {
			return out, fmt.Errorf("agent: UL payload repeats key %q", string(got[i].key))
		}
	}
	return out, nil
}

// cutField splits p at its first '|'.
func cutField(p []byte) (field, rest []byte, more bool) {
	if i := bytes.IndexByte(p, '|'); i >= 0 {
		return p[:i], p[i+1:], true
	}
	return p, nil, false
}

// DecodeUL parses an UltraLight 2.0 payload into a measurement map, as
// decodeUL does.
func DecodeUL(s string) (map[string]float64, error) {
	var buf [8]ulMeasure
	ms, err := decodeUL([]byte(s), buf[:0])
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[string(m.key)] = m.value
	}
	return out, nil
}

// EncodeCommand renders a southbound command in UL command syntax:
// "device@name|value".
func EncodeCommand(deviceID, name string, value float64) string {
	return deviceID + "@" + name + "|" + strconv.FormatFloat(value, 'g', -1, 64)
}

// DecodeCommand parses "device@name|value".
func DecodeCommand(s string) (deviceID, name string, value float64, err error) {
	at := strings.IndexByte(s, '@')
	if at <= 0 {
		return "", "", 0, fmt.Errorf("agent: command %q missing device prefix", s)
	}
	deviceID = s[:at]
	rest := s[at+1:]
	bar := strings.IndexByte(rest, '|')
	if bar <= 0 || bar == len(rest)-1 {
		return "", "", 0, fmt.Errorf("agent: command %q missing name|value", s)
	}
	name = rest[:bar]
	value, err = strconv.ParseFloat(rest[bar+1:], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("agent: command value in %q: %w", s, err)
	}
	return deviceID, name, value, nil
}

// Topic layout, following the IoT Agent MQTT convention.

// AttrsTopic is the northbound measurement topic for a device.
func AttrsTopic(apiKey, deviceID string) string {
	return "ul/" + apiKey + "/" + deviceID + "/attrs"
}

// CmdTopic is the southbound command topic for a device.
func CmdTopic(apiKey, deviceID string) string {
	return "ul/" + apiKey + "/" + deviceID + "/cmd"
}

// AttrsFilter subscribes to every device's measurements.
const AttrsFilter = "ul/+/+/attrs"

// ParseAttrsTopic extracts (apiKey, deviceID) from an attrs topic.
func ParseAttrsTopic(topic string) (apiKey, deviceID string, err error) {
	parts := strings.Split(topic, "/")
	if len(parts) != 4 || parts[0] != "ul" || parts[3] != "attrs" {
		return "", "", fmt.Errorf("agent: %q is not an attrs topic", topic)
	}
	if parts[1] == "" || parts[2] == "" {
		return "", "", fmt.Errorf("agent: attrs topic %q with empty segment", topic)
	}
	return parts[1], parts[2], nil
}
