// Package agent implements the SWAMP IoT agent — the stand-in for the
// FIWARE IoT Agent (UltraLight 2.0 flavour). It bridges the device world
// (short UL payloads on MQTT topics, per-device API keys, optional secchan
// envelopes) to the context world (NGSI entities and attributes), and
// routes southbound actuator commands back over MQTT. It runs inside the
// MQTT broker's process, attached to it directly rather than through a
// client session.
package agent

import (
	"fmt"
	"math"
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

// DecodeUL parses an UltraLight 2.0 payload into a measurement map. Values
// must be finite: strconv accepts "NaN" and "Inf", but no sensor measures
// them and one NaN poisons every running baseline downstream.
func DecodeUL(s string) (map[string]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("agent: empty UL payload")
	}
	parts := strings.Split(s, "|")
	if len(parts)%2 != 0 {
		return nil, fmt.Errorf("agent: UL payload with %d fields (odd)", len(parts))
	}
	out := make(map[string]float64, len(parts)/2)
	for i := 0; i < len(parts); i += 2 {
		key := parts[i]
		if key == "" {
			return nil, fmt.Errorf("agent: UL payload with empty key at field %d", i)
		}
		v, err := strconv.ParseFloat(parts[i+1], 64)
		if err != nil {
			return nil, fmt.Errorf("agent: UL value for %q: %w", key, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("agent: UL value for %q is not finite: %q", key, parts[i+1])
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("agent: UL payload repeats key %q", key)
		}
		out[key] = v
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
