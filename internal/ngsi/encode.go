package ngsi

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the entity's wire form to dst — byte for byte what
// encoding/json produces for the struct (sorted map keys, HTML-safe string
// escaping, ES6 number formatting, RFC 3339 times, metadata omitted when
// empty) — without reflection: the shapes the platform stores (float64,
// int, string, bool and nil values, string metadata) are appended by hand,
// and any other value goes through json.Marshal on its own. It is the one
// encoder behind the northbound listing, the single-entity GET and the
// webhook body; the northbound reads reach it through a stored version's
// memo (appendVersionJSON). A value JSON cannot carry (NaN, ±Inf, a time
// outside years 0–9999) returns an error and leaves dst's contents
// unspecified past its original length.
func (e *Entity) AppendJSON(dst []byte) ([]byte, error) {
	if e == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, e.ID)
	dst = append(dst, `,"type":`...)
	dst = AppendJSONString(dst, e.Type)
	dst = append(dst, `,"attrs":`...)
	if e.Attrs == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '{')
	var stack [16]string
	for i, k := range sortedKeys(e.Attrs, stack[:0]) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = e.Attrs[k].appendJSON(dst); err != nil {
			return dst, fmt.Errorf("ngsi: encode entity %q attribute %q: %w", e.ID, k, err)
		}
	}
	return append(dst, "}}"...), nil
}

// appendVersionJSON appends the wire form of e, a version the broker
// stored, from its memo: the first call encodes the version and keeps the
// bytes, every later call copies them. A version never changes once
// stored, so the memo never goes stale; a write publishes a new version
// with an empty memo. An encoding that fails is not kept, so such a
// version fails the same way on every read. Concurrent first reads may
// both encode; they keep identical bytes.
func (e *Entity) appendVersionJSON(dst []byte) ([]byte, error) {
	if enc, ok := e.enc.Load().([]byte); ok {
		return append(dst, enc...), nil
	}
	out, err := e.AppendJSON(dst)
	if err == nil {
		e.enc.Store(slices.Clone(out[len(dst):]))
	}
	return out, err
}

func (a Attribute) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"type":`...)
	dst = AppendJSONString(dst, a.Type)
	dst = append(dst, `,"value":`...)
	switch v := a.Value.(type) {
	case nil:
		dst = append(dst, "null"...)
	case float64:
		var err error
		if dst, err = AppendJSONFloat(dst, v); err != nil {
			return dst, err
		}
	case int:
		dst = strconv.AppendInt(dst, int64(v), 10)
	case string:
		dst = AppendJSONString(dst, v)
	case bool:
		dst = strconv.AppendBool(dst, v)
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			return dst, err
		}
		dst = append(dst, raw...)
	}
	if len(a.Metadata) > 0 {
		dst = append(dst, `,"metadata":{`...)
		var stack [8]string
		for i, k := range sortedKeys(a.Metadata, stack[:0]) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, k)
			dst = append(dst, ':')
			dst = AppendJSONString(dst, a.Metadata[k])
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"at":"`...)
	out, err := a.At.AppendText(dst)
	if err != nil {
		return dst, err
	}
	return append(out, `"}`...), nil
}

// sortedKeys appends m's keys to buf in ascending order. Callers pass a
// slice of a stack array, so a map of typical size sorts without a heap
// allocation.
func sortedKeys[V any](m map[string]V, buf []string) []string {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// AppendJSONFloat formats like encoding/json: ES6 number-to-string, i.e.
// %f between 1e-6 and 1e21 and %e outside, exponent without zero padding.
// NaN and ±Inf have no JSON form: they return an error and leave dst as it
// was.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// AppendJSONString quotes s like encoding/json with HTML escaping on:
// control bytes, '"', '\\', '<', '>' and '&' are escaped, invalid UTF-8
// becomes U+FFFD, and U+2028/U+2029 are written as \u escapes.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == 0x2028 || c == 0x2029: // line and paragraph separator
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
