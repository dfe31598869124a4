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
// webhook body. A value JSON cannot carry (NaN, ±Inf, a time outside years
// 0–9999) returns an error and leaves dst's contents unspecified past its
// original length.
func (e *Entity) AppendJSON(dst []byte) ([]byte, error) {
	if e == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, e.ID)
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, e.Type)
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
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = e.Attrs[k].appendJSON(dst); err != nil {
			return dst, fmt.Errorf("ngsi: encode entity %q attribute %q: %w", e.ID, k, err)
		}
	}
	return append(dst, "}}"...), nil
}

func (a Attribute) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"type":`...)
	dst = appendJSONString(dst, a.Type)
	dst = append(dst, `,"value":`...)
	switch v := a.Value.(type) {
	case nil:
		dst = append(dst, "null"...)
	case float64:
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("unsupported value %v", v)
		}
		dst = appendJSONFloat(dst, v)
	case int:
		dst = strconv.AppendInt(dst, int64(v), 10)
	case string:
		dst = appendJSONString(dst, v)
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
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = appendJSONString(dst, a.Metadata[k])
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

// appendJSONFloat formats like encoding/json: ES6 number-to-string, i.e.
// %f between 1e-6 and 1e21 and %e outside, exponent without zero padding.
func appendJSONFloat(dst []byte, f float64) []byte {
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
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s like encoding/json with HTML escaping on:
// control bytes, '"', '\\', '<', '>' and '&' are escaped, invalid UTF-8
// becomes U+FFFD, and U+2028/U+2029 are written as \u escapes.
func appendJSONString(dst []byte, s string) []byte {
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
