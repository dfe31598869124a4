package config

import (
	"fmt"
	"strings"
)

// parseTOML parses the TOML subset the config schema needs: [section]
// tables, key = value pairs (basic strings, integers, booleans; durations
// are quoted strings), full-line and trailing # comments. It returns
// section → key → raw value, where raw string values are already
// unquoted. Anything fancier (arrays, nested tables, multi-line strings)
// is a parse error — the schema has no use for it, and rejecting beats
// silently misreading.
func parseTOML(src string) (map[string]map[string]string, error) {
	out := make(map[string]map[string]string)
	section := ""
	for lineNo, line := range strings.Split(src, "\n") {
		ln := strings.TrimSpace(stripComment(line))
		if ln == "" {
			continue
		}
		if strings.HasPrefix(ln, "[") {
			if !strings.HasSuffix(ln, "]") {
				return nil, fmt.Errorf("line %d: malformed table header %q", lineNo+1, ln)
			}
			section = strings.TrimSpace(ln[1 : len(ln)-1])
			if section == "" || strings.ContainsAny(section, "[]\"'") {
				return nil, fmt.Errorf("line %d: malformed table name %q", lineNo+1, ln)
			}
			if out[section] == nil {
				out[section] = make(map[string]string)
			}
			continue
		}
		eq := strings.Index(ln, "=")
		if eq < 0 {
			return nil, fmt.Errorf("line %d: expected key = value, got %q", lineNo+1, ln)
		}
		key := strings.TrimSpace(ln[:eq])
		if key == "" || strings.ContainsAny(key, " \t\"'") {
			return nil, fmt.Errorf("line %d: malformed key %q", lineNo+1, ln)
		}
		val, err := parseTOMLValue(strings.TrimSpace(ln[eq+1:]))
		if err != nil {
			return nil, fmt.Errorf("line %d: %s: %w", lineNo+1, key, err)
		}
		if section == "" {
			return nil, fmt.Errorf("line %d: key %q outside any [section]", lineNo+1, key)
		}
		if _, dup := out[section][key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %s.%s", lineNo+1, section, key)
		}
		out[section][key] = val
	}
	return out, nil
}

// stripComment removes a trailing # comment, respecting double quotes.
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case '\\':
			if inStr {
				i++ // skip the escaped char
			}
		case '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

// parseTOMLValue unquotes a basic string or passes a bare scalar through
// (validated later against the field's kind).
func parseTOMLValue(v string) (string, error) {
	if v == "" {
		return "", fmt.Errorf("missing value")
	}
	switch v[0] {
	case '"':
		return parseBasicString(v)
	case '\'', '[', '{':
		return "", fmt.Errorf("unsupported TOML value %s (only basic strings, integers and booleans)", v)
	}
	return v, nil
}

// parseBasicString unquotes a basic string. It ends at its first
// unescaped quote, and nothing may follow it. Escapes are minimal:
// \" \\ \t \n.
func parseBasicString(v string) (string, error) {
	var b strings.Builder
	for i := 1; i < len(v); i++ {
		c := v[i]
		if c == '"' {
			if rest := v[i+1:]; rest != "" {
				return "", fmt.Errorf("unexpected %s after string", rest)
			}
			return b.String(), nil
		}
		if c == '\\' && i+1 < len(v) {
			i++
			if c = unescape[v[i]]; c == 0 {
				return "", fmt.Errorf("unsupported escape \\%c", v[i])
			}
		}
		b.WriteByte(c)
	}
	return "", fmt.Errorf("unterminated string %s", v)
}

// unescape maps the byte after a backslash to what it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', 't': '\t', 'n': '\n'}
