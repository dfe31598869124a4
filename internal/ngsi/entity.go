// Package ngsi implements an NGSI-v2-style context broker — the stand-in
// for the FIWARE Orion Context Broker the SWAMP platform is built on. It
// stores context entities (a farm plot, a soil probe, a pivot), accepts
// attribute updates from the IoT agent, and pushes notifications to
// subscribers (the irrigation manager, the fog sync, dashboards) with the
// standard condition/throttling semantics.
package ngsi

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Attribute is one NGSI attribute: a typed value with optional metadata and
// the time it was last updated. Metadata and tree Values (maps, slices) are
// immutable once handed to the context plane: versions and readers share
// them and a Batcher passes them through uncopied, so whoever built one
// never writes to it again. The broker's public write calls copy instead.
type Attribute struct {
	Type     string            `json:"type"`
	Value    any               `json:"value"`
	Metadata map[string]string `json:"metadata,omitempty"`
	At       time.Time         `json:"at"`
}

// Float returns the attribute value as a float64 when it is numeric.
func (a Attribute) Float() (float64, bool) {
	switch v := a.Value.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	}
	return 0, false
}

// Entity is an NGSI context entity: identity, type and attribute map.
type Entity struct {
	ID    string               `json:"id"`
	Type  string               `json:"type"`
	Attrs map[string]Attribute `json:"attrs"`

	// enc memoizes a stored version's wire form ([]byte). It stays empty
	// until the first northbound read of the version fills it
	// (appendVersionJSON), and it is read only for a version the broker
	// stored: an entity a caller builds or copies is encoded afresh.
	enc atomic.Value
}

// Validate reports the first structural problem with the entity header.
func validateEntityKey(id, typ string) error {
	switch {
	case id == "":
		return fmt.Errorf("ngsi: empty entity id")
	case typ == "":
		return fmt.Errorf("ngsi: entity %q: empty type", id)
	case strings.ContainsAny(id, " \t\n"):
		return fmt.Errorf("ngsi: entity id %q contains whitespace", id)
	}
	return nil
}

// project returns the entity restricted to attrs — e itself when attrs is
// empty, otherwise a new entity around a new map whose attribute values
// (and their Metadata) stay shared with e. The result is as read-only as
// e is.
func (e *Entity) project(attrs []string) *Entity {
	if len(attrs) == 0 {
		return e
	}
	cp := &Entity{ID: e.ID, Type: e.Type, Attrs: make(map[string]Attribute, len(attrs))}
	for _, k := range attrs {
		if a, ok := e.Attrs[k]; ok {
			cp.Attrs[k] = a
		}
	}
	return cp
}

// Clone deep-copies the entity so broker internals never alias caller data.
func (e *Entity) Clone() *Entity {
	cp := &Entity{ID: e.ID, Type: e.Type, Attrs: make(map[string]Attribute, len(e.Attrs))}
	for k, a := range e.Attrs {
		cp.Attrs[k] = cloneAttr(a)
	}
	return cp
}

func cloneAttr(a Attribute) Attribute {
	out := a
	if a.Metadata != nil {
		out.Metadata = make(map[string]string, len(a.Metadata))
		for k, v := range a.Metadata {
			out.Metadata[k] = v
		}
	}
	// Values are treated as immutable scalars (float64/string/bool) or
	// JSON-ish trees; deep-copy the tree forms.
	out.Value = cloneValue(a.Value)
	return out
}

func cloneValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		m := make(map[string]any, len(t))
		for k, e := range t {
			m[k] = cloneValue(e)
		}
		return m
	case []any:
		s := make([]any, len(t))
		for i, e := range t {
			s[i] = cloneValue(e)
		}
		return s
	case []float64:
		s := make([]float64, len(t))
		copy(s, t)
		return s
	default:
		return v
	}
}

// AttrNames returns the entity's attribute names, sorted.
func (e *Entity) AttrNames() []string {
	names := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// MatchIDPattern reports whether id matches pattern. A pattern is either an
// exact id or a prefix followed by '*' ("urn:swamp:probe:*").
func MatchIDPattern(pattern, id string) bool {
	if pattern == "" || pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(id, strings.TrimSuffix(pattern, "*"))
	}
	return pattern == id
}
