// Package tenant is the platform's multi-tenancy plane: one canonical
// tenant identity (ID) resolved once at each door that authenticates one
// (OAuth principal, MQTT credentials), plus the admission controller
// that enforces per-tenant quotas there by pacing, then refusing
// (DESIGN.md §11).
//
// A tenant is the paper's unit of isolation — one farm/pilot sharing the
// cloud and fog infrastructure with others. Before this package, tenant
// identity was smeared across ad-hoc `owner string` fields; ID replaces
// them with one typed value that marshals exactly like the strings it
// replaced, so every JSON wire format (subscription bodies, WAL records,
// cluster DTOs) is unchanged.
package tenant

import (
	"encoding/json"
	"fmt"
)

// ID is a canonical tenant identity — the farm / pilot a principal,
// device, subscription or request acts for. The zero value None means
// "no tenant": internal platform wiring, infrastructure clients and
// pre-auth traffic.
//
// ID deliberately marshals as a bare JSON string, byte-identical to the
// `owner string` fields it replaced, so wire formats and WAL segments
// written before the refactor parse unchanged.
type ID string

// None is the zero ID: no tenant attributed (internal/platform traffic).
const None ID = ""

// String returns the raw identity.
func (id ID) String() string { return string(id) }

// IsNone reports whether the ID is the zero "no tenant" value.
func (id ID) IsNone() bool { return id == None }

// MarshalJSON encodes the ID as a plain JSON string. This shim pins the
// wire format: a tenant.ID serializes byte-identically to the ad-hoc
// owner strings that predate it (see the deprecation note in doc.go).
func (id ID) MarshalJSON() ([]byte, error) {
	return json.Marshal(string(id))
}

// UnmarshalJSON decodes a plain JSON string into the ID.
func (id *ID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("tenant: id must be a JSON string: %w", err)
	}
	*id = ID(s)
	return nil
}
