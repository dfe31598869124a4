package config

import (
	"fmt"
	"strings"
)

// FieldError is one validation or parse failure, attributed to a knob.
type FieldError struct {
	// Name is the dotted knob name, or the raw file key for unknown keys.
	Name string
	// Err is the underlying failure.
	Err error
}

func (e FieldError) Error() string { return e.Name + ": " + e.Err.Error() }

// Errors aggregates every violation found in one pass, so a bad config
// file reports all its problems at once instead of one per restart.
type Errors []FieldError

func (e Errors) Error() string {
	if len(e) == 0 {
		return "config: no errors"
	}
	lines := make([]string, len(e))
	for i, fe := range e {
		lines[i] = "  " + fe.Error()
	}
	return fmt.Sprintf("config: %d invalid setting(s):\n%s", len(e), strings.Join(lines, "\n"))
}

// or returns nil when empty, so callers can return it directly.
func (e Errors) or() error {
	if len(e) == 0 {
		return nil
	}
	return e
}

// Validate checks every field's declared bounds plus the cross-field
// rules, aggregating all violations into one Errors value.
func Validate(c *Config) error {
	var errs Errors
	for _, f := range Fields() {
		if err := f.validate(c); err != nil {
			errs = append(errs, FieldError{Name: f.Name, Err: err})
		}
	}
	// Cross-field rules.
	if c.HTTP.DefaultLimit > c.HTTP.QueryCap {
		errs = append(errs, FieldError{
			Name: "http.default_limit",
			Err:  fmt.Errorf("%d exceeds http.query_cap %d", c.HTTP.DefaultLimit, c.HTTP.QueryCap),
		})
	}
	if c.Cluster.MinISR > c.Cluster.Replicas-1 {
		errs = append(errs, FieldError{
			Name: "cluster.min_isr",
			Err: fmt.Errorf("%d exceeds the follower count (cluster.replicas %d includes the leader)",
				c.Cluster.MinISR, c.Cluster.Replicas),
		})
	}
	errs = append(errs, validateQuotas(c)...)
	if c.Cluster.NodeID != "" {
		if c.Cluster.Peers == "" {
			errs = append(errs, FieldError{
				Name: "cluster.peers",
				Err:  fmt.Errorf("required when cluster.node_id is set"),
			})
		} else if !strings.Contains(c.Cluster.Peers, c.Cluster.NodeID+"=") {
			errs = append(errs, FieldError{
				Name: "cluster.peers",
				Err:  fmt.Errorf("must include this node (%s=host:port)", c.Cluster.NodeID),
			})
		}
		if c.Cluster.Listen == "" {
			errs = append(errs, FieldError{
				Name: "cluster.listen",
				Err:  fmt.Errorf("required when cluster.node_id is set"),
			})
		}
		if c.WAL.Dir == "" {
			errs = append(errs, FieldError{
				Name: "wal.dir",
				Err:  fmt.Errorf("replication ships WAL segments; clustering requires a durable WAL"),
			})
		}
	}
	return errs.or()
}

// Diff returns the names of every field whose value differs between the
// two configs, sorted (Fields() is sorted by name).
func Diff(old, new *Config) []string {
	var out []string
	for _, f := range Fields() {
		if f.Get(old) != f.Get(new) {
			out = append(out, f.Name)
		}
	}
	return out
}

// ValidateReload implements the validate-then-swap reload protocol: it
// validates the candidate config, then partitions the changed fields into
// dynamic (applicable live) and static (require a restart). Any static
// change — or any validation failure — rejects the whole reload with an
// aggregated error, and the caller applies nothing.
func ValidateReload(current, candidate *Config) (dynamic []string, err error) {
	var errs Errors
	if verr := Validate(candidate); verr != nil {
		errs = append(errs, verr.(Errors)...)
	}
	for _, name := range Diff(current, candidate) {
		f, _ := FieldByName(name)
		if f.Dynamic {
			dynamic = append(dynamic, name)
			continue
		}
		errs = append(errs, FieldError{
			Name: name,
			Err: fmt.Errorf("static field changed (%s -> %s); restart required",
				f.Format(current), f.Format(candidate)),
		})
	}
	// [tenant.quotas] overrides live outside the registry; any change to
	// the table is dynamic by design (quota retuning is the reload's
	// primary use case).
	dynamic = append(dynamic, diffQuotas(current, candidate)...)
	if len(errs) > 0 {
		return nil, errs
	}
	return dynamic, nil
}
