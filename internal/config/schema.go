// Package config is the platform's configuration plane: one typed,
// validated schema covering every operational knob, a layered loader
// (defaults → config file → SWAMP_* environment → command-line flags,
// last writer wins) with per-knob provenance, and the dynamic-reload
// protocol swampd's SIGHUP / POST /admin/reload surface is built on.
//
// The schema is the single source of truth: flag declarations, env
// variable names, defaults, validation bounds and the DESIGN.md knob
// table are all derived from the struct tags below, so a knob added once
// appears in swampd, swamp-sim and the documentation without hand-copied
// declarations.
//
// Tag grammar (on leaf fields):
//
//	knob:"default_msgs_per_sec"  key within the section ([tenant] table key)
//	flag:"tenant-msgs"           command-line flag name
//	default:"1000"               literal default, parsed per field type
//	dynamic:"true"               reloadable at runtime (validate-then-swap)
//	min:"0" max:"100"            numeric bounds (inclusive), type-aware
//	oneof:"a,b,c"                enumerated string values
//	usage:"..."                  one-line help, shared by flags and docs
//
// Environment variable names derive mechanically from the field name:
// section "tenant" + knob "default_msgs_per_sec" →
// SWAMP_TENANT_DEFAULT_MSGS_PER_SEC.
package config

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config is the full resolved configuration, one struct per plane.
type Config struct {
	Server     Server     `section:"server"`
	Log        Log        `section:"log"`
	Timeseries Timeseries `section:"timeseries"`
	WAL        WAL        `section:"wal"`
	HTTP       HTTP       `section:"http"`
	Cluster    Cluster    `section:"cluster"`
	Tenant     Tenant     `section:"tenant"`
	Sim        Sim        `section:"sim"`
}

// Clone returns a deep copy of the config — candidate configs for the
// validate-then-swap reload path and the admin quota API mutate the copy,
// never the live config.
func (c *Config) Clone() *Config {
	out := *c
	if c.Tenant.Quotas != nil {
		out.Tenant.Quotas = make(map[string]string, len(c.Tenant.Quotas))
		for k, v := range c.Tenant.Quotas {
			out.Tenant.Quotas[k] = v
		}
	}
	return &out
}

// Server configures the swampd daemon itself.
type Server struct {
	Listen     string        `knob:"listen" flag:"listen" default:"127.0.0.1:1883" usage:"MQTT TCP listen address"`
	HTTPListen string        `knob:"http_listen" flag:"http" default:"127.0.0.1:8026" usage:"HTTP API listen address (empty disables)"`
	Pilot      string        `knob:"pilot" flag:"pilot" default:"matopiba" usage:"pilot: matopiba, guaspari, intercrop, cbec"`
	Mode       string        `knob:"mode" flag:"mode" default:"farm-fog" oneof:"cloud-only,farm-fog,mobile-fog" usage:"deployment mode"`
	Interval   time.Duration `knob:"interval" flag:"interval" default:"2s" min:"1ms" usage:"sensor sampling / decision interval"`
	Sealed     bool          `knob:"sealed" flag:"sealed" default:"false" usage:"enable secchan payload encryption"`
}

// Log configures structured logging.
type Log struct {
	Level  string `knob:"level" flag:"log-level" default:"info" oneof:"debug,info,warn,error" usage:"minimum log level"`
	Format string `knob:"format" flag:"log-format" default:"text" oneof:"text,json" usage:"log output format"`
}

// Timeseries configures the telemetry plane (internal/timeseries).
type Timeseries struct {
	Retention time.Duration `knob:"retention" flag:"ts-retention" default:"0s" min:"0s" dynamic:"true" usage:"age-based telemetry retention (0 keeps everything; evicted every min(retention, 1m))"`
}

// WAL configures the durability plane (internal/wal).
type WAL struct {
	Dir              string        `knob:"dir" flag:"wal-dir" default:"" usage:"WAL+snapshot directory (empty = in-memory only; existing state is recovered on start)"`
	SnapshotInterval time.Duration `knob:"snapshot_interval" flag:"snapshot-interval" default:"5m" dynamic:"true" usage:"snapshot + WAL truncation cadence (negative disables periodic snapshots)"`
}

// HTTP configures the northbound API server (internal/httpapi).
type HTTP struct {
	QueryCap     int `knob:"query_cap" flag:"query-cap" default:"1000" min:"1" usage:"hard cap on /v2/entities page sizes and offsets"`
	DefaultLimit int `knob:"default_limit" flag:"query-default-limit" default:"100" min:"1" usage:"page size applied when a listing names none"`
}

// Cluster configures the cluster plane (internal/cluster). Topology
// (node_id, peers, listen, partitions, replicas) is static for a
// process's lifetime; the safety/liveness trade-offs (ack_timeout,
// max_ready_lag) are dynamic.
type Cluster struct {
	NodeID      string        `knob:"node_id" flag:"cluster-node" default:"" usage:"this node's cluster identity (empty disables clustering)"`
	Peers       string        `knob:"peers" flag:"cluster-peers" default:"" usage:"comma-separated peer replication endpoints, id=host:port (must include this node)"`
	Listen      string        `knob:"listen" flag:"cluster-listen" default:"" usage:"replication TCP listen address"`
	Partitions  int           `knob:"partitions" flag:"cluster-partitions" default:"16" min:"1" usage:"consistent-hash partition count (identical on every node)"`
	Replicas    int           `knob:"replicas" flag:"cluster-replicas" default:"2" min:"1" usage:"replicas per partition, leader included"`
	MinISR      int           `knob:"min_isr" flag:"cluster-min-isr" default:"1" min:"0" usage:"follower acks required before a write is acknowledged (0 = leader-local durability only)"`
	AckTimeout  time.Duration `knob:"ack_timeout" flag:"cluster-ack-timeout" default:"5s" min:"1ms" dynamic:"true" usage:"how long a leader waits for min_isr follower acks before failing the write"`
	MaxReadyLag int64         `knob:"max_ready_lag" flag:"cluster-max-ready-lag" default:"100000" min:"0" dynamic:"true" usage:"replication lag in records above which /readyz reports 503 (0 disables the gate)"`
}

// Tenant configures the multi-tenant admission plane (internal/tenant,
// DESIGN.md §11). The default_* knobs form the quota applied to any
// tenant without an explicit override; per-tenant overrides live in the
// [tenant.quotas] table (tenant id → compact spec string, e.g.
// "msgs=500,bytes=1048576"), which is not a registry field — arbitrary
// keys don't fit the schema — but is loaded, validated and reloaded
// through the same layered path. Every knob here is dynamic: admission
// policy is exactly the kind of thing operators retune under load.
type Tenant struct {
	Enabled                bool          `knob:"enabled" flag:"tenant-admission" default:"false" dynamic:"true" usage:"enforce per-tenant admission control where MQTT publishes and HTTP requests come in"`
	DefaultMsgsPerSec      int           `knob:"default_msgs_per_sec" flag:"tenant-msgs" default:"1000" min:"0" dynamic:"true" usage:"per-tenant sustained message budget across all ingress points (0 suspends unlisted tenants)"`
	DefaultBytesPerSec     int64         `knob:"default_bytes_per_sec" flag:"tenant-bytes" default:"1048576" min:"0" dynamic:"true" usage:"per-tenant sustained payload-byte budget (0 leaves bytes unenforced)"`
	DefaultInflight        int           `knob:"default_inflight" flag:"tenant-inflight" default:"64" min:"0" dynamic:"true" usage:"per-tenant concurrent HTTP request bound (0 = unenforced)"`
	DefaultSubscriptions   int           `knob:"default_subscriptions" flag:"tenant-subs" default:"32" min:"0" dynamic:"true" usage:"per-tenant bound on live NGSI subscriptions plus MQTT topic filters, counted while admission is off too (0 = unenforced)"`
	DefaultWebhookSharePct int           `knob:"default_webhook_share_pct" flag:"tenant-webhook-share" default:"50" min:"0" max:"100" dynamic:"true" usage:"per-tenant share of each webhook queue in percent (0 or 100 = full queue)"`
	Burst                  time.Duration `knob:"burst" flag:"tenant-burst" default:"2s" min:"100ms" dynamic:"true" usage:"token-bucket burst window: a tenant may spend this much quota ahead of its sustained rate"`

	// Quotas holds per-tenant overrides from the [tenant.quotas] table
	// and the admin quota API: tenant id → spec string parsed by
	// tenant.ParseSpec. Not a schema field (knob:"-"): its keys are
	// operator-defined, so it bypasses the registry but shares the
	// load/validate/reload path.
	Quotas map[string]string `knob:"-"`
}

// Sim configures simulation-only behaviour shared by swampd and swamp-sim.
type Sim struct {
	Seed            int64         `knob:"seed" flag:"seed" default:"1" usage:"seed driving every stochastic component (swampd: 0 derives from the clock)"`
	BackhaulLatency time.Duration `knob:"backhaul_latency" flag:"backhaul-latency" default:"0s" min:"0s" usage:"one-way farm-cloud backhaul latency"`
}

// Kind is a field's parse/format type.
type Kind int

// Field kinds.
const (
	KindInt Kind = iota
	KindInt64
	KindBool
	KindString
	KindDuration
)

// Field describes one knob derived from the schema's struct tags.
type Field struct {
	// Name is the dotted path, e.g. "tenant.default_msgs_per_sec".
	Name string
	// Section and Key split Name at the dot.
	Section, Key string
	// Flag is the command-line flag name.
	Flag string
	// Env is the environment variable name (SWAMP_TENANT_DEFAULT_MSGS_PER_SEC).
	Env string
	// Usage is the one-line help string.
	Usage string
	// Dynamic marks the field reloadable at runtime.
	Dynamic bool
	// Kind selects parsing/formatting.
	Kind Kind
	// Default is the literal default from the tag.
	Default string

	index          []int
	minSet, maxSet bool
	minVal, maxVal int64 // for numeric/duration kinds
	oneof          []string
}

var (
	registryOnce sync.Once
	registry     []*Field
	byName       map[string]*Field
	byFlag       map[string]*Field
)

var durationType = reflect.TypeOf(time.Duration(0))

// Fields returns every schema field, sorted by Name. The slice is shared:
// callers must not mutate it.
func Fields() []*Field {
	buildRegistry()
	return registry
}

// FieldByName returns the field with the given dotted name.
func FieldByName(name string) (*Field, bool) {
	buildRegistry()
	f, ok := byName[name]
	return f, ok
}

func buildRegistry() {
	registryOnce.Do(func() {
		byName = make(map[string]*Field)
		byFlag = make(map[string]*Field)
		ct := reflect.TypeOf(Config{})
		for si := 0; si < ct.NumField(); si++ {
			sf := ct.Field(si)
			section := sf.Tag.Get("section")
			if section == "" {
				panic("config: section struct without section tag: " + sf.Name)
			}
			st := sf.Type
			for fi := 0; fi < st.NumField(); fi++ {
				lf := st.Field(fi)
				key := lf.Tag.Get("knob")
				if key == "-" {
					// Opt-out for fields the registry cannot carry
					// (operator-keyed tables like tenant.Quotas); they
					// get bespoke load/validate handling instead.
					continue
				}
				if key == "" {
					panic("config: field without knob tag: " + section + "." + lf.Name)
				}
				f := &Field{
					Name:    section + "." + key,
					Section: section,
					Key:     key,
					Flag:    lf.Tag.Get("flag"),
					Env:     "SWAMP_" + strings.ToUpper(section) + "_" + strings.ToUpper(key),
					Usage:   lf.Tag.Get("usage"),
					Dynamic: lf.Tag.Get("dynamic") == "true",
					Default: lf.Tag.Get("default"),
					index:   []int{si, fi},
				}
				switch {
				case lf.Type == durationType:
					f.Kind = KindDuration
				case lf.Type.Kind() == reflect.Int:
					f.Kind = KindInt
				case lf.Type.Kind() == reflect.Int64:
					f.Kind = KindInt64
				case lf.Type.Kind() == reflect.Bool:
					f.Kind = KindBool
				case lf.Type.Kind() == reflect.String:
					f.Kind = KindString
				default:
					panic("config: unsupported field type " + lf.Type.String() + " for " + f.Name)
				}
				if tag, ok := lf.Tag.Lookup("min"); ok {
					f.minSet = true
					f.minVal = mustParseBound(f, tag)
				}
				if tag, ok := lf.Tag.Lookup("max"); ok {
					f.maxSet = true
					f.maxVal = mustParseBound(f, tag)
				}
				if tag, ok := lf.Tag.Lookup("oneof"); ok {
					f.oneof = strings.Split(tag, ",")
				}
				registry = append(registry, f)
				byName[f.Name] = f
				if f.Flag != "" {
					if dup, clash := byFlag[f.Flag]; clash {
						panic("config: duplicate flag " + f.Flag + " (" + dup.Name + ", " + f.Name + ")")
					}
					byFlag[f.Flag] = f
				}
			}
		}
		sort.Slice(registry, func(i, j int) bool { return registry[i].Name < registry[j].Name })
		// Sanity: defaults must parse and validate.
		c := &Config{}
		for _, f := range registry {
			if err := f.Set(c, f.Default); err != nil {
				panic("config: bad default for " + f.Name + ": " + err.Error())
			}
		}
	})
}

func mustParseBound(f *Field, tag string) int64 {
	switch f.Kind {
	case KindDuration:
		d, err := time.ParseDuration(tag)
		if err != nil {
			panic("config: bad duration bound on " + f.Name + ": " + tag)
		}
		return int64(d)
	case KindInt, KindInt64:
		n, err := strconv.ParseInt(tag, 10, 64)
		if err != nil {
			panic("config: bad numeric bound on " + f.Name + ": " + tag)
		}
		return n
	default:
		panic("config: bound tag on non-numeric field " + f.Name)
	}
}

// Default returns a Config with every field at its declared default.
func Default() *Config {
	buildRegistry()
	c := &Config{}
	for _, f := range registry {
		_ = f.Set(c, f.Default) // defaults are panic-checked at registry build
	}
	return c
}

func (f *Field) value(c *Config) reflect.Value {
	return reflect.ValueOf(c).Elem().FieldByIndex(f.index)
}

// Set parses raw per the field's kind and stores it into c. It does not
// validate bounds — Validate aggregates that across the whole config.
func (f *Field) Set(c *Config, raw string) error {
	v := f.value(c)
	switch f.Kind {
	case KindDuration:
		d, err := time.ParseDuration(strings.TrimSpace(raw))
		if err != nil {
			return fmt.Errorf("invalid duration %q (use Go syntax: 250ms, 2s, 5m)", raw)
		}
		v.SetInt(int64(d))
	case KindInt, KindInt64:
		n, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return fmt.Errorf("invalid integer %q", raw)
		}
		v.SetInt(n)
	case KindBool:
		b, err := strconv.ParseBool(strings.TrimSpace(raw))
		if err != nil {
			return fmt.Errorf("invalid boolean %q", raw)
		}
		v.SetBool(b)
	case KindString:
		v.SetString(raw)
	}
	return nil
}

// Get returns the field's current value as a comparable any.
func (f *Field) Get(c *Config) any {
	v := f.value(c)
	switch f.Kind {
	case KindDuration:
		return time.Duration(v.Int())
	case KindInt:
		return int(v.Int())
	case KindInt64:
		return v.Int()
	case KindBool:
		return v.Bool()
	default:
		return v.String()
	}
}

// Format renders the field's current value the way a config file would
// spell it.
func (f *Field) Format(c *Config) string {
	switch val := f.Get(c).(type) {
	case time.Duration:
		return fmt.Sprintf("%q", val.String())
	case string:
		return fmt.Sprintf("%q", val)
	default:
		return fmt.Sprint(val)
	}
}

// validate checks one field's bounds against the config.
func (f *Field) validate(c *Config) error {
	switch f.Kind {
	case KindInt, KindInt64, KindDuration:
		n := f.value(c).Int()
		if f.minSet && n < f.minVal {
			return fmt.Errorf("%s is below minimum %s", f.formatVal(n), f.formatVal(f.minVal))
		}
		if f.maxSet && n > f.maxVal {
			return fmt.Errorf("%s is above maximum %s", f.formatVal(n), f.formatVal(f.maxVal))
		}
	case KindString:
		if len(f.oneof) > 0 {
			s := f.value(c).String()
			for _, ok := range f.oneof {
				if s == ok {
					return nil
				}
			}
			return fmt.Errorf("%q is not one of %s", f.value(c).String(), strings.Join(f.oneof, ", "))
		}
	}
	return nil
}

func (f *Field) formatVal(n int64) string {
	if f.Kind == KindDuration {
		return time.Duration(n).String()
	}
	return strconv.FormatInt(n, 10)
}
