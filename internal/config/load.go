package config

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Source names where a knob's resolved value came from.
type Source string

// Provenance sources, in overlay order.
const (
	SourceDefault Source = "default"
	SourceFile    Source = "file"
	SourceEnv     Source = "env"
	SourceFlag    Source = "flag"
)

// Provenance maps knob name → the layer that set its resolved value.
type Provenance map[string]Source

// Loader resolves a layered configuration: declared defaults, then the
// config file, then SWAMP_* environment variables, then explicitly set
// command-line flags — last writer wins, tracked per knob. A Loader is
// reusable: Load re-reads the file and environment each call, which is
// exactly what a SIGHUP reload wants.
type Loader struct {
	// Path is the config file, in the TOML subset examples/swampd.toml
	// uses. Empty skips the file layer.
	Path string
	// Flags carries explicitly set command-line values; nil skips the
	// flag layer.
	Flags *FlagOverlay
	// Env looks up environment variables; nil means os.Getenv.
	Env func(string) string
}

// Load resolves the full configuration. On validation failure it still
// returns the resolved config (for error reporting) together with an
// Errors aggregate; on file read/parse failure the config is nil.
func (l *Loader) Load() (*Config, Provenance, error) {
	c := Default()
	prov := make(Provenance, len(Fields()))
	for _, f := range Fields() {
		prov[f.Name] = SourceDefault
	}
	var errs Errors

	if l.Path != "" {
		raw, err := os.ReadFile(l.Path)
		if err != nil {
			return nil, nil, fmt.Errorf("config: %w", err)
		}
		ferrs, err := applyFile(c, prov, l.Path, raw)
		if err != nil {
			return nil, nil, err
		}
		errs = append(errs, ferrs...)
	}

	getenv := l.Env
	if getenv == nil {
		getenv = os.Getenv
	}
	for _, f := range Fields() {
		raw := getenv(f.Env)
		if raw == "" {
			continue
		}
		if err := f.Set(c, raw); err != nil {
			errs = append(errs, FieldError{Name: f.Name, Err: fmt.Errorf("%s: %w", f.Env, err)})
			continue
		}
		prov[f.Name] = SourceEnv
	}

	if l.Flags != nil {
		l.Flags.apply(c, prov)
	}

	if verr := Validate(c); verr != nil {
		errs = append(errs, verr.(Errors)...)
	}
	return c, prov, errs.or()
}

// applyFile overlays one config file. Parse errors (unreadable syntax)
// abort; per-key problems (unknown keys, bad values) aggregate so the
// operator sees every mistake at once.
func applyFile(c *Config, prov Provenance, path string, raw []byte) (Errors, error) {
	sections, err := parseTOML(string(raw))
	if err != nil {
		return nil, fmt.Errorf("config: %s: %w", path, err)
	}
	var errs Errors
	for _, section := range sortedKeys(sections) {
		for _, key := range sortedKeys(sections[section]) {
			name := section + "." + key
			if section == quotasSection {
				setQuota(c, prov, key, sections[section][key])
				continue
			}
			f, ok := FieldByName(name)
			if !ok {
				errs = append(errs, FieldError{Name: name, Err: fmt.Errorf("unknown setting")})
				continue
			}
			if err := f.Set(c, sections[section][key]); err != nil {
				errs = append(errs, FieldError{Name: name, Err: err})
				continue
			}
			prov[name] = SourceFile
		}
	}
	return errs, nil
}

// setQuota records one [tenant.quotas] override. Spec syntax is not
// checked here — Validate aggregates ParseSpec failures with every other
// violation, so a bad spec reports alongside bad knobs.
func setQuota(c *Config, prov Provenance, id, spec string) {
	if c.Tenant.Quotas == nil {
		c.Tenant.Quotas = make(map[string]string)
	}
	c.Tenant.Quotas[id] = spec
	prov[quotasSection+"."+id] = SourceFile
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FlagOverlay binds the schema's knobs onto a flag.FlagSet: every knob
// with a flag tag is declared (typed, with its default and usage derived
// from the schema), and after parsing only the flags the user actually
// set overlay the config — an untouched flag never shadows a file or env
// value.
type FlagOverlay struct {
	fs      *flag.FlagSet
	scratch *Config
}

// RegisterFlags declares every schema knob as a flag on fs and returns
// the overlay to pass to Loader.Flags. Call before fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *FlagOverlay {
	o := &FlagOverlay{fs: fs, scratch: Default()}
	for _, f := range Fields() {
		if f.Flag == "" {
			continue
		}
		fs.Var(&fieldFlag{f: f, c: o.scratch}, f.Flag, f.Usage)
	}
	return o
}

// fieldFlag adapts a schema field to flag.Value, parsing with the same
// type rules as the file and env layers.
type fieldFlag struct {
	f *Field
	c *Config
}

func (v *fieldFlag) String() string {
	if v.c == nil {
		return "" // flag package probes with a zero Value
	}
	if d, ok := v.f.Get(v.c).(fmt.Stringer); ok {
		return d.String()
	}
	return fmt.Sprint(v.f.Get(v.c))
}

func (v *fieldFlag) Set(s string) error { return v.f.Set(v.c, s) }

// IsBoolFlag lets bare -sealed work like the stdlib bool flags.
func (v *fieldFlag) IsBoolFlag() bool { return v.f.Kind == KindBool }

func (o *FlagOverlay) apply(c *Config, prov Provenance) {
	set := make(map[string]bool)
	o.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	for _, f := range Fields() {
		if f.Flag == "" || !set[f.Flag] {
			continue
		}
		f.value(c).Set(f.value(o.scratch))
		prov[f.Name] = SourceFlag
	}
}

// Describe renders the resolved config as aligned "name = value (source)"
// lines — the -config-check output.
func Describe(c *Config, prov Provenance) string {
	var b strings.Builder
	width := 0
	for _, f := range Fields() {
		if len(f.Name) > width {
			width = len(f.Name)
		}
	}
	for _, f := range Fields() {
		src := prov[f.Name]
		if src == "" {
			src = SourceDefault
		}
		fmt.Fprintf(&b, "%-*s = %-14s (%s)\n", width, f.Name, f.Format(c), src)
	}
	for _, id := range sortedKeys(c.Tenant.Quotas) {
		name := quotasSection + "." + id
		src := prov[name]
		if src == "" {
			src = SourceFile
		}
		fmt.Fprintf(&b, "%-*s = %-14s (%s)\n", width, name, fmt.Sprintf("%q", c.Tenant.Quotas[id]), src)
	}
	return b.String()
}
