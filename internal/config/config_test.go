package config

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeFile(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDefaultsValidate(t *testing.T) {
	if err := Validate(Default()); err != nil {
		t.Fatalf("declared defaults must validate: %v", err)
	}
}

func TestOverlayPrecedence(t *testing.T) {
	// File sets three knobs; env overrides one of them plus a fourth;
	// a flag overrides one of the env values. Last writer wins.
	path := writeFile(t, "swampd.toml", `
[tenant]
default_msgs_per_sec = 1024
default_inflight = 512

[timeseries]
retention = "48h"
`)
	env := map[string]string{
		"SWAMP_TENANT_DEFAULT_MSGS_PER_SEC":  "2048",
		"SWAMP_TENANT_DEFAULT_SUBSCRIPTIONS": "3",
		// A variable naming no schema knob is never looked up.
		"SWAMP_MQTT_FLUSH_WATERMARK": "not-a-number",
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	overlay := RegisterFlags(fs)
	if err := fs.Parse([]string{"-tenant-msgs", "4096"}); err != nil {
		t.Fatal(err)
	}
	l := &Loader{Path: path, Flags: overlay, Env: func(k string) string { return env[k] }}
	c, prov, err := l.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	if got := c.Tenant.DefaultMsgsPerSec; got != 4096 {
		t.Errorf("default_msgs_per_sec = %d, want 4096 (flag beats env beats file)", got)
	}
	if got := c.Tenant.DefaultInflight; got != 512 {
		t.Errorf("default_inflight = %d, want 512 (file)", got)
	}
	if got := c.Timeseries.Retention; got != 48*time.Hour {
		t.Errorf("retention = %s, want 48h (file)", got)
	}
	if got := c.Tenant.DefaultSubscriptions; got != 3 {
		t.Errorf("default_subscriptions = %d, want 3 (env)", got)
	}
	if got := c.Tenant.DefaultBytesPerSec; got != 1<<20 {
		t.Errorf("default_bytes_per_sec = %d, want default 1048576", got)
	}

	wantProv := map[string]Source{
		"tenant.default_msgs_per_sec":  SourceFlag,
		"tenant.default_inflight":      SourceFile,
		"timeseries.retention":         SourceFile,
		"tenant.default_subscriptions": SourceEnv,
		"tenant.default_bytes_per_sec": SourceDefault,
	}
	for name, want := range wantProv {
		if got := prov[name]; got != want {
			t.Errorf("provenance[%s] = %s, want %s", name, got, want)
		}
	}
}

func TestUnsetFlagDoesNotShadowFile(t *testing.T) {
	path := writeFile(t, "swampd.toml", "[tenant]\ndefault_inflight = 99\n")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	overlay := RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	c, _, err := (&Loader{Path: path, Flags: overlay, Env: func(string) string { return "" }}).Load()
	if err != nil {
		t.Fatal(err)
	}
	if c.Tenant.DefaultInflight != 99 {
		t.Fatalf("default_inflight = %d, want 99: declared-but-unset flag shadowed the file", c.Tenant.DefaultInflight)
	}
}

func TestAggregatedErrors(t *testing.T) {
	// Two unknown keys (one never existed, one was deleted from the
	// schema), one unparseable value, one bounds violation, one bad env
	// var: all five must surface in a single error.
	path := writeFile(t, "swampd.toml", `
[mqtt]
bogus_knob = 1
flush_watermark = 8192

[tenant]
default_inflight = "not-a-number"

[http]
default_limit = 0
`)
	env := map[string]string{"SWAMP_TENANT_DEFAULT_SUBSCRIPTIONS": "zero"}
	c, _, err := (&Loader{Path: path, Env: func(k string) string { return env[k] }}).Load()
	if err == nil {
		t.Fatal("want aggregated error, got nil")
	}
	if c == nil {
		t.Fatal("config should still be returned alongside validation errors")
	}
	errs, ok := err.(Errors)
	if !ok {
		t.Fatalf("error type = %T, want Errors", err)
	}
	if len(errs) != 5 {
		t.Fatalf("got %d errors, want 5:\n%v", len(errs), err)
	}
	msg := err.Error()
	for _, frag := range []string{
		"mqtt.bogus_knob: unknown setting",
		"mqtt.flush_watermark: unknown setting",
		"tenant.default_inflight",
		"http.default_limit",
		"tenant.default_subscriptions", "SWAMP_TENANT_DEFAULT_SUBSCRIPTIONS",
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("aggregated error missing %q:\n%s", frag, msg)
		}
	}
}

func TestTOMLParser(t *testing.T) {
	src := `
# full-line comment
[server]
listen = "0.0.0.0:1883"   # trailing comment
pilot = "gua#spari"       # hash inside quotes survives
sealed = true

[log]
level = "debug"
`
	sections, err := parseTOML(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := sections["server"]["listen"]; got != "0.0.0.0:1883" {
		t.Errorf("listen = %q", got)
	}
	if got := sections["server"]["pilot"]; got != "gua#spari" {
		t.Errorf("pilot = %q, want hash preserved inside quotes", got)
	}
	if got := sections["server"]["sealed"]; got != "true" {
		t.Errorf("sealed = %q", got)
	}
	if got := sections["log"]["level"]; got != "debug" {
		t.Errorf("level = %q", got)
	}
	if got, err := parseTOML(`[s]
k = "a\"b\\"  # escaped quote, escaped backslash`); err != nil || got["s"]["k"] != `a"b\` {
		t.Errorf("escapes parsed to %q, %v; want a\"b\\", got["s"]["k"], err)
	}

	for _, bad := range []string{
		"key = 1",                      // key outside any section
		"[server]\nlisten = [1, 2]",    // array
		"[server]\nlisten = 'literal'", // literal string
		"[server]\nlisten = \"open",    // unterminated
		"[server]\nx = 1\nx = 2",       // duplicate key
		"[server\nlisten = \"a\"",      // malformed header
		"[server]\nbad key = 1",        // space in key
		"[server]\nk = \"a\\\\\"b\"",   // the string ends after the escaped backslash
		"[server]\nk = \"a\"b\"",       // unescaped quote
		"[server]\nk = \"a\" b",        // trailing text after the string
	} {
		if _, err := parseTOML(bad); err == nil {
			t.Errorf("parseTOML(%q) accepted invalid input", bad)
		}
	}
}

func TestValidateReloadDynamicOnly(t *testing.T) {
	cur := Default()
	cand := Default()
	cand.Tenant.DefaultMsgsPerSec = 1 << 20
	cand.Tenant.Burst = time.Second
	dynamic, err := ValidateReload(cur, cand)
	if err != nil {
		t.Fatalf("dynamic-only reload rejected: %v", err)
	}
	want := map[string]bool{"tenant.default_msgs_per_sec": true, "tenant.burst": true}
	if len(dynamic) != len(want) {
		t.Fatalf("dynamic = %v, want %v", dynamic, want)
	}
	for _, name := range dynamic {
		if !want[name] {
			t.Errorf("unexpected dynamic field %s", name)
		}
	}
}

func TestValidateReloadRejectsStatic(t *testing.T) {
	cur := Default()
	cand := Default()
	cand.Tenant.DefaultMsgsPerSec = 1 << 20 // dynamic — fine on its own
	cand.HTTP.QueryCap = 500                // static — poisons the reload
	dynamic, err := ValidateReload(cur, cand)
	if err == nil {
		t.Fatal("static change must reject the reload")
	}
	if dynamic != nil {
		t.Fatalf("rejected reload must apply nothing, got dynamic=%v", dynamic)
	}
	if msg := err.Error(); !strings.Contains(msg, "http.query_cap") || !strings.Contains(msg, "restart required") {
		t.Errorf("error should name the static field and demand a restart:\n%s", msg)
	}
}

func TestValidateReloadRejectsInvalidCandidate(t *testing.T) {
	cur := Default()
	cand := Default()
	cand.Tenant.Burst = 0 // below min
	if _, err := ValidateReload(cur, cand); err == nil {
		t.Fatal("invalid candidate must reject the reload")
	}
}

func TestCrossFieldValidation(t *testing.T) {
	c := Default()
	c.HTTP.DefaultLimit = 5000 // exceeds query_cap 1000
	err := Validate(c)
	if err == nil || !strings.Contains(err.Error(), "http.query_cap") {
		t.Fatalf("cross-field violation not reported: %v", err)
	}

	c = Default()
	c.Cluster.MinISR = 2 // replicas defaults to 2: only 1 follower
	if err := Validate(c); err == nil || !strings.Contains(err.Error(), "cluster.min_isr") {
		t.Fatalf("min_isr beyond follower count not reported: %v", err)
	}

	c = Default()
	c.Cluster.NodeID = "n1" // no peers, no listen, no WAL dir
	err = Validate(c)
	if err == nil {
		t.Fatal("clustering without peers/listen/wal.dir not reported")
	}
	for _, want := range []string{"cluster.peers", "cluster.listen", "wal.dir"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("missing %s violation in %v", want, err)
		}
	}

	c = Default()
	c.Cluster.NodeID = "n1"
	c.Cluster.Peers = "n2=a:1,n3=b:1" // self absent
	c.Cluster.Listen = "127.0.0.1:0"
	c.WAL.Dir = t.TempDir()
	if err := Validate(c); err == nil || !strings.Contains(err.Error(), "must include this node") {
		t.Fatalf("peer list without self not reported: %v", err)
	}

	c.Cluster.Peers = "n1=a:1,n2=b:1,n3=c:1"
	if err := Validate(c); err != nil {
		t.Fatalf("valid cluster config rejected: %v", err)
	}
}

func TestOneofAndBounds(t *testing.T) {
	c := Default()
	c.Server.Mode = "peer-to-peer"
	if err := Validate(c); err == nil || !strings.Contains(err.Error(), "server.mode") {
		t.Fatalf("oneof violation not reported: %v", err)
	}

	f, ok := FieldByName("http.default_limit")
	if !ok {
		t.Fatal("missing field")
	}
	c = Default()
	if err := f.Set(c, "0"); err != nil {
		t.Fatal(err) // Set parses; bounds are a Validate concern
	}
	if err := Validate(c); err == nil {
		t.Fatal("default_limit below min accepted")
	}
}

func TestDescribe(t *testing.T) {
	path := writeFile(t, "swampd.toml", "[tenant]\ndefault_inflight = 123\n")
	c, prov, err := (&Loader{Path: path, Env: func(string) string { return "" }}).Load()
	if err != nil {
		t.Fatal(err)
	}
	out := Describe(c, prov)
	if !strings.Contains(out, "tenant.default_inflight") || !strings.Contains(out, "(file)") {
		t.Errorf("Describe missing file-sourced knob:\n%s", out)
	}
	if !strings.Contains(out, "(default)") {
		t.Errorf("Describe missing default-sourced knobs:\n%s", out)
	}
	// Every schema field appears exactly once.
	for _, f := range Fields() {
		if !strings.Contains(out, f.Name+" ") && !strings.Contains(out, f.Name+"=") && !strings.Contains(out, f.Name) {
			t.Errorf("Describe missing %s", f.Name)
		}
	}
}

func TestEnvNamesDerived(t *testing.T) {
	f, ok := FieldByName("tenant.default_msgs_per_sec")
	if !ok {
		t.Fatal("missing field")
	}
	if f.Env != "SWAMP_TENANT_DEFAULT_MSGS_PER_SEC" {
		t.Fatalf("env name = %s", f.Env)
	}
}

func TestDynamicSetMatchesIssueList(t *testing.T) {
	want := map[string]bool{
		"timeseries.retention":  true,
		"wal.snapshot_interval": true,
		"cluster.ack_timeout":   true,
		"cluster.max_ready_lag": true,
		// The whole tenant admission plane is dynamic: quota retuning
		// under load is the reload path's primary use case (PR 10).
		"tenant.enabled":                   true,
		"tenant.default_msgs_per_sec":      true,
		"tenant.default_bytes_per_sec":     true,
		"tenant.default_inflight":          true,
		"tenant.default_subscriptions":     true,
		"tenant.default_webhook_share_pct": true,
		"tenant.burst":                     true,
	}
	got := map[string]bool{}
	for _, f := range Fields() {
		if f.Dynamic {
			got[f.Name] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("dynamic fields = %v, want %v", got, want)
	}
	for name := range want {
		if !got[name] {
			t.Errorf("field %s not marked dynamic", name)
		}
	}
}

func TestMissingFileIsError(t *testing.T) {
	if _, _, err := (&Loader{Path: "/nonexistent/swampd.toml"}).Load(); err == nil {
		t.Fatal("missing config file silently ignored")
	}
}
