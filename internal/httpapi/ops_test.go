package httpapi

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/swamp-project/swamp/internal/metrics"
)

func TestOpsReadyzTransitions(t *testing.T) {
	reg := metrics.NewRegistry()
	var readyErr error = errors.New("recovering WAL")
	ops := NewOps(reg, func() error { return readyErr }, nil)
	srv := httptest.NewServer(ops)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("healthz = %d, want 200 while unready (liveness != readiness)", code)
	}
	code, body := get("/readyz")
	if code != 503 || !strings.Contains(body, "recovering WAL") {
		t.Errorf("readyz = %d %q, want 503 naming the reason", code, body)
	}
	readyErr = nil
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("readyz after recovery = %d, want 200", code)
	}

	reg.Counter("mqtt.publish.in").Add(3)
	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, "swamp_mqtt_publish_in 3") {
		t.Errorf("metrics = %d:\n%s", code, body)
	}
}

func TestOpsReload(t *testing.T) {
	reg := metrics.NewRegistry()
	var reloadErr error
	applied := []string{"tenant.burst"}
	ops := NewOps(reg, nil, func() ([]string, error) { return applied, reloadErr })
	srv := httptest.NewServer(ops)
	defer srv.Close()

	post := func() (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	code, body := post()
	if code != 200 || !strings.Contains(body, "tenant.burst") {
		t.Errorf("reload = %d %q", code, body)
	}
	reloadErr = errors.New("static field changed (8 -> 16); restart required")
	code, body = post()
	if code != 422 || !strings.Contains(body, "restart required") {
		t.Errorf("rejected reload = %d %q, want 422 with the rejection detail", code, body)
	}

	// No reload hook → 405.
	none := httptest.NewServer(NewOps(reg, nil, nil))
	defer none.Close()
	resp, err := none.Client().Post(none.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("reload without hook = %d, want 405", resp.StatusCode)
	}
}
