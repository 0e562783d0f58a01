package health

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"moira/internal/stats"
)

func TestEmptyCheckerIsReady(t *testing.T) {
	c := NewChecker()
	ready, sts := c.Ready()
	if !ready || len(sts) != 0 {
		t.Errorf("empty checker: ready=%v statuses=%v", ready, sts)
	}
}

func TestNilCheckerIsSafe(t *testing.T) {
	var c *Checker
	if sts := c.Check(); sts != nil {
		t.Errorf("nil checker Check = %v, want nil", sts)
	}
}

func TestProbesRunInRegistrationOrder(t *testing.T) {
	c := NewChecker()
	c.AddFunc("first", func() (bool, string) { return true, "a" })
	c.Add(func() Status { return Status{Name: "second", OK: true, Detail: "b"} })
	c.AddFunc("third", func() (bool, string) { return false, "broken" })

	sts := c.Check()
	if len(sts) != 3 {
		t.Fatalf("statuses = %d, want 3", len(sts))
	}
	for i, want := range []string{"first", "second", "third"} {
		if sts[i].Name != want {
			t.Errorf("status[%d] = %s, want %s", i, sts[i].Name, want)
		}
	}
	if ready, _ := c.Ready(); ready {
		t.Error("checker with a failing probe reported ready")
	}
}

// TestReadyzFlips drives the readiness endpoint through a probe state
// change: 200 while passing, 503 with the failing probe named once it
// fails, and back.
func TestReadyzFlips(t *testing.T) {
	var wedged atomic.Bool
	c := NewChecker()
	c.AddFunc("journal", func() (bool, string) {
		if wedged.Load() {
			return false, "wedged"
		}
		return true, "ok"
	})

	get := func() (int, string) {
		rec := httptest.NewRecorder()
		c.Readyz(rec, nil)
		return rec.Code, rec.Body.String()
	}
	if code, body := get(); code != 200 || !strings.HasPrefix(body, "ready\n") {
		t.Errorf("healthy: %d %q", code, body)
	}
	wedged.Store(true)
	code, body := get()
	if code != 503 {
		t.Errorf("wedged: code = %d, want 503", code)
	}
	if !strings.Contains(body, "fail journal wedged") {
		t.Errorf("wedged body missing probe line: %q", body)
	}
	wedged.Store(false)
	if code, _ := get(); code != 200 {
		t.Errorf("recovered: code = %d, want 200", code)
	}
}

// TestHealthzAlwaysOK pins liveness semantics: a failing probe is a
// reason to fail over, not to restart the process, so /healthz stays
// 200 and just reports the detail.
func TestHealthzAlwaysOK(t *testing.T) {
	c := NewChecker()
	c.AddFunc("journal", func() (bool, string) { return false, "wedged" })
	rec := httptest.NewRecorder()
	c.Healthz(rec, nil)
	if rec.Code != 200 {
		t.Errorf("healthz with failing probe = %d, want 200", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "fail journal wedged") {
		t.Errorf("healthz body missing detail: %q", body)
	}
}

// TestServeDebugEndpoint: one Serve call puts the metrics, both probes,
// the registry's expvar and pprof on one address.
func TestServeDebugEndpoint(t *testing.T) {
	if Serve("", "test", nil, nil) != nil {
		t.Error("an empty address served")
	}
	reg := stats.NewRegistry()
	reg.Counter("server.conns.shed").Add(3)
	c := NewChecker()
	c.AddFunc("agent", func() (bool, string) { return false, "draining" })
	addr := Serve("127.0.0.1:0", "test", reg, c)
	if addr == nil {
		t.Fatal("Serve did not bind")
	}
	for _, tc := range []struct {
		path string
		code int
		want string
	}{
		{"/metrics", 200, "moira_server_conns_shed_total 3"},
		{"/healthz", 200, "fail agent draining"},
		{"/readyz", 503, "fail agent draining"},
		{"/debug/vars", 200, `"moira":`},
		{"/debug/pprof/", 200, "goroutine"},
	} {
		resp, err := http.Get("http://" + addr.String() + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: %d, want %d with %q in:\n%.300s", tc.path, resp.StatusCode, tc.code, tc.want, body)
		}
	}
}
