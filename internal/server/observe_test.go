package server

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"moira/internal/client"
	"moira/internal/mrerr"
	"moira/internal/queries"
)

// statsMap fetches the `_stats` handle over RPC into a name→value map.
// Because the server records a request's metrics before reading the
// next request on the same connection, the map exactly reflects every
// earlier request issued through the same client.
func statsMap(t *testing.T, c *client.Client) map[string]string {
	t.Helper()
	m := make(map[string]string)
	err := c.Query("_stats", nil, func(tu []string) error {
		if len(tu) == 3 {
			m[tu[1]] = tu[2]
		}
		return nil
	})
	if err != nil {
		t.Fatalf("_stats: %v", err)
	}
	return m
}

func TestServerRequestMetrics(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)

	for i := 0; i < 2; i++ {
		if err := c.Noop(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.QueryAll("_list_queries"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryAll("_hlp", "gubl"); err != nil { // short name resolves
		t.Fatal(err)
	}
	if _, err := c.QueryAll("no_such_query"); err != mrerr.MrNoHandle {
		t.Fatalf("bogus query: %v", err)
	}

	m := statsMap(t, c)
	want := map[string]string{
		"server.requests.noop":        "2",
		"server.requests.query":       "3",
		"server.handle._list_queries": "1",
		"server.handle._help":         "1", // _hlp counted under its long name
		"server.handle.no_such_query": "1",
		"server.errors." + strconv.FormatInt(int64(mrerr.MrNoHandle), 10): "1",
		"server.sessions.active": "1",
	}
	for name, v := range want {
		if m[name] != v {
			t.Errorf("%s = %q, want %q", name, m[name], v)
		}
	}
	if _, ok := m["server.latency.query"]; !ok {
		t.Error("no server.latency.query histogram in _stats")
	}

	// The registry itself has the same counters plus histogram counts.
	snap := w.srv.Registry().Snapshot()
	if h := snap.Histograms["server.latency.noop"]; h.N != 2 {
		t.Errorf("noop latency histogram N = %d, want 2", h.N)
	}
}

func TestAuthFailureCounter(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "auser", "secret")
	c := w.dial(t)
	creds, err := w.kdc.GetTicket("auser", "secret", serverPrincipal)
	if err != nil {
		t.Fatal(err)
	}
	creds.SealedTicket = append([]byte(nil), creds.SealedTicket...)
	if len(creds.SealedTicket) > 0 {
		creds.SealedTicket[0] ^= 0xff
	}
	if err := c.Auth(creds, "test-client"); err == nil {
		t.Fatal("corrupted ticket accepted")
	}
	c2 := w.dial(t)
	m := statsMap(t, c2)
	if m["server.auth.failures"] != "1" {
		t.Errorf("server.auth.failures = %q, want 1", m["server.auth.failures"])
	}
}

func TestSessionGaugeDropsOnDisconnect(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)
	extra := w.dial(t)
	if err := extra.Noop(); err != nil {
		t.Fatal(err)
	}
	if m := statsMap(t, c); m["server.sessions.active"] != "2" {
		t.Fatalf("sessions.active with two clients = %q", m["server.sessions.active"])
	}
	extra.Disconnect()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := statsMap(t, c); m["server.sessions.active"] == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sessions.active never dropped to 1 after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTraceHandleOverRPC(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)
	c.SetTraceID("t-test-42")
	if _, err := c.QueryAll("_list_queries"); err != nil {
		t.Fatal(err)
	}

	var rows [][]string
	err := c.Query("_trace", []string{"t-test-42"}, func(tu []string) error {
		rows = append(rows, append([]string(nil), tu...))
		return nil
	})
	if err != nil {
		t.Fatalf("_trace: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("trace rows = %d, want 1: %v", len(rows), rows)
	}
	r := rows[0]
	if len(r) != 7 || r[1] != "t-test-42" || r[2] != "query" || r[3] != "_list_queries" {
		t.Errorf("trace row = %v", r)
	}

	// The wildcard form returns everything in the ring.
	rows = nil
	err = c.Query("_trace", []string{"*"}, func(tu []string) error {
		rows = append(rows, append([]string(nil), tu...))
		return nil
	})
	if err != nil {
		t.Fatalf("_trace *: %v", err)
	}
	if len(rows) < 2 { // the query above plus its own _trace call at least
		t.Errorf("wildcard trace rows = %d", len(rows))
	}
	if err := c.Query("_trace", []string{"never-issued"}, func([]string) error { return nil }); err != mrerr.MrNoMatch {
		t.Errorf("unknown trace id: %v, want MR_NO_MATCH", err)
	}
}

// TestTriggerDCMForwardsTrace checks the RPC trigger hands the
// client's trace ID to the DCM hook.
func TestTriggerDCMForwardsTrace(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "oper", "pw")
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_member_to_list",
		[]string{queries.AdminList, "USER", "oper"}, func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	c := w.dialAs(t, "oper", "pw")
	c.SetTraceID("t-dcm-7")
	if err := c.TriggerDCM(); err != nil {
		t.Fatal(err)
	}
	if w.dcmFired.Load() != 1 {
		t.Fatalf("fired = %d", w.dcmFired.Load())
	}
	if got, _ := w.dcmTrace.Load().(string); got != "t-dcm-7" {
		t.Errorf("DCM hook got trace %q, want t-dcm-7", got)
	}
}

// TestRequestLogLine checks the per-request -v log line format.
func TestRequestLogLine(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)
	c.SetTraceID("t-log-1")
	if _, err := c.QueryAll("_list_queries"); err != nil {
		t.Fatal(err)
	}
	if err := c.Noop(); err != nil { // barrier: query's observe has run
		t.Fatal(err)
	}
	found := false
	for _, l := range w.logLines() {
		if strings.Contains(l, "op=query") && strings.Contains(l, "handle=_list_queries") &&
			strings.Contains(l, "code=0") && strings.Contains(l, "trace=t-log-1") &&
			strings.Contains(l, "latency=") {
			found = true
		}
	}
	if !found {
		t.Errorf("no request log line for the query; got %q", w.logLines())
	}
}
