package core

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/stats"
	"moira/internal/trace"
	"moira/internal/workload"
)

// bootTraced boots a small system that keeps every trace.
func bootTraced(t *testing.T) (*System, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake(time.Unix(600000000, 0))
	cfg := workload.Scaled(80)
	s, err := Boot(Options{Clock: clk, Workload: &cfg, TraceSlow: -1, TraceSampleN: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, clk
}

// TestDCMSpansLinkToAgentInstall follows one traced DCM pass through
// the span store: the dcm.pass root, per-service dcm.cycle children,
// per-host dcm.push children, and — across the update protocol's
// process boundary — the agents' agent.install spans parented on the
// push spans via the wire trace field.
func TestDCMSpansLinkToAgentInstall(t *testing.T) {
	s, _ := bootTraced(t)
	const tid = "tdcmspan1-1"
	if _, err := s.RunDCMTraced(tid); err != nil {
		t.Fatal(err)
	}

	trees := s.Tracer.Find(tid)
	if len(trees) == 0 {
		t.Fatal("no kept traces for the pass trace ID")
	}
	var pass *trace.TraceRecord
	pushSpans := map[string]string{} // span ID -> host detail
	installs := 0
	for _, tr := range trees {
		switch tr.Root().Name {
		case "dcm.pass":
			pass = tr
			for _, sp := range tr.Spans {
				if sp.Name == "dcm.push" {
					pushSpans[sp.SpanID] = sp.Detail
				}
			}
		}
	}
	if pass == nil {
		t.Fatalf("no dcm.pass root among %d trees", len(trees))
	}
	cycles := 0
	for _, sp := range pass.Spans {
		if sp.Name == "dcm.cycle" {
			cycles++
			if sp.Detail == "" {
				t.Error("dcm.cycle span has no service detail")
			}
		}
	}
	if cycles == 0 {
		t.Error("pass recorded no dcm.cycle spans")
	}
	if len(pushSpans) == 0 {
		t.Fatal("pass recorded no dcm.push spans")
	}

	// agent.install spans root their own trees (the agent is the far
	// side of the update protocol) but join the same trace and parent
	// on the push span that carried the wire field. Each install breaks
	// down into its extracts and the service's own reload (exec).
	phases := map[string]int{}
	for _, tr := range trees {
		root := tr.Root()
		if root.Name != "agent.install" {
			continue
		}
		installs++
		for _, sp := range tr.Spans {
			if sp.Parent == root.SpanID {
				phases[sp.Name]++
			}
		}
		host, ok := pushSpans[root.Parent]
		if !ok {
			t.Errorf("agent.install parent %q is not a dcm.push span", root.Parent)
			continue
		}
		if root.Detail == "" || host == "" {
			t.Errorf("install/push details empty: install=%q push=%q", root.Detail, host)
		}
	}
	if installs == 0 {
		t.Fatalf("no agent.install spans joined trace %s (%d trees kept)", tid, len(trees))
	}
	if phases["agent.extract"] == 0 || phases["agent.exec"] == 0 {
		t.Errorf("installs recorded phases %v, want agent.extract and agent.exec", phases)
	}
	for _, h := range []string{"span.agent.extract", "span.agent.exec"} {
		if s.Registry.Histogram(h).Count() == 0 {
			t.Errorf("%s histogram is empty", h)
		}
	}
}

// TestStatsNamesRegistered is the CI gate promised in names.go: walk a
// fully-exercised system's snapshot and fail on any series name the
// registry does not declare. A typo in a metric name, or a new series
// added without declaring it, fails here.
func TestStatsNamesRegistered(t *testing.T) {
	s, _ := bootTraced(t)
	// Exercise every emitting subsystem: RPC requests (reads and an
	// auth failure), a DCM pass with agent installs, journal appends.
	if err := s.AddAccount("audit", "pw", "Au", "Dit"); err != nil {
		t.Fatal(err)
	}
	c, err := s.ClientAs("audit", "pw", "names-test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	if _, err := c.QueryAll("get_user_by_login", "audit"); err != nil {
		t.Fatal(err)
	}
	if err := c.Query("no_such_handle", nil, nil); err == nil {
		t.Fatal("bogus handle succeeded")
	}
	if _, err := s.RunDCM(); err != nil {
		t.Fatal(err)
	}

	var unknown []string
	for _, ln := range s.Registry.Snapshot().Lines() {
		if !stats.KnownName(ln.Name) {
			unknown = append(unknown, ln.Name)
		}
	}
	if len(unknown) > 0 {
		t.Errorf("series not declared in stats.KnownNames: %s", strings.Join(unknown, ", "))
	}
}

// failWriter wedges the journal on first append.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestReadyzFlipsOnJournalWedge: a failed journal append latches the
// database wedged; the journal probe and therefore /readyz must flip,
// while /healthz (liveness) stays 200.
func TestReadyzFlipsOnJournalWedge(t *testing.T) {
	s, _ := bootTraced(t)

	rec := httptest.NewRecorder()
	s.Health.Readyz(rec, nil)
	if rec.Code != 200 {
		t.Fatalf("healthy system /readyz = %d: %s", rec.Code, rec.Body.String())
	}

	s.DB.SetJournal(failWriter{})
	dc := s.Direct("wedge-test")
	if err := dc.Query("add_machine", []string{"wedge.mit.edu", "VAX"}, nil); err == nil {
		t.Fatal("mutation with a failing journal succeeded")
	}

	rec = httptest.NewRecorder()
	s.Health.Readyz(rec, nil)
	if rec.Code != 503 {
		t.Errorf("wedged system /readyz = %d, want 503", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "fail journal") {
		t.Errorf("readyz body does not name the journal probe: %q", body)
	}
	rec = httptest.NewRecorder()
	s.Health.Healthz(rec, nil)
	if rec.Code != 200 {
		t.Errorf("wedged system /healthz = %d, want 200 (liveness)", rec.Code)
	}

	// The in-band handle reports the same failure over the RPC surface.
	var probes [][]string
	dcq := s.Direct("health-test")
	if err := dcq.Query("_health", nil, func(tup []string) error {
		probes = append(probes, append([]string(nil), tup...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range probes {
		if len(p) == 3 && p[0] == "journal" && p[1] == "0" {
			found = true
		}
	}
	if !found {
		t.Errorf("_health did not report the wedged journal: %v", probes)
	}
}

// TestSpansHandleOverRPC: the _spans query handle serves the span store
// to an ordinary client, one span per tuple.
func TestSpansHandleOverRPC(t *testing.T) {
	s, _ := bootTraced(t)
	c, err := s.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	const tid = "tspanrpc1-1"
	c.SetTraceID(tid)
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	err = c.Query("_spans", []string{tid}, func(tup []string) error {
		rows = append(rows, append([]string(nil), tup...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spanIDs := map[string]string{} // span ID -> name
	for _, r := range rows {
		if len(r) != 9 {
			t.Fatalf("_spans tuple arity = %d, want 9: %v", len(r), r)
		}
		if r[0] != tid {
			t.Errorf("tuple trace = %q", r[0])
		}
		spanIDs[r[1]] = r[4]
	}
	// System clients carry the system tracer, so the server.request
	// tuple parents under the client.call tuple in the same store.
	foundLinked := false
	for _, r := range rows {
		if r[4] == "server.request" && spanIDs[r[2]] == "client.call" {
			foundLinked = true
		}
	}
	if !foundLinked {
		t.Errorf("no server.request tuple parented on client.call for %s: %v", tid, rows)
	}
}
