package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"moira/internal/stats"
)

func TestWireSplitRoundTrip(t *testing.T) {
	cases := []struct {
		traceID, spanID, wire string
	}{
		{"t1a2b3c4d-7", "s00000001-3", "t1a2b3c4d-7/s00000001-3"},
		{"t1a2b3c4d-7", "", "t1a2b3c4d-7"}, // bare v2 field
		{"", "", ""},
	}
	for _, c := range cases {
		if got := Wire(c.traceID, c.spanID); got != c.wire {
			t.Errorf("Wire(%q, %q) = %q, want %q", c.traceID, c.spanID, got, c.wire)
		}
		tr, sp := Split(c.wire)
		if tr != c.traceID || sp != c.spanID {
			t.Errorf("Split(%q) = %q, %q, want %q, %q", c.wire, tr, sp, c.traceID, c.spanID)
		}
	}
	// A field with several slashes splits at the first: everything after
	// it is the caller's span ID verbatim.
	tr, sp := Split("a/b/c")
	if tr != "a" || sp != "b/c" {
		t.Errorf("Split(a/b/c) = %q, %q", tr, sp)
	}
}

// TestNilSafety pins the inert-nil contract: instrumentation sites call
// through nil tracers and spans unconditionally, so every method must
// no-op rather than panic.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if got := tr.Start("id", "", "x"); got != nil {
		t.Fatalf("nil Tracer.Start = %v, want nil", got)
	}
	if tr.Traces() != nil {
		t.Error("nil Tracer.Traces() != nil")
	}
	if tr.SlowThreshold() != 0 {
		t.Error("nil Tracer.SlowThreshold() != 0")
	}
	var sp *Span
	sp.SetDetail("d")
	sp.Record("phase", time.Now(), time.Millisecond, 0)
	if sp.TraceID() != "" || sp.SpanID() != "" {
		t.Error("nil span has IDs")
	}
	if c := sp.Child("sub"); c != nil {
		t.Fatalf("nil Span.Child = %v, want nil", c)
	}
	sp.End()
	sp.EndCode(7)
}

func TestSpanTreeLinksAndStore(t *testing.T) {
	reg := stats.NewRegistry()
	tr := New(Options{Process: "test", Slow: -1, Stats: reg}) // keep all
	root := tr.Start("", "caller-span", "server.request")
	root.SetDetail("get_user_by_login")
	child := root.Child("db.snapshot")
	grand := child.Child("db.freeze")
	grand.End()
	child.End()
	root.Record("server.read", time.Now(), 3*time.Millisecond, 0)
	root.End()

	kept := tr.Traces()
	if len(kept) != 1 {
		t.Fatalf("kept traces = %d, want 1", len(kept))
	}
	trec := kept[0]
	if trec.TraceID == "" || trec.TraceID != root.TraceID() {
		t.Errorf("trace ID not minted/propagated: %q vs %q", trec.TraceID, root.TraceID())
	}
	if len(trec.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(trec.Spans))
	}
	// End order: children end before their parent, the root ends last.
	r := trec.Root()
	if r.Name != "server.request" || r.Parent != "caller-span" || r.Detail != "get_user_by_login" {
		t.Errorf("root record wrong: %+v", r)
	}
	byID := map[string]SpanRecord{}
	byName := map[string]SpanRecord{}
	for _, s := range trec.Spans {
		if s.TraceID != trec.TraceID {
			t.Errorf("span %s has trace %q", s.Name, s.TraceID)
		}
		if s.Process != "test" {
			t.Errorf("span %s process = %q", s.Name, s.Process)
		}
		byID[s.SpanID] = s
		byName[s.Name] = s
	}
	if p := byName["db.snapshot"].Parent; byID[p].Name != "server.request" {
		t.Errorf("db.snapshot parent = %q (%s)", p, byID[p].Name)
	}
	if p := byName["db.freeze"].Parent; byID[p].Name != "db.snapshot" {
		t.Errorf("db.freeze parent = %q (%s)", p, byID[p].Name)
	}
	if p := byName["server.read"].Parent; byID[p].Name != "server.request" {
		t.Errorf("server.read parent = %q (%s)", p, byID[p].Name)
	}

	snap := reg.Snapshot()
	if n := snap.Counters["trace.spans"]; n != 4 {
		t.Errorf("trace.spans = %d, want 4", n)
	}
	if n := snap.Counters["trace.kept"]; n != 1 {
		t.Errorf("trace.kept = %d, want 1", n)
	}
	if _, ok := snap.Histograms["span.server.request"]; !ok {
		t.Error("no span.server.request histogram")
	}
}

// TestTailSampling pins the keep decision: errored traces always kept,
// fast successful ones down-sampled 1-in-N.
func TestTailSampling(t *testing.T) {
	reg := stats.NewRegistry()
	tr := New(Options{Slow: time.Hour, SampleN: 2, Stats: reg})

	for i := 0; i < 4; i++ {
		sp := tr.Start(fmt.Sprintf("ok-%d", i), "", "req")
		sp.End()
	}
	if n := len(tr.Traces()); n != 2 {
		t.Errorf("1-in-2 sampling kept %d of 4, want 2", n)
	}

	bad := tr.Start("errored", "", "req")
	bad.EndCode(42)
	if got := tr.Find("errored"); len(got) != 1 {
		t.Fatalf("errored trace not kept: %d", len(got))
	} else if got[0].Root().Code != 42 {
		t.Errorf("root code = %d, want 42", got[0].Root().Code)
	}

	// A child error forces retention even when the root succeeds.
	mixed := tr.Start("child-errored", "", "req")
	ch := mixed.Child("sub")
	ch.EndCode(7)
	mixed.End()
	if got := tr.Find("child-errored"); len(got) != 1 {
		t.Fatalf("child-errored trace not kept: %d", len(got))
	}

	snap := reg.Snapshot()
	if n := snap.Counters["trace.errored"]; n != 2 {
		t.Errorf("trace.errored = %d, want 2", n)
	}
	if n := snap.Counters["trace.sampled.out"]; n != 2 {
		t.Errorf("trace.sampled.out = %d, want 2", n)
	}
}

// TestSlowOpsAlwaysKept: a root at or past the slow threshold is kept
// and counted regardless of sampling.
func TestSlowOpsAlwaysKept(t *testing.T) {
	reg := stats.NewRegistry()
	tr := New(Options{Slow: time.Nanosecond, SampleN: 1 << 20, Stats: reg})
	sp := tr.Start("slowone", "", "req")
	time.Sleep(time.Microsecond)
	sp.End()
	if len(tr.Find("slowone")) != 1 {
		t.Fatal("slow trace not kept")
	}
	if n := reg.Snapshot().Counters["trace.slowops"]; n != 1 {
		t.Errorf("trace.slowops = %d, want 1", n)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Options{Slow: -1, Capacity: 4})
	for i := 0; i < 6; i++ {
		sp := tr.Start(fmt.Sprintf("t%d", i), "", "req")
		sp.End()
	}
	kept := tr.Traces()
	if len(kept) != 4 {
		t.Fatalf("kept = %d, want capacity 4", len(kept))
	}
	for i, trec := range kept {
		want := fmt.Sprintf("t%d", i+2) // oldest two evicted
		if trec.TraceID != want {
			t.Errorf("kept[%d] = %s, want %s", i, trec.TraceID, want)
		}
	}
}

// TestSpanCapPerRoot: runaway instrumentation cannot grow one trace
// without bound.
func TestSpanCapPerRoot(t *testing.T) {
	tr := New(Options{Slow: -1})
	root := tr.Start("big", "", "req")
	for i := 0; i < maxSpansPerRoot+50; i++ {
		root.Child("c").End()
	}
	root.End()
	got := tr.Find("big")
	if len(got) != 1 {
		t.Fatal("trace not kept")
	}
	// Children are capped at maxSpansPerRoot; the root itself is always
	// published on top of the cap (a trace without its root is useless).
	if n := len(got[0].Spans); n != maxSpansPerRoot+1 {
		t.Errorf("spans = %d, want cap %d", n, maxSpansPerRoot+1)
	}
	if got[0].Root().Name != "req" {
		t.Errorf("root = %q, want req", got[0].Root().Name)
	}
}

func TestFindSeveralTreesOneID(t *testing.T) {
	tr := New(Options{Slow: -1})
	for i := 0; i < 3; i++ {
		sp := tr.Start("shared", "", "retry")
		sp.End()
	}
	if n := len(tr.Find("shared")); n != 3 {
		t.Errorf("Find(shared) = %d trees, want 3", n)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		if !strings.HasPrefix(id, "T") || !strings.Contains(id, "-") {
			t.Fatalf("malformed trace ID %q", id)
		}
		seen[id] = true
	}
}
