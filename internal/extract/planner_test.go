package extract

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/protocol"
)

// kvGen is a minimal Generator over a key/value map the test mutates
// directly: every entry is one logical key "k:<name>" emitting the line
// "<name>=<value>\n" into the single file "out". Journal queries carry
// the affected names as args; the query name "bulk_import" declares
// itself non-incremental.
type kvGen struct {
	data map[string]string
}

func (g *kvGen) Tables() []string { return []string{db.TUsers} }

func (g *kvGen) Build(d *db.DB) (*Model, error) {
	m := NewModel()
	m.Emit("out", "", "static", nil)
	for k, v := range g.data {
		g.emit(m, k, v)
	}
	return m, nil
}

func (g *kvGen) emit(m *Model, k, v string) {
	m.Emit("out", K(k), "k:"+k, []byte(k+"="+v+"\n"))
}

func (g *kvGen) Deps(d *db.DB, rec *db.JournalRecord) ([]string, bool) {
	switch rec.Query {
	case "bulk_import":
		return nil, false
	case "touch_prefix":
		return []string{"k:" + rec.Args[0] + "*"}, true
	case "noop_change":
		return nil, true
	default:
		keys := make([]string, len(rec.Args))
		for i, a := range rec.Args {
			keys[i] = "k:" + a
		}
		return keys, true
	}
}

func (g *kvGen) Apply(d *db.DB, m *Model, keys []string) error {
	for _, key := range keys {
		m.DeleteKey(key)
		name := strings.TrimPrefix(key, "k:")
		if v, ok := g.data[name]; ok {
			g.emit(m, name, v)
		}
	}
	return nil
}

// harness wires a DB, a real journal writer on disk, and a planner.
type harness struct {
	t   *testing.T
	d   *db.DB
	jw  *db.JournalWriter
	p   *Planner
	gen *kvGen
}

func newHarness(t *testing.T, fullEvery int) *harness {
	t.Helper()
	d := db.New(clock.NewFake(time.Unix(600000000, 0)))
	jw, err := db.OpenJournalWriter(t.TempDir(), db.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jw.Close() })
	d.SetJournal(jw)
	return &harness{
		t: t, d: d, jw: jw,
		p:   NewPlanner(d, jw, fullEvery),
		gen: &kvGen{data: map[string]string{}},
	}
}

// mutate applies a change to the generator's domain and journals it as
// one record of the given query.
func (h *harness) mutate(query string, args []string, fn func()) {
	h.t.Helper()
	h.d.LockExclusive()
	defer h.d.UnlockExclusive()
	if fn != nil {
		fn()
	}
	h.d.NoteAppend(db.TUsers)
	if err := h.d.JournalQuery("tester", "test", "", query, args); err != nil {
		h.t.Fatal(err)
	}
}

// pass runs one planner pass and commits it, returning the plan and the
// rendered output file.
func (h *harness) pass() (*Plan, []byte) {
	h.t.Helper()
	m, plan, err := h.p.Run("svc", h.gen)
	if err != nil {
		h.t.Fatalf("Run: %v", err)
	}
	h.d.LockExclusive()
	h.p.Commit("svc", plan)
	h.d.UnlockExclusive()
	if m == nil {
		return plan, nil
	}
	return plan, m.Bytes("out")
}

// fromScratch renders the oracle: a full build of the current domain.
func (h *harness) fromScratch() []byte {
	m, err := h.gen.Build(h.d)
	if err != nil {
		h.t.Fatal(err)
	}
	return m.Bytes("out")
}

func (h *harness) set(k, v string, query string) {
	h.mutate(query, []string{k}, func() { h.gen.data[k] = v })
}

func TestPlannerColdStartThenNoChange(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	plan, out := h.pass()
	if plan.Mode != ModeFull || plan.Reason != "cold start" {
		t.Fatalf("first pass: %v %q", plan.Mode, plan.Reason)
	}
	if !bytes.Equal(out, h.fromScratch()) {
		t.Fatalf("full build mismatch: %q", out)
	}
	plan, _ = h.pass()
	if plan.Mode != ModeNoChange {
		t.Fatalf("idle pass: %v %q", plan.Mode, plan.Reason)
	}
}

func TestPlannerDeltaMatchesFromScratch(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	h.set("b", "2", "add")
	h.pass()

	h.set("b", "22", "update") // change
	h.set("c", "3", "add")     // add
	h.mutate("delete", []string{"a"}, func() { delete(h.gen.data, "a") })
	plan, out := h.pass()
	if plan.Mode != ModeDelta {
		t.Fatalf("mode = %v (%s), want delta", plan.Mode, plan.Reason)
	}
	if plan.Records != 3 || plan.Keys != 3 {
		t.Errorf("records=%d keys=%d, want 3/3", plan.Records, plan.Keys)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatalf("delta output %q != from-scratch %q", out, want)
	}
}

func TestPlannerWildcardDepsExpand(t *testing.T) {
	h := newHarness(t, 0)
	h.set("fs1", "a", "add")
	h.set("fs2", "b", "add")
	h.set("other", "c", "add")
	h.pass()

	// One record dirties every key with the prefix.
	h.mutate("touch_prefix", []string{"fs"}, func() {
		h.gen.data["fs1"] = "A"
		h.gen.data["fs2"] = "B"
	})
	plan, out := h.pass()
	if plan.Mode != ModeDelta || plan.Keys != 2 {
		t.Fatalf("mode=%v keys=%d, want delta/2", plan.Mode, plan.Keys)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatalf("wildcard delta %q != %q", out, want)
	}
}

func TestPlannerRecordsWithNoKeysAdvancePosition(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	h.pass()

	h.mutate("noop_change", nil, nil)
	plan, _ := h.pass()
	if plan.Mode != ModeNoChange || plan.Backlog != 1 {
		t.Fatalf("mode=%v backlog=%d, want nochange/1", plan.Mode, plan.Backlog)
	}
	// The position advanced past the irrelevant record: the next pass
	// must not re-read it.
	plan, _ = h.pass()
	if plan.Mode != ModeNoChange || plan.Backlog != 0 {
		t.Fatalf("second pass mode=%v backlog=%d, want nochange/0", plan.Mode, plan.Backlog)
	}
}

func TestPlannerNonIncrementalQueryForcesFull(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	h.pass()

	h.mutate("bulk_import", nil, func() {
		h.gen.data["x"] = "9"
		h.gen.data["y"] = "8"
	})
	plan, out := h.pass()
	if plan.Mode != ModeFull || !strings.Contains(plan.Reason, "non-incremental query bulk_import") {
		t.Fatalf("mode=%v reason=%q", plan.Mode, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatalf("fallback output %q != %q", out, want)
	}
}

func TestPlannerScheduledFullCadence(t *testing.T) {
	h := newHarness(t, 2)
	h.set("a", "1", "add")
	h.pass() // full (cold start)
	for i, want := range []struct {
		mode   Mode
		reason string
	}{
		{ModeDelta, ""},
		{ModeDelta, ""},
		{ModeFull, "scheduled full"},
		{ModeDelta, ""},
	} {
		h.set("a", strings.Repeat("x", i+2), "update")
		plan, out := h.pass()
		if plan.Mode != want.mode || plan.Reason != want.reason {
			t.Fatalf("pass %d: mode=%v reason=%q, want %v %q",
				i, plan.Mode, plan.Reason, want.mode, want.reason)
		}
		if got := h.fromScratch(); !bytes.Equal(out, got) {
			t.Fatalf("pass %d output mismatch", i)
		}
	}
}

func TestPlannerJournalPrunedFallsBackToFull(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	h.pass()
	h.set("b", "2", "add")

	// A checkpoint rotates the journal and prunes the old segment out
	// from under the stored position.
	if _, err := h.jw.Rotate(); err != nil {
		t.Fatal(err)
	}
	segs, err := db.ListSegments(h.jw.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segs[0].Path); err != nil {
		t.Fatal(err)
	}

	plan, out := h.pass()
	if plan.Mode != ModeFull || !strings.Contains(plan.Reason, "position lost") {
		t.Fatalf("mode=%v reason=%q", plan.Mode, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatalf("fallback output %q != %q", out, want)
	}
	// And the system recovers: the next delta works again.
	h.set("c", "3", "add")
	plan, out = h.pass()
	if plan.Mode != ModeDelta {
		t.Fatalf("post-fallback mode=%v (%s)", plan.Mode, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatal("post-fallback delta mismatch")
	}
}

func TestPlannerCorruptJournalFallsBackToFull(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	h.pass()

	h.set("b", "2", "add")
	h.set("c", "3", "add")
	// Damage the middle record (not the tail, which reads as a torn
	// append and is tolerated).
	segs, err := db.ListSegments(h.jw.Dir())
	if err != nil {
		t.Fatal(err)
	}
	path := segs[len(segs)-1].Path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("segment too short: %d lines", len(lines))
	}
	lines[1] = []byte("garbage that is not a journal record")
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	plan, out := h.pass()
	if plan.Mode != ModeFull || !strings.Contains(plan.Reason, "journal corrupt") {
		t.Fatalf("mode=%v reason=%q", plan.Mode, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatal("fallback output mismatch")
	}
}

func TestPlannerPositionSurvivesRestart(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	h.pass()

	// A new planner (a DCM restart) on the same DB and journal: the
	// model cache is gone, so the first pass is full, but the persisted
	// position is intact and deltas resume after it.
	p2 := NewPlanner(h.d, h.jw, 0)
	h.p = p2
	plan, _ := h.pass()
	if plan.Mode != ModeFull || plan.Reason != "cold start" {
		t.Fatalf("restart pass: %v %q", plan.Mode, plan.Reason)
	}
	h.set("b", "2", "add")
	plan, out := h.pass()
	if plan.Mode != ModeDelta || plan.Records != 1 {
		t.Fatalf("post-restart mode=%v records=%d (%s)", plan.Mode, plan.Records, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatal("post-restart delta mismatch")
	}
}

func TestPlannerNoJournalUsesSequenceCheck(t *testing.T) {
	d := db.New(clock.NewFake(time.Unix(600000000, 0)))
	p := NewPlanner(d, nil, 0)
	g := &kvGen{data: map[string]string{"a": "1"}}
	d.LockExclusive()
	d.NoteAppend(db.TUsers) // a fresh table sequence of zero can't be told from "never generated"
	d.UnlockExclusive()

	run := func() *Plan {
		t.Helper()
		_, plan, err := p.Run("svc", g)
		if err != nil {
			t.Fatal(err)
		}
		d.LockExclusive()
		p.Commit("svc", plan)
		d.UnlockExclusive()
		return plan
	}
	if plan := run(); plan.Mode != ModeFull || plan.Reason != "no journal" {
		t.Fatalf("first: %v %q", plan.Mode, plan.Reason)
	}
	if plan := run(); plan.Mode != ModeNoChange {
		t.Fatalf("idle: %v %q", plan.Mode, plan.Reason)
	}
	d.LockExclusive()
	d.NoteAppend(db.TUsers)
	d.UnlockExclusive()
	if plan := run(); plan.Mode != ModeFull || plan.Reason != "no journal" {
		t.Fatalf("after change: %v %q", plan.Mode, plan.Reason)
	}
}

func TestPlannerInvalidateForcesRebuild(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	h.pass()
	h.p.Invalidate("svc")
	plan, out := h.pass()
	if plan.Mode != ModeFull || plan.Reason != "cold start" {
		t.Fatalf("mode=%v reason=%q", plan.Mode, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatal("rebuild mismatch")
	}
}

func TestPlannerStatus(t *testing.T) {
	h := newHarness(t, 0)
	if st := h.p.Status("svc"); st.Mode != ModeFull || st.Pos.Seg != 0 {
		t.Fatalf("zero status = %+v", st)
	}
	h.set("a", "1", "add")
	h.pass()
	h.set("b", "2", "add")
	h.pass()
	st := h.p.Status("svc")
	if st.Mode != ModeDelta || st.Backlog != 1 || st.SinceFull != 1 {
		t.Fatalf("status = %+v", st)
	}
	seg, recs := h.jw.Head()
	if st.Pos.Seg != seg || st.Pos.Idx != recs {
		t.Fatalf("status pos %v != head %d.%d", st.Pos, seg, recs)
	}
}

// pos builds a journal position.
func pos(seg, idx int64) protocol.Pos { return protocol.Pos{Seg: seg, Idx: idx} }

func TestReadRangeSkipsAndLimits(t *testing.T) {
	h := newHarness(t, 0)
	for _, k := range []string{"a", "b", "c", "d"} {
		h.set(k, "v", "add")
	}
	seg, recs := h.jw.Head()
	out, err := ReadRange(h.jw.Dir(), pos(seg, 1), pos(seg, recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != int(recs-1) {
		t.Fatalf("got %d records, want %d", len(out), recs-1)
	}
	if out[0].Args[0] != "b" {
		t.Errorf("first record args = %v, want b", out[0].Args)
	}
	// Empty range.
	out, err = ReadRange(h.jw.Dir(), pos(seg, recs), pos(seg, recs))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty range: %v %v", out, err)
	}
	// Inverted range is a lost position.
	if _, err := ReadRange(h.jw.Dir(), pos(seg, recs), pos(seg, 0)); err == nil {
		t.Fatal("inverted range did not error")
	}
}

func TestReadRangeSpansSegments(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	if _, err := h.jw.Rotate(); err != nil {
		t.Fatal(err)
	}
	h.set("b", "2", "add")
	h.set("c", "3", "add")
	seg, recs := h.jw.Head()
	from := pos(seg-1, 1) // past the only record of segment 1
	out, err := ReadRange(h.jw.Dir(), from, pos(seg, recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Args[0] != "b" || out[1].Args[0] != "c" {
		t.Fatalf("cross-segment read = %v", out)
	}
}

func TestReadRangeToleratesTornTail(t *testing.T) {
	h := newHarness(t, 0)
	h.set("a", "1", "add")
	h.set("b", "2", "add")
	seg, recs := h.jw.Head()
	segs, err := db.ListSegments(h.jw.Dir())
	if err != nil {
		t.Fatal(err)
	}
	path := segs[len(segs)-1].Path
	// Append a torn line (no trailing newline, no CRC): a crash mid-append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("torn garbage line"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := ReadRange(h.jw.Dir(), pos(seg, 0), pos(seg, recs))
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(out) != int(recs) {
		t.Fatalf("got %d records, want %d", len(out), recs)
	}
}
