package extract

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
)

// kvGen is a minimal Generator over the users relation: every user is
// one logical key "k:<login>" emitting the line "<login>=<shell>\n" into
// the single file "out". It reads the login, shell and middle name; a
// user with a middle name also dirties every key with that prefix, and
// a user whose login starts with '_' is read by no key. It declares the
// machine relation full.
type kvGen struct{}

func (kvGen) Reads() []Read {
	cols := func(row any) (c [3]string) {
		if u, ok := row.(*db.User); ok {
			c = [3]string{u.Login, u.Shell, u.Middle}
		}
		return c
	}
	return []Read{
		{
			Table: db.TUsers,
			Same:  func(o, n any) bool { return cols(o) == cols(n) },
			Keys: func(_ *db.DB, row any, add func(string)) {
				u := row.(*db.User)
				if strings.HasPrefix(u.Login, "_") {
					return
				}
				add("k:" + u.Login)
				if u.Middle != "" {
					add("k:" + u.Middle + "*")
				}
			},
		},
		{Table: db.TMachine, Same: func(o, n any) bool { return false }},
	}
}

func (kvGen) Build(d *db.DB) (*Model, error) {
	m := NewModel()
	m.Emit("out", "", "static", nil)
	d.EachUser(func(u *db.User) bool {
		emitUser(m, u)
		return true
	})
	return m, nil
}

func emitUser(m *Model, u *db.User) {
	if !strings.HasPrefix(u.Login, "_") {
		m.Emit("out", K(u.Login), "k:"+u.Login, []byte(u.Login+"="+u.Shell+"\n"))
	}
}

func (kvGen) Apply(d *db.DB, m *Model, keys []string) error {
	for _, key := range keys {
		m.DeleteKey(key)
		if u, ok := d.UserByLogin(strings.TrimPrefix(key, "k:")); ok {
			emitUser(m, u)
		}
	}
	return nil
}

// harness wires a DB and a planner.
type harness struct {
	t      *testing.T
	d      *db.DB
	p      *Planner
	nextID int
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	d := db.New(clock.NewFake(time.Unix(600000000, 0)))
	return &harness{t: t, d: d, p: NewPlanner(d)}
}

// mutate runs fn under the exclusive lock.
func (h *harness) mutate(fn func()) {
	h.d.LockExclusive()
	defer h.d.UnlockExclusive()
	fn()
}

// set gives user k the shell v, adding the user if needed.
func (h *harness) set(k, v string) {
	h.t.Helper()
	h.mutate(func() {
		if u, ok := h.d.UserByLogin(k); ok {
			u = db.Edit(h.d, db.Users, u)
			u.Shell = v
			h.d.NoteUpdate(u)
			return
		}
		h.nextID++
		if err := db.Users.Insert(h.d, &db.User{UsersID: h.nextID, Login: k, UID: h.nextID, Shell: v}); err != nil {
			h.t.Fatal(err)
		}
	})
}

// update changes user k in place.
func (h *harness) update(k string, fn func(*db.User)) {
	h.mutate(func() {
		u, _ := h.d.UserByLogin(k)
		u = db.Edit(h.d, db.Users, u)
		fn(u)
		h.d.NoteUpdate(u)
	})
}

func (h *harness) del(k string) {
	h.mutate(func() {
		u, _ := h.d.UserByLogin(k)
		db.Users.Delete(h.d, u)
	})
}

// pass runs one planner pass on a fresh snapshot and commits it,
// returning the plan and the rendered output file.
func (h *harness) pass() (*Plan, []byte) {
	h.t.Helper()
	m, plan := h.run()
	h.d.LockExclusive()
	h.p.Commit("svc", plan)
	h.d.UnlockExclusive()
	if m == nil {
		return plan, nil
	}
	return plan, m.Bytes("out")
}

// run is pass without the commit.
func (h *harness) run() (*Model, *Plan) {
	h.t.Helper()
	m, plan, err := h.p.Run("svc", kvGen{}, h.d.Reader())
	if err != nil {
		h.t.Fatalf("Run: %v", err)
	}
	return m, plan
}

// fromScratch renders the oracle: a full build of the current domain.
func (h *harness) fromScratch() []byte {
	m, err := kvGen{}.Build(h.d.Reader())
	if err != nil {
		h.t.Fatal(err)
	}
	return m.Bytes("out")
}

func TestPlannerColdStartThenNoChange(t *testing.T) {
	h := newHarness(t)
	h.set("a", "1")
	plan, out := h.pass()
	if plan.Mode != ModeFull || plan.Reason != FullColdStart {
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
	h := newHarness(t)
	h.set("a", "1")
	h.set("b", "2")
	h.pass()

	h.set("b", "22") // change
	h.set("c", "3")  // add
	h.del("a")
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

// TestPlannerNeverMovesBack: a pass whose snapshot is older than the one
// the model reflects (two overlapping passes, the newer one generated
// first) leaves the model where it is and reports no change, with the
// newer snapshot's change sequence, instead of diffing the model back.
func TestPlannerNeverMovesBack(t *testing.T) {
	h := newHarness(t)
	h.set("a", "1")
	h.pass()
	older := h.d.Reader()
	h.set("a", "2")
	h.pass()
	newer := h.d.Reader()

	m, plan, err := h.p.Run("svc", kvGen{}, older)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != ModeNoChange || plan.Seq != newer.SeqOf(db.TUsers, db.TMachine) {
		t.Fatalf("older pass: mode=%v seq=%d, want nochange at seq %d", plan.Mode, plan.Seq, newer.SeqOf(db.TUsers, db.TMachine))
	}
	if got, want := m.Bytes("out"), h.fromScratch(); !bytes.Equal(got, want) {
		t.Fatalf("after the older pass the model renders %q, want %q", got, want)
	}
}

func TestPlannerWildcardDepsExpand(t *testing.T) {
	h := newHarness(t)
	h.set("fs1", "a")
	h.set("fs2", "b")
	h.set("other", "c")
	h.pass()

	// One row dirties every key with the prefix.
	h.update("fs1", func(u *db.User) { u.Middle = "fs" })
	plan, out := h.pass()
	if plan.Mode != ModeDelta || plan.Records != 1 || plan.Keys != 2 {
		t.Fatalf("mode=%v records=%d keys=%d, want delta/1/2", plan.Mode, plan.Records, plan.Keys)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatalf("wildcard delta %q != %q", out, want)
	}
}

// TestPlannerRecordsWithNoKeysAdvancePosition: a changed row that no key
// reads makes a no-change pass, and that pass's snapshot becomes the
// one the next diff starts from.
func TestPlannerRecordsWithNoKeysAdvancePosition(t *testing.T) {
	h := newHarness(t)
	h.set("a", "1")
	h.pass()

	h.set("_hidden", "x")
	plan, _ := h.pass()
	if plan.Mode != ModeNoChange || plan.Records != 1 {
		t.Fatalf("mode=%v records=%d, want nochange/1", plan.Mode, plan.Records)
	}
	plan, _ = h.pass()
	if plan.Mode != ModeNoChange || plan.Records != 0 {
		t.Fatalf("second pass mode=%v records=%d, want nochange/0", plan.Mode, plan.Records)
	}
}

// TestPlannerUnreadColumnsDirtyNothing: a change confined to columns the
// generator does not read is not a changed row at all.
func TestPlannerUnreadColumnsDirtyNothing(t *testing.T) {
	h := newHarness(t)
	h.set("a", "1")
	h.pass()
	h.update("a", func(u *db.User) { u.Fullname = "Somebody" })
	if plan, _ := h.pass(); plan.Mode != ModeNoChange || plan.Records != 0 {
		t.Fatalf("mode=%v records=%d, want nochange/0", plan.Mode, plan.Records)
	}
}

func TestPlannerFullRelationForcesFull(t *testing.T) {
	h := newHarness(t)
	h.set("a", "1")
	h.pass()

	h.set("x", "9")
	h.mutate(func() {
		if err := db.Machines.Insert(h.d, &db.Machine{MachID: 1, Name: "M1.MIT.EDU"}); err != nil {
			t.Fatal(err)
		}
	})
	plan, out := h.pass()
	if plan.Mode != ModeFull || plan.Reason != FullDeclared+db.TMachine {
		t.Fatalf("mode=%v reason=%q", plan.Mode, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatalf("fallback output %q != %q", out, want)
	}
	h.set("y", "8")
	if plan, _ := h.pass(); plan.Mode != ModeDelta {
		t.Fatalf("after the full pass: mode=%v (%s)", plan.Mode, plan.Reason)
	}
}

// TestPlannerAdoptionForcesFull: an adopted database shares no page
// with the snapshot the model reflects, so the model is rebuilt.
func TestPlannerAdoptionForcesFull(t *testing.T) {
	h := newHarness(t)
	h.set("a", "1")
	h.pass()
	src := db.New(clock.NewFake(time.Unix(600000000, 0)))
	if err := db.Users.Insert(src, &db.User{UsersID: 7, Login: "adopted", UID: 7, Shell: "sh"}); err != nil {
		t.Fatal(err)
	}
	h.d.AdoptFrom(src)
	plan, out := h.pass()
	if plan.Mode != ModeFull || plan.Reason != FullAdopted {
		t.Fatalf("mode=%v reason=%q", plan.Mode, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatalf("output %q != %q", out, want)
	}
}

// TestPlannerUncommittedRunCarriesToNextPass: a Run the caller does not
// commit still moves the model to its snapshot, and the next Run reports
// what it changed.
func TestPlannerUncommittedRunCarriesToNextPass(t *testing.T) {
	h := newHarness(t)
	h.set("a", "1")
	h.pass()
	h.set("a", "2")
	m, plan := h.run()
	if plan.Mode != ModeDelta || !bytes.Equal(m.Bytes("out"), h.fromScratch()) {
		t.Fatalf("uncommitted run: mode=%v out=%q", plan.Mode, m.Bytes("out"))
	}
	plan, out := h.pass()
	if plan.Mode != ModeDelta || plan.Records != 1 || plan.Keys != 1 {
		t.Fatalf("next pass: mode=%v records=%d keys=%d, want delta/1/1", plan.Mode, plan.Records, plan.Keys)
	}
	if !bytes.Equal(out, h.fromScratch()) {
		t.Fatal("next pass output mismatch")
	}
	if plan, _ := h.pass(); plan.Mode != ModeNoChange {
		t.Fatalf("after the commit: mode=%v", plan.Mode)
	}
}

// TestPlannerPositionSurvivesRestart: a new planner (a DCM restart)
// holds no model, so its first pass is a cold-start build; the snapshot
// that build reflects is where its deltas resume.
func TestPlannerPositionSurvivesRestart(t *testing.T) {
	h := newHarness(t)
	h.set("a", "1")
	h.pass()

	h.p = NewPlanner(h.d)
	plan, _ := h.pass()
	if plan.Mode != ModeFull || plan.Reason != FullColdStart {
		t.Fatalf("restart pass: %v %q", plan.Mode, plan.Reason)
	}
	h.set("b", "2")
	plan, out := h.pass()
	if plan.Mode != ModeDelta || plan.Records != 1 {
		t.Fatalf("post-restart mode=%v records=%d (%s)", plan.Mode, plan.Records, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatal("post-restart delta mismatch")
	}
}

func TestPlannerInvalidateForcesRebuild(t *testing.T) {
	h := newHarness(t)
	h.set("a", "1")
	h.pass()
	h.p.Invalidate("svc")
	plan, out := h.pass()
	if plan.Mode != ModeFull || plan.Reason != FullColdStart {
		t.Fatalf("mode=%v reason=%q", plan.Mode, plan.Reason)
	}
	if want := h.fromScratch(); !bytes.Equal(out, want) {
		t.Fatal("rebuild mismatch")
	}
}

func TestPlannerStatus(t *testing.T) {
	h := newHarness(t)
	if st := h.p.Status("svc"); st.Mode != ModeFull || st.Rows != 0 {
		t.Fatalf("zero status = %+v", st)
	}
	h.set("a", "1")
	h.pass()
	h.set("b", "2")
	h.pass()
	st := h.p.Status("svc")
	if st.Mode != ModeDelta || st.Rows != 1 {
		t.Fatalf("status = %+v", st)
	}
	if seq, err := h.d.GetValue(db.GenSeqPrefix + "svc"); err != nil || int64(seq) != h.d.SeqOf(db.TUsers, db.TMachine) {
		t.Fatalf("genseq = %d, %v; want %d", seq, err, h.d.SeqOf(db.TUsers, db.TMachine))
	}
}
