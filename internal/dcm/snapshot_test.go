package dcm

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"moira/internal/db"
	"moira/internal/extract"
	"moira/internal/gen"
	"moira/internal/workload"
)

// firstActiveLogin returns an active user's login and shell.
func (w *world) firstActiveLogin() (login, shell string) {
	w.d.LockShared()
	defer w.d.UnlockShared()
	w.d.EachUser(func(u *db.User) bool {
		login, shell = u.Login, u.Shell
		return u.Status != db.UserActive
	})
	return login, shell
}

// sameAsBuild fails unless the planner's model of service renders what
// a full build of the current database does.
func (w *world) sameAsBuild(service string) {
	w.t.Helper()
	want, err := gen.Incrementals[service].Build(w.d.Reader())
	if err != nil {
		w.t.Fatal(err)
	}
	got := w.dcm.Planner().Model(service).Files()
	for name, data := range want.Files() {
		if !bytes.Equal(got[name], data) {
			w.t.Errorf("%s: model's %s differs from a full build", service, name)
		}
	}
	if len(got) != len(want.Files()) {
		w.t.Errorf("%s: model has %d files, a full build %d", service, len(got), len(want.Files()))
	}
}

// TestUncommittedPatchThenRevert: the host-retry path patches the model
// to its pass's snapshot without committing, and the snapshot the model
// reflects moves with it. A row changed, pushed early to an overridden
// host and then changed back must come back at the next due pass as a
// delta: a planner that kept diffing from the last committed snapshot
// would see no change and keep the reverted row in the model.
func TestUncommittedPatchThenRevert(t *testing.T) {
	bothJournalStates(t, testUncommittedPatchThenRevert)
}
func testUncommittedPatchThenRevert(t *testing.T, journal bool) {
	cfg := workload.Scaled(60)
	cfg.HesiodServers = 2
	w := newWorldCfg(t, journal, cfg)
	w.run()
	login, shell := w.firstActiveLogin()
	w.d.LockShared()
	mach, _ := db.Machines.ByID(w.d, firstHost(w.d, "HESIOD").MachID)
	w.d.UnlockShared()

	w.query("update_user_shell", login, "/bin/interim")
	w.query("set_server_host_override", "HESIOD", mach.Name)
	w.clk.Advance(time.Minute)
	if stats := w.run(); stats.HostsUpdated != 1 || stats.Generated != 0 {
		t.Fatalf("override pass: %+v", stats)
	}
	if !strings.Contains(string(w.dcm.Planner().Model("HESIOD").Bytes("passwd.db")), "/bin/interim") {
		t.Fatal("the override pass did not patch the model")
	}

	w.query("update_user_shell", login, shell)
	w.clk.Advance(25 * time.Hour)
	if stats := w.run(); stats.Generated == 0 {
		t.Fatalf("due pass generated nothing: %+v", stats)
	}
	if st := w.dcm.Planner().Status("HESIOD"); st.Mode != extract.ModeDelta {
		t.Errorf("due pass mode = %v (%s), want delta", st.Mode, st.Reason)
	}
	w.sameAsBuild("HESIOD")
}

// TestOverlappingPassesNeverRollBack: two passes overlap with a write
// between their snapshots, and the newer pass runs its HESIOD cycle
// first. The older pass's cycle then still finds the service due (its
// DFCheck is stale) and claims it; it must leave the model at the newer
// snapshot and push nothing, so no host gets older files than it has.
func TestOverlappingPassesNeverRollBack(t *testing.T) {
	bothJournalStates(t, testOverlappingPassesNeverRollBack)
}
func testOverlappingPassesNeverRollBack(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	w.run()
	login, _ := w.firstActiveLogin()
	w.clk.Advance(25 * time.Hour)

	older := w.d.Reader()
	var svc serviceSnapshot
	db.Servers.Each(older, func(s *db.Server) bool {
		svc = serviceSnapshot{*s}
		return s.Name != "HESIOD"
	})
	w.query("update_user_shell", login, "/bin/newer")
	if stats := w.run(); stats.Generated == 0 {
		t.Fatalf("newer pass generated nothing: %+v", stats)
	}
	resolved := func() string {
		lines, _ := w.hes.Resolve(login + ".passwd")
		return strings.Join(lines, "\n")
	}
	if !strings.Contains(resolved(), "/bin/newer") {
		t.Fatalf("the newer pass did not reach hesiod: %q", resolved())
	}

	w.clk.Advance(time.Minute)
	stats := &CycleStats{}
	w.dcm.serviceCycle(&svc, w.dcm.cfg.Generators["HESIOD"], older, stats, nil)
	if stats.NoChange != 1 || stats.Generated != 0 || stats.HostsUpdated != 0 {
		t.Errorf("older cycle: nochange=%d generated=%d pushed=%d, want 1/0/0", stats.NoChange, stats.Generated, stats.HostsUpdated)
	}
	w.sameAsBuild("HESIOD")
	if !strings.Contains(resolved(), "/bin/newer") {
		t.Errorf("the older cycle rolled hesiod back: %q", resolved())
	}
}

// TestParkedBuildDoesNotBlockWrites: a pass generates from its snapshot
// with no database lock held, so a write commits while a build is
// parked; the parked pass reflects the database as it was when the pass
// began, and the next pass picks the write up.
func TestParkedBuildDoesNotBlockWrites(t *testing.T) {
	w := newWorld(t, true, 60)
	entered, release := make(chan struct{}), make(chan struct{})
	var once, released sync.Once
	unpark := func() { released.Do(func() { close(release) }) }
	defer unpark()
	hesiod := gen.Incrementals["HESIOD"]
	parked := &gen.Incremental{
		ReadList: hesiod.ReadList,
		EmitFn:   hesiod.EmitFn,
		BuildFn: func(d *db.DB) (*extract.Model, error) {
			once.Do(func() {
				close(entered)
				<-release
			})
			return hesiod.BuildFn(d)
		},
	}
	w.reconfig(func(cfg *Config) { cfg.Generators = map[string]*gen.Incremental{"HESIOD": parked} })
	login, _ := w.firstActiveLogin()

	passDone := make(chan *CycleStats)
	go func() {
		stats, err := w.dcm.RunOnce()
		if err != nil {
			t.Error(err)
		}
		passDone <- stats
	}()
	<-entered
	wrote := make(chan struct{})
	go func() {
		w.query("update_user_shell", login, "/bin/parked")
		close(wrote)
	}()
	select {
	case <-wrote:
	case <-passDone:
		t.Fatal("the pass finished while its build was parked")
	case <-time.After(30 * time.Second):
		t.Fatal("update_user_shell did not commit while a build was parked")
	}
	unpark()
	if stats := <-passDone; stats.Generated != 1 {
		t.Fatalf("parked pass: %+v", stats)
	}
	model := w.dcm.Planner().Model("HESIOD")
	if strings.Contains(string(model.Bytes("passwd.db")), "/bin/parked") {
		t.Error("the parked pass saw a write committed after it began")
	}

	w.clk.Advance(7 * time.Hour)
	stats := w.run()
	if stats.DeltaBuilds != 1 {
		t.Fatalf("next pass: %+v", stats)
	}
	if !strings.Contains(string(model.Bytes("passwd.db")), "/bin/parked") {
		t.Error("the next pass did not pick the write up")
	}
}

// dumpAll renders every relation of d in backup format.
func dumpAll(t *testing.T, d *db.DB) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range db.AllTables {
		if err := d.DumpTable(tbl, &buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestPassSnapshotUnchangedByFlagWrites: a pass generates from one
// snapshot while its own claims and flag writes go to live rows that
// snapshot shares. Each write copies its row first, so the pass's
// snapshot stays byte-identical and the next one sees the writes.
func TestPassSnapshotUnchangedByFlagWrites(t *testing.T) {
	w := newWorld(t, false, 40)
	view := w.d.Reader()
	before := dumpAll(t, view)
	svc, _ := db.Servers.Get(view, "HESIOD")
	snap := serviceSnapshot{*svc}
	snap.DFGen = 1 << 40 // newer than anything a host has installed
	machID := firstHost(view, "HESIOD").MachID

	if !w.dcm.claimService("HESIOD") {
		t.Fatal("claimService refused an idle service")
	}
	if !w.dcm.claimHost(&snap, machID) {
		t.Fatal("claimHost refused a due host")
	}
	w.dcm.setHostFlags("HESIOD", machID, func(sh *db.ServerHost) {
		sh.InProgress, sh.Success, sh.LastSuccess = false, true, 12345
	})
	w.dcm.setServiceFlags("HESIOD", func(s *db.Server) { s.InProgress, s.DFGen = false, 777 })

	if dumpAll(t, view) != before {
		t.Fatal("the pass's snapshot changed under its own claim and flag writes")
	}
	now := w.d.Reader()
	if s, _ := db.Servers.Get(now, "HESIOD"); s.DFGen != 777 || s.InProgress {
		t.Errorf("the next snapshot missed the service flags: %+v", s)
	}
	if sh := firstHost(now, "HESIOD"); sh.LastSuccess != 12345 || !sh.Success || sh.InProgress {
		t.Errorf("the next snapshot missed the host flags: %+v", sh)
	}
	if sh := firstHost(view, "HESIOD"); sh.LastSuccess == 12345 {
		t.Error("the pass's snapshot sees a later host write")
	}
}
