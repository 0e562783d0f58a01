package dcm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/hesiod"
	"moira/internal/mailhub"
	"moira/internal/mrerr"
	"moira/internal/nfshost"
	"moira/internal/queries"
	"moira/internal/update"
	"moira/internal/workload"
	"moira/internal/zephyr"
)

// world wires a populated database to real update agents hosting the
// hesiod, NFS, mailhub, and zephyr service simulations.
type world struct {
	t   *testing.T
	d   *db.DB
	clk *clock.Fake

	agents map[string]*update.Agent
	addrs  map[string]string

	hes      *hesiod.Server
	nfsHosts map[string]*nfshost.Host
	hub      *mailhub.Hub
	broker   *zephyr.Broker
	notices  *zephyr.Subscription

	// mu guards mails: the Mail callback now fires from concurrent
	// host workers.
	mu    sync.Mutex
	mails []string

	dcm *DCM
}

// bothJournalStates runs a test over both of the planner's input
// states: no journal (the table-sequence check decides no-change vs full
// rebuild) and a durable journal attached (deltas patch the models).
func bothJournalStates(t *testing.T, test func(t *testing.T, journal bool)) {
	t.Run("nojournal", func(t *testing.T) { test(t, false) })
	t.Run("journal", func(t *testing.T) { test(t, true) })
}

func newWorld(t *testing.T, journal bool, users int) *world {
	return newWorldCfg(t, journal, workload.Scaled(users))
}

func newWorldCfg(t *testing.T, journal bool, cfg workload.Config) *world {
	t.Helper()
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := queries.NewBootstrappedDB(clk)
	_, hosts, err := workload.Populate(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Attached after the populate, as core.Boot does: the bulk load need
	// not flow through segment files, since every first pass is a full
	// build committing its position at the then-current head.
	var jw *db.JournalWriter
	if journal {
		if jw, err = db.OpenJournalWriter(t.TempDir(), db.JournalOptions{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jw.Close() })
		d.SetJournal(jw)
	}

	w := &world{
		t: t, d: d, clk: clk,
		agents:   make(map[string]*update.Agent),
		addrs:    make(map[string]string),
		nfsHosts: make(map[string]*nfshost.Host),
		hes:      hesiod.NewServer(),
		hub:      mailhub.NewHub(),
		broker:   zephyr.NewBroker(clk),
	}
	w.notices, err = w.broker.Subscribe("MOIRA", "DCM", "operator")
	if err != nil {
		t.Fatal(err)
	}

	newAgent := func(name string) *update.Agent {
		a := update.NewAgent(name, t.TempDir(), nil)
		addr, err := a.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		w.agents[name] = a
		w.addrs[name] = addr.String()
		return a
	}

	for _, h := range hosts.Hesiod {
		hesiod.AttachToAgent(newAgent(h), w.hes)
	}
	for _, h := range hosts.NFS {
		host := nfshost.NewHost(h)
		w.nfsHosts[h] = host
		nfshost.AttachToAgent(newAgent(h), host)
	}
	mailhub.AttachToAgent(newAgent(hosts.Mailhub), w.hub)
	for _, h := range hosts.Zephyr {
		zephyr.AttachToAgent(newAgent(h), w.broker)
	}

	w.dcm = New(Config{
		DB:      d,
		Journal: jw,
		Clock:   clk,
		Resolve: func(machine string) (string, bool) {
			addr, ok := w.addrs[machine]
			return addr, ok
		},
		Notify: func(class, instance, msg string) {
			w.broker.Send(class, instance, "dcm", msg)
		},
		Mail: func(subject, body string) {
			w.mu.Lock()
			w.mails = append(w.mails, subject)
			w.mu.Unlock()
		},
		PushTimeout: 5 * time.Second,
	})
	return w
}

// reconfig rebuilds the world's DCM with tweaks applied to its config
// (worker-pool sizes, retry counts, backoff schedules).
func (w *world) reconfig(fn func(*Config)) {
	cfg := w.dcm.cfg
	fn(&cfg)
	w.dcm = New(cfg)
}

// numMails reads the mail count under the lock.
func (w *world) numMails() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.mails)
}

// query runs one privileged query (journaled when the world has a
// journal), discarding any tuples.
func (w *world) query(name string, args ...string) {
	w.t.Helper()
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, name, args, func([]string) error { return nil }); err != nil {
		w.t.Fatalf("%s %v: %v", name, args, err)
	}
}

func (w *world) run() *CycleStats {
	w.t.Helper()
	stats, err := w.dcm.RunOnce()
	if err != nil {
		w.t.Fatal(err)
	}
	return stats
}

func TestFirstPassPropagatesEverything(t *testing.T) {
	bothJournalStates(t, testFirstPassPropagatesEverything)
}
func testFirstPassPropagatesEverything(t *testing.T, journal bool) {
	w := newWorld(t, journal, 120)
	stats := w.run()

	if stats.Generated != 4 {
		t.Errorf("generated = %d services, want 4 (HESIOD NFS SMTP ZEPHYR)", stats.Generated)
	}
	wantHosts := len(w.agents)
	if stats.HostsUpdated != wantHosts {
		t.Errorf("hosts updated = %d, want %d", stats.HostsUpdated, wantHosts)
	}
	if stats.HostHardFails != 0 || stats.HostSoftFails != 0 {
		t.Errorf("failures: %+v", stats)
	}

	// The hesiod server is serving propagated data.
	if w.hes.NumRecords() == 0 {
		t.Fatal("hesiod server has no records")
	}
	w.d.LockShared()
	var anyUser *db.User
	w.d.EachUser(func(u *db.User) bool {
		if u.Status == db.UserActive && u.PoType == db.PoboxPOP {
			anyUser = u
			return false
		}
		return true
	})
	w.d.UnlockShared()
	vals, ok := w.hes.Resolve(anyUser.Login + ".passwd")
	if !ok || !strings.HasPrefix(vals[0], anyUser.Login+":*:") {
		t.Errorf("hesiod passwd lookup = %v, %v", vals, ok)
	}
	// uid CNAME chases to the passwd record.
	uidName := strings.Split(vals[0], ":")[2]
	if chased, ok := w.hes.Resolve(uidName + ".uid"); !ok || chased[0] != vals[0] {
		t.Errorf("uid CNAME chase = %v, %v", chased, ok)
	}

	// NFS hosts applied credentials, quotas, and created lockers.
	for name, host := range w.nfsHosts {
		if host.NumCredentials() == 0 {
			t.Errorf("%s: no credentials", name)
		}
		if host.NumLockers() == 0 {
			t.Errorf("%s: no lockers created", name)
		}
		if host.Installs() == 0 {
			t.Errorf("%s: installer never ran", name)
		}
	}
	if c, ok := w.nfsHosts["FS-01.MIT.EDU"].CredentialOf(anyUser.Login); !ok || c.UID != anyUser.UID {
		t.Errorf("credentials for %s = %+v, %v", anyUser.Login, c, ok)
	}

	// The mailhub performed the controlled aliases switchover.
	if w.hub.Swaps() != 1 {
		t.Errorf("aliases swaps = %d", w.hub.Swaps())
	}
	if !w.hub.SpoolUp() {
		t.Error("mail spool left down")
	}
	log := w.hub.SpoolLog()
	if len(log) < 3 || log[0] != "spool-down" || log[len(log)-1] != "spool-up" {
		t.Errorf("spool log = %v", log)
	}
	got := w.hub.Resolve(anyUser.Login)
	if len(got) != 1 || !strings.Contains(got[0], "@ATHENA-PO-") {
		t.Errorf("mailhub resolve(%s) = %v", anyUser.Login, got)
	}
	if _, ok := w.hub.Finger(anyUser.Login); !ok {
		t.Error("mailhub finger does not know the user")
	}

	// Zephyr ACLs are live: a zephyr-operators member may send, others
	// may not.
	w.d.LockShared()
	ops, _ := w.d.ListByName("zephyr-operators")
	var operator string
	for _, m := range w.d.MembersOf(ops.ListID) {
		if u, ok := w.d.UserByID(m.MemberID); ok {
			operator = u.Login
			break
		}
	}
	w.d.UnlockShared()
	if err := w.broker.Send("CLASS-2", "X", operator, "hello"); err != nil {
		t.Errorf("%s send on CLASS-2: %v", operator, err)
	}
	if err := w.broker.Send("CLASS-2", "X", "randomuser", "hello"); err != mrerr.MrPerm {
		t.Errorf("unauthorized zephyr send err = %v", err)
	}
}

func TestSecondPassIsIdle(t *testing.T) { bothJournalStates(t, testSecondPassIsIdle) }
func testSecondPassIsIdle(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	w.run()
	// Within every interval: services not due, no host work.
	w.clk.Advance(10 * time.Minute)
	stats := w.run()
	if stats.Generated != 0 || stats.HostsUpdated != 0 || stats.NoChange != 0 {
		t.Errorf("idle pass did work: %+v", stats)
	}
}

func TestNoChangeCycle(t *testing.T) { bothJournalStates(t, testNoChangeCycle) }
func testNoChangeCycle(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	w.run()
	// Past the hesiod interval with no data changes: the generator is
	// consulted but reports MR_NO_CHANGE, and no hosts are updated.
	w.clk.Advance(7 * time.Hour)
	stats := w.run()
	if stats.NoChange == 0 {
		t.Errorf("expected no-change generations: %+v", stats)
	}
	if stats.Generated != 0 || stats.HostsUpdated != 0 {
		t.Errorf("no-change pass still propagated: %+v", stats)
	}
	// dfcheck advanced: the next pass inside the interval does nothing.
	w.clk.Advance(10 * time.Minute)
	stats = w.run()
	if stats.NoChange != 0 && stats.Generated != 0 {
		t.Errorf("dfcheck not updated: %+v", stats)
	}
}

func TestChangePropagatesAfterInterval(t *testing.T) {
	bothJournalStates(t, testChangePropagatesAfterInterval)
}
func testChangePropagatesAfterInterval(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	w.run()

	// An administrative change lands in the database some time later.
	w.clk.Advance(time.Minute)
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_user",
		[]string{"freshman", "-1", "/bin/csh", "Fresh", "Person", "", "1", "", "1992"},
		func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.hes.Resolve("freshman.passwd"); ok {
		t.Fatal("change visible before propagation")
	}

	// The hesiod interval (6h) elapses; the DCM regenerates and pushes.
	w.clk.Advance(6*time.Hour + time.Minute)
	stats := w.run()
	if stats.Generated == 0 {
		t.Fatalf("nothing regenerated: %+v", stats)
	}
	if _, ok := w.hes.Resolve("freshman.passwd"); !ok {
		t.Error("change did not reach hesiod (the paper's 6-hour lag)")
	}
}

func TestOverrideSkipsInterval(t *testing.T) { bothJournalStates(t, testOverrideSkipsInterval) }
func testOverrideSkipsInterval(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	w.run()
	// Mark one hesiod host for immediate update.
	w.d.LockExclusive()
	sh := w.d.ServerHostsOf("HESIOD")[0]
	sh.Override = true
	w.d.NoteUpdate(sh)
	w.d.UnlockExclusive()

	w.clk.Advance(time.Minute) // far inside the 6h interval
	stats := w.run()
	if stats.HostsUpdated != 1 {
		t.Errorf("override host not updated: %+v", stats)
	}
	// Override clears after the successful update.
	w.d.LockShared()
	if w.d.ServerHostsOf("HESIOD")[0].Override {
		t.Error("override flag not cleared")
	}
	w.d.UnlockShared()
}

// TestOverridePushDoesNotSwallowDelta: a change pushed early to one
// overridden host, between due checks, must still count as a change at
// the next due check, so the service's other hosts receive it too. The
// override push renders the planner's model patched to the journal head
// but leaves the plan uncommitted; committing it there made the next
// due pass see "no change" and stranded the other hosts on the old
// files.
func TestOverridePushDoesNotSwallowDelta(t *testing.T) {
	bothJournalStates(t, testOverridePushDoesNotSwallowDelta)
}
func testOverridePushDoesNotSwallowDelta(t *testing.T, journal bool) {
	cfg := workload.Scaled(60)
	cfg.HesiodServers = 2
	w := newWorldCfg(t, journal, cfg)
	w.run()

	w.d.LockShared()
	svc, _ := w.d.ServerByName("HESIOD")
	target := svc.TargetFile
	var hosts []string
	for _, sh := range w.d.ServerHostsOf("HESIOD") {
		m, _ := w.d.MachineByID(sh.MachID)
		hosts = append(hosts, m.Name)
	}
	var login string
	w.d.EachUser(func(u *db.User) bool {
		login = u.Login
		return u.Status != db.UserActive
	})
	w.d.UnlockShared()
	if len(hosts) != 2 {
		t.Fatalf("hesiod hosts = %v, want 2", hosts)
	}
	hasShell := func(host string) bool {
		t.Helper()
		bundle, err := w.agents[host].ReadHostFile(target)
		if err != nil {
			t.Fatal(err)
		}
		passwd, err := update.ExtractMember(bundle, "passwd.db")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Contains(string(passwd), "/bin/swallowed")
	}

	w.query("update_user_shell", login, "/bin/swallowed")
	w.query("set_server_host_override", "HESIOD", hosts[0])

	// Far inside the 6h interval: only the overridden host is pushed,
	// and it gets the current data.
	w.clk.Advance(time.Minute)
	if stats := w.run(); stats.HostsUpdated != 1 || stats.Generated != 0 {
		t.Fatalf("override pass: %+v", stats)
	}
	if !hasShell(hosts[0]) || hasShell(hosts[1]) {
		t.Fatalf("after override pass: new shell on %s=%v, on %s=%v; want true/false",
			hosts[0], hasShell(hosts[0]), hosts[1], hasShell(hosts[1]))
	}

	// The next due check must report the change and deliver it.
	w.clk.Advance(25 * time.Hour)
	if stats := w.run(); stats.Generated == 0 {
		t.Errorf("due pass after the override push generated nothing: %+v", stats)
	}
	if !hasShell(hosts[1]) {
		t.Errorf("%s never received the change pushed early to %s", hosts[1], hosts[0])
	}
}

func TestSoftFailureRetries(t *testing.T) { bothJournalStates(t, testSoftFailureRetries) }
func testSoftFailureRetries(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	// Make the mailhub unreachable.
	delete(w.addrs, "ATHENA.MIT.EDU")
	stats := w.run()
	if stats.HostSoftFails != 1 {
		t.Fatalf("soft fails = %d", stats.HostSoftFails)
	}
	w.d.LockShared()
	sh, _ := w.d.ServerHost("SMTP", machIDByName(w.d, "ATHENA.MIT.EDU"))
	if sh.HostError != 0 {
		t.Error("soft failure set a hard error")
	}
	if sh.LastTry == 0 || sh.LastSuccess != 0 {
		t.Errorf("lasttry/lastsuccess = %d/%d", sh.LastTry, sh.LastSuccess)
	}
	w.d.UnlockShared()

	// The host comes back; the next pass (still before the interval —
	// lastsuccess < dfgen forces the retry) succeeds.
	a := w.agents["ATHENA.MIT.EDU"]
	w.addrs["ATHENA.MIT.EDU"] = a.Addr().String()
	w.clk.Advance(15 * time.Minute)
	stats = w.run()
	if stats.HostsUpdated != 1 {
		t.Errorf("retry pass: %+v", stats)
	}
	if w.hub.Swaps() != 1 {
		t.Errorf("mailhub swaps = %d", w.hub.Swaps())
	}
}

func TestHardFailureNotifiesAndStops(t *testing.T) {
	bothJournalStates(t, testHardFailureNotifiesAndStops)
}
func testHardFailureNotifiesAndStops(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	// Break the zephyr service's installation script on every host by
	// unregistering the reload command on the first server: pushing to
	// it hits an unknown exec command, a hard error. ZEPHYR is
	// replicated, so remaining hosts must be skipped and the service
	// marked hard-errored.
	first := "Z-1.MIT.EDU"
	a := update.NewAgent(first, t.TempDir(), nil) // no commands registered
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	w.addrs[first] = addr.String()

	stats := w.run()
	if stats.HostHardFails != 1 {
		t.Fatalf("hard fails = %d (stats %+v)", stats.HostHardFails, stats)
	}
	w.d.LockShared()
	svc, _ := w.d.ServerByName("ZEPHYR")
	if svc.HardError == 0 {
		t.Error("replicated service not marked hard-errored")
	}
	sh, _ := w.d.ServerHost("ZEPHYR", machIDByName(w.d, first))
	if sh.HostError == 0 {
		t.Error("host not marked hard-errored")
	}
	// The other zephyr hosts were skipped.
	for _, other := range w.d.ServerHostsOf("ZEPHYR") {
		if other.MachID != sh.MachID && other.Success {
			t.Error("replicated service continued after hard failure")
		}
	}
	w.d.UnlockShared()

	// Zephyrgram and mail were sent.
	select {
	case n := <-w.notices.C:
		if !strings.Contains(n.Message, "ZEPHYR") {
			t.Errorf("notice = %q", n.Message)
		}
	default:
		t.Error("no zephyrgram on hard failure")
	}
	if w.numMails() == 0 {
		t.Error("no failure mail sent")
	}

	// Hard-errored services are skipped until reset.
	w.clk.Advance(25 * time.Hour)
	stats = w.run()
	w.d.LockShared()
	svcAfter, _ := w.d.ServerByName("ZEPHYR")
	w.d.UnlockShared()
	if svcAfter.HardError == 0 {
		t.Error("hard error cleared without reset_server_error")
	}

	// reset_server_error re-enables the service.
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "reset_server_error", []string{"ZEPHYR"},
		func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Fix the broken host.
	zephyr.AttachToAgent(a, w.broker)
	priv2 := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv2, "reset_server_host_error", []string{"ZEPHYR", first},
		func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(25 * time.Hour)
	stats = w.run()
	if stats.HostHardFails != 0 {
		t.Errorf("after reset: %+v", stats)
	}
}

func TestDCMDisable(t *testing.T) { bothJournalStates(t, testDCMDisable) }
func testDCMDisable(t *testing.T, journal bool) {
	w := newWorld(t, journal, 30)
	// dcm_enable off.
	w.d.LockExclusive()
	w.d.SetValue("dcm_enable", 0)
	w.d.UnlockExclusive()
	if _, err := w.dcm.RunOnce(); err != mrerr.MrDCMDisabled {
		t.Errorf("dcm_enable=0 err = %v", err)
	}
	w.d.LockExclusive()
	w.d.SetValue("dcm_enable", 1)
	w.d.UnlockExclusive()
	if _, err := w.dcm.RunOnce(); err != nil {
		t.Errorf("re-enabled err = %v", err)
	}
}

func TestDisableFile(t *testing.T) { bothJournalStates(t, testDisableFile) }
func testDisableFile(t *testing.T, journal bool) {
	w := newWorld(t, journal, 30)
	dir := t.TempDir()
	w.dcm.cfg.DisablePath = dir // any existing path disables
	if _, err := w.dcm.RunOnce(); err != mrerr.MrDCMDisabled {
		t.Errorf("nodcm file err = %v", err)
	}
	w.dcm.cfg.DisablePath = dir + "/nonexistent"
	if _, err := w.dcm.RunOnce(); err != nil {
		t.Errorf("no nodcm file err = %v", err)
	}
}

func machIDByName(d *db.DB, name string) int {
	m, ok := d.MachineByName(name)
	if !ok {
		return -1
	}
	return m.MachID
}

// TestInProgressServiceSkipped: a service another DCM instance is
// already generating (InProgress set) must be skipped, not raced.
func TestInProgressServiceSkipped(t *testing.T) { bothJournalStates(t, testInProgressServiceSkipped) }
func testInProgressServiceSkipped(t *testing.T, journal bool) {
	w := newWorld(t, journal, 40)
	w.d.LockExclusive()
	svc, _ := w.d.ServerByName("HESIOD")
	svc.InProgress = true
	w.d.NoteUpdateInternal(svc)
	w.d.UnlockExclusive()

	stats := w.run()
	// HESIOD skipped; the other three services still ran.
	if stats.Generated != 3 {
		t.Errorf("generated = %d, want 3 (HESIOD locked out)", stats.Generated)
	}
	if w.hes.NumRecords() != 0 {
		t.Error("locked service was generated anyway")
	}
	// Release the lock; the next pass picks it up.
	w.d.LockExclusive()
	svc.InProgress = false
	w.d.NoteUpdateInternal(svc)
	w.d.UnlockExclusive()
	stats = w.run()
	if stats.Generated != 1 {
		t.Errorf("after unlock: generated = %d", stats.Generated)
	}
	if w.hes.NumRecords() == 0 {
		t.Error("unlocked service never propagated")
	}
}

// TestDisabledHostSkipped: hosts with enable=0 are never updated.
func TestDisabledHostSkipped(t *testing.T) { bothJournalStates(t, testDisabledHostSkipped) }
func testDisabledHostSkipped(t *testing.T, journal bool) {
	w := newWorld(t, journal, 40)
	w.d.LockExclusive()
	sh := w.d.ServerHostsOf("ZEPHYR")[0]
	sh.Enable = false
	m, _ := w.d.MachineByID(sh.MachID)
	w.d.NoteUpdate(sh)
	w.d.UnlockExclusive()

	stats := w.run()
	if stats.HostHardFails+stats.HostSoftFails != 0 {
		t.Fatalf("failures: %+v", stats)
	}
	w.d.LockShared()
	defer w.d.UnlockShared()
	got, _ := w.d.ServerHost("ZEPHYR", m.MachID)
	if got.Success || got.LastTry != 0 {
		t.Errorf("disabled host was touched: %+v", got)
	}
}
