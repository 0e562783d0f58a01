package zephyr

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/mrerr"
	"moira/internal/update"
)

func TestSendAndSubscribe(t *testing.T) {
	b := NewBroker(clock.NewFake(time.Unix(600000000, 0)))
	sub, err := b.Subscribe("MOIRA", "DCM", "operator")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send("MOIRA", "DCM", "dcm", "hesiod update failed"); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C:
		if n.Class != "MOIRA" || n.Instance != "DCM" || n.Message != "hesiod update failed" {
			t.Errorf("notice = %+v", n)
		}
		if n.Time != 600000000 {
			t.Errorf("time = %d", n.Time)
		}
	default:
		t.Fatal("no notice delivered")
	}
}

func TestWildcardInstance(t *testing.T) {
	b := NewBroker(nil)
	all, _ := b.Subscribe("MOIRA", "*", "op")
	one, _ := b.Subscribe("MOIRA", "NFS", "op")
	b.Send("MOIRA", "DCM", "dcm", "msg1")
	b.Send("MOIRA", "NFS", "dcm", "msg2")
	if len(all.C) != 2 {
		t.Errorf("wildcard got %d notices", len(all.C))
	}
	if len(one.C) != 1 {
		t.Errorf("specific got %d notices", len(one.C))
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	b := NewBroker(nil)
	sub, _ := b.Subscribe("C", "I", "p")
	sub.Cancel()
	b.Send("C", "I", "p", "m")
	if len(sub.C) != 0 {
		t.Error("cancelled subscription received a notice")
	}
}

// aclDir is where the tests install ACL files on a host.
const aclDir = "/etc/athena/zephyr"

// handReload writes files (name → contents) under aclDir on a new
// agent's host and has an operator run reload_zephyr_acls over them
// by hand (no push view).
func handReload(t *testing.T, b *Broker, files map[string]string) {
	t.Helper()
	a := update.NewAgent("Z-1.MIT.EDU", t.TempDir(), nil)
	AttachToAgent(a, b)
	names := []string{aclDir}
	for name, data := range files {
		if err := a.WriteHostFile(aclDir+"/"+name, []byte(data)); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := a.ExecCommand("reload_zephyr_acls", names); err != nil {
		t.Fatal(err)
	}
}

func TestACLEnforcement(t *testing.T) {
	b := NewBroker(nil)
	handReload(t, b, map[string]string{
		"RESTRICTED.xmt.acl": "dcm\n",
		"RESTRICTED.sub.acl": "operator\n",
		"OPEN.xmt.acl":       "*.*@*\n",
		"OPEN.sub.acl":       "*.*@*\n",
		"CLOSED.xmt.acl":     "",
		"CLOSED.sub.acl":     "",
	})

	if err := b.Send("RESTRICTED", "I", "randal", "m"); err != mrerr.MrPerm {
		t.Errorf("unauthorized send err = %v", err)
	}
	if err := b.Send("RESTRICTED", "I", "dcm", "m"); err != nil {
		t.Errorf("authorized send err = %v", err)
	}
	if _, err := b.Subscribe("RESTRICTED", "*", "randal"); err != mrerr.MrPerm {
		t.Errorf("unauthorized sub err = %v", err)
	}
	if _, err := b.Subscribe("RESTRICTED", "*", "operator"); err != nil {
		t.Errorf("authorized sub err = %v", err)
	}
	// Wildcard entry opens the class.
	if err := b.Send("OPEN", "I", "anyone", "m"); err != nil {
		t.Errorf("wildcard send err = %v", err)
	}
	// An empty ACL file denies everyone.
	if err := b.Send("CLOSED", "I", "dcm", "m"); err != mrerr.MrPerm {
		t.Errorf("empty acl send err = %v", err)
	}
	// No ACL at all is unrestricted.
	if err := b.Send("UNKNOWN", "I", "anyone", "m"); err != nil {
		t.Errorf("no-acl send err = %v", err)
	}
}

// aclRig stands in for a zephyr host's agent sessions: it installs each
// set of ACL files under aclDir and hands the reload the view a push of
// them would give, read from the bundle it stages.
type aclRig struct {
	t      testing.TB
	ag     *update.Agent
	b      *Broker
	bundle []byte
	dir    string
	last   *update.Install // the open view, closed by the next
}

func newACLRig(t testing.TB) *aclRig {
	r := &aclRig{t: t, ag: update.NewAgent("Z-1.MIT.EDU", t.TempDir(), nil), b: NewBroker(nil), dir: t.TempDir()}
	AttachToAgent(r.ag, r.b)
	t.Cleanup(func() { r.last.Close() })
	return r
}

// push installs files and returns the push's view over the last set
// and the file names, sorted, as the install script names them.
func (r *aclRig) push(files map[string][]byte) (*update.Install, []string) {
	r.t.Helper()
	bundle, err := update.BuildTar(files)
	if err != nil {
		r.t.Fatal(err)
	}
	members := map[string]string{}
	var names []string
	for name, data := range files {
		members[aclDir+"/"+name] = name
		names = append(names, name)
		if err := r.ag.WriteHostFile(aclDir+"/"+name, data); err != nil {
			r.t.Fatal(err)
		}
	}
	slices.Sort(names)
	r.last.Close()
	in, err := update.StageInstall(filepath.Join(r.dir, "bundle"), r.bundle, bundle, members)
	if err != nil {
		r.t.Fatal(err)
	}
	r.last, r.bundle = in, bundle
	return in, names
}

// reload pushes files, reloads from the push's view and checks the
// broker against a from-scratch load of them.
func (r *aclRig) reload(files map[string][]byte) {
	r.t.Helper()
	in, names := r.push(files)
	if err := r.b.reloadACLs(r.ag, in, aclDir, names); err != nil {
		r.t.Fatal(err)
	}
	if err := r.b.Verify(r.ag, aclDir, names); err != nil {
		r.t.Fatal(err)
	}
}

// TestReloadACLFiles: a reload holds exactly the ACL files it names, by
// hand from disk or from a push's view. A file on disk the reload does
// not name, one that a later reload stops naming, and one no longer in
// the push leave their functions unrestricted; an iws file is held and
// not enforced; a reload with a file that does not parse or is missing
// changes nothing.
func TestReloadACLFiles(t *testing.T) {
	check := func(t *testing.T, b *Broker, class, fn, principal string, want error) {
		t.Helper()
		err := b.Send(class, "I", principal, "m")
		if fn == "sub" {
			_, err = b.Subscribe(class, "*", principal)
		}
		if err != want {
			t.Errorf("%s %s by %s: err = %v, want %v", class, fn, principal, err, want)
		}
	}
	files := map[string][]byte{
		"MOIRA.xmt.acl": []byte("dcm\nmoira\n"),
		"MOIRA.sub.acl": []byte("*.*@*\n"),
		"EMPTY.xmt.acl": {},
		"MOIRA.iws.acl": []byte("ignored\n"),
	}

	t.Run("by hand", func(t *testing.T) {
		r := newACLRig(t)
		_, names := r.push(files)
		if err := r.ag.WriteHostFile(aclDir+"/STALE.xmt.acl", []byte("nobody\n")); err != nil {
			t.Fatal(err)
		}
		if err := r.ag.ExecCommand("reload_zephyr_acls", append([]string{aclDir}, names...)); err != nil {
			t.Fatal(err)
		}
		if err := r.b.Verify(r.ag, aclDir, names); err != nil {
			t.Fatal(err)
		}
		check(t, r.b, "MOIRA", "xmt", "dcm", nil)
		check(t, r.b, "MOIRA", "xmt", "stranger", mrerr.MrPerm)
		check(t, r.b, "MOIRA", "sub", "anyone", nil)
		check(t, r.b, "EMPTY", "xmt", "anyone", mrerr.MrPerm)
		check(t, r.b, "STALE", "xmt", "anyone", nil)

		for _, bad := range [][]string{
			{aclDir, "MOIRA.sub.acl", "GONE.xmt.acl"}, // not installed
			{aclDir, "MOIRA.sub.acl", "notacl.txt"},
			{aclDir, "MOIRA.sub.acl", "MOIRA.sub.acl"},
		} {
			if err := r.ag.ExecCommand("reload_zephyr_acls", bad); err == nil {
				t.Errorf("reload %v succeeded", bad)
			}
		}
		if err := r.b.Verify(r.ag, aclDir, names); err != nil {
			t.Errorf("a failed reload changed the broker: %v", err)
		}

		if err := r.ag.ExecCommand("reload_zephyr_acls", []string{aclDir, "MOIRA.sub.acl"}); err != nil {
			t.Fatal(err)
		}
		check(t, r.b, "MOIRA", "xmt", "stranger", nil)
		check(t, r.b, "EMPTY", "xmt", "anyone", nil)
		check(t, r.b, "MOIRA", "sub", "anyone", nil)
	})

	t.Run("from a push", func(t *testing.T) {
		r := newACLRig(t)
		r.reload(files)
		check(t, r.b, "MOIRA", "xmt", "stranger", mrerr.MrPerm)
		check(t, r.b, "EMPTY", "xmt", "anyone", mrerr.MrPerm)

		// One principal changes; EMPTY's ACE goes to NONE.
		next := maps.Clone(files)
		next["MOIRA.xmt.acl"] = []byte("dcm\nstranger\n")
		delete(next, "EMPTY.xmt.acl")
		r.reload(next)
		check(t, r.b, "MOIRA", "xmt", "stranger", nil)
		check(t, r.b, "MOIRA", "xmt", "moira", mrerr.MrPerm)
		check(t, r.b, "EMPTY", "xmt", "anyone", nil)

		// The same bundle again, then a sub ACL that names nobody.
		r.reload(next)
		next["MOIRA.sub.acl"] = []byte("")
		r.reload(next)
		check(t, r.b, "MOIRA", "sub", "anyone", mrerr.MrPerm)
	})
}

func TestLogRecordsAcceptedNotices(t *testing.T) {
	b := NewBroker(nil)
	handReload(t, b, map[string]string{"X.xmt.acl": ""})
	b.Send("X", "I", "p", "rejected")
	b.Send("Y", "I", "p", "accepted")
	log := b.Log()
	if len(log) != 1 || log[0].Message != "accepted" {
		t.Errorf("log = %v", log)
	}
}

func TestFullChannelDoesNotBlockSend(t *testing.T) {
	b := NewBroker(nil)
	sub, _ := b.Subscribe("C", "I", "p")
	for i := 0; i < 200; i++ {
		if err := b.Send("C", "I", "p", "flood"); err != nil {
			t.Fatal(err)
		}
	}
	if len(sub.C) != cap(sub.C) {
		t.Errorf("channel holds %d of %d", len(sub.C), cap(sub.C))
	}
}

// TestReloadFromSeveralAgentsAtOnce: the agents of zephyr servers that
// share one broker may reload at the same time, while notices are sent.
// Each reload plans against the ACLs it commits over, so after every
// round the broker holds exactly the installed files.
func TestReloadFromSeveralAgentsAtOnce(t *testing.T) {
	a, b := newACLRig(t), newACLRig(t)
	b.b = a.b
	stop := make(chan struct{})
	var senders sync.WaitGroup
	senders.Add(1)
	go func() {
		defer senders.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.b.Send("C", "I", "nobody", "m") // refused: the log stays empty
			}
		}
	}()
	for round := 0; round < 20; round++ {
		files := map[string][]byte{
			"C.xmt.acl": []byte(fmt.Sprintf("u%d\nv\n", round)),
			"C.sub.acl": []byte("v\n"),
		}
		if round%3 == 0 {
			delete(files, "C.sub.acl")
		}
		var reloads sync.WaitGroup
		var names []string
		for _, r := range []*aclRig{a, b} {
			in, rnames := r.push(files)
			names = rnames
			reloads.Add(1)
			go func() {
				defer reloads.Done()
				if err := r.b.reloadACLs(r.ag, in, aclDir, rnames); err != nil {
					t.Error(err)
				}
			}()
		}
		reloads.Wait()
		if err := a.b.Verify(a.ag, aclDir, names); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	senders.Wait()
}

// TestReloadACLsStaysInHostTree: reload_zephyr_acls resolves its
// directory and each file inside the agent's root, so a path that climbs
// out of the host tree is refused rather than loaded.
func TestReloadACLsStaysInHostTree(t *testing.T) {
	base := t.TempDir()
	outside := filepath.Join(base, "outside")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outside, "MOIRA.xmt.acl"), []byte("intruder\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := update.NewAgent("Z-1.MIT.EDU", filepath.Join(base, "root"), nil)
	b := NewBroker(nil)
	AttachToAgent(a, b)
	for _, args := range [][]string{
		{"../outside", "MOIRA.xmt.acl"},
		{"/etc", "../../outside/MOIRA.xmt.acl"},
	} {
		if err := a.ExecCommand("reload_zephyr_acls", args); err == nil {
			t.Errorf("reload %v from outside the host tree succeeded", args)
		}
	}
	if err := b.Send("MOIRA", "DCM", "dcm", "m"); err != nil {
		t.Errorf("an ACL from outside the host tree was loaded: send err = %v", err)
	}
}

// TestDeltaReloadAllocsIndependentOfFileSize: a push that changes one
// line of an ACL file patches that line's principal, so the reload
// allocates the same for a 2,000-line file as for a 20,000-line one. A
// reload that re-read or re-parsed the file whole would grow tenfold.
func TestDeltaReloadAllocsIndependentOfFileSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// One P, so the tar reader's pooled discard buffer is always the
	// local P's to reuse.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perReload := func(n int) (perBytes, perObjects float64) {
		r := newACLRig(t)
		var acl strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&acl, "user%06d\n", i)
		}
		a := map[string][]byte{"BIG.xmt.acl": []byte(acl.String()), "BIG.sub.acl": []byte("dcm\n")}
		b := maps.Clone(a)
		b["BIG.xmt.acl"] = []byte(strings.Replace(acl.String(), "user000100\n", "newcomer\n", 1))
		r.reload(a)
		var allocs, objects []float64
		for i := 0; i < 21; i++ {
			next := a
			if i%2 == 0 {
				next = b
			}
			in, names := r.push(next)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := r.b.reloadACLs(r.ag, in, aclDir, names); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc))
			objects = append(objects, float64(after.Mallocs-before.Mallocs))
		}
		if err := r.b.Verify(r.ag, aclDir, []string{"BIG.sub.acl", "BIG.xmt.acl"}); err != nil {
			t.Fatal(err)
		}
		slices.Sort(allocs)
		slices.Sort(objects)
		return allocs[10], objects[10]
	}
	smallB, smallN := perReload(2000)
	bigB, bigN := perReload(20000)
	t.Logf("one-line reload: %.0f B / %.0f objects at 2,000 lines, %.0f B / %.0f objects at 20,000", smallB, smallN, bigB, bigN)
	if bigB > 1.1*smallB || bigN > 1.1*smallN {
		t.Errorf("a one-line reload costs %.0f B / %.0f objects at 20,000 lines, over 10%% above %.0f B / %.0f at 2,000", bigB, bigN, smallB, smallN)
	}
}
