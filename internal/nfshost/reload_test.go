package nfshost

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"moira/internal/update"
)

const nfsDir = "/etc/athena/nfs"

var parts = []string{"/u1", "/u2"}

// nfsSet is an NFS bundle of about n lines: credentials and each
// partition's quotas for n/4 users, and a few lockers per partition.
func nfsSet(n int) map[string][]byte {
	var creds strings.Builder
	files := map[string][]byte{}
	for _, p := range parts {
		var quotas, dirs strings.Builder
		for i := 0; i < n/4; i++ {
			fmt.Fprintf(&quotas, "%d %d\n", 1000+i, 100+i%7)
		}
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&dirs, "%s/proj%02d %d 100 PROJECT\n", p, i, 1000+i)
		}
		files[p[1:]+".quotas"] = []byte(quotas.String())
		files[p[1:]+".dirs"] = []byte(dirs.String())
	}
	for i := 0; i < n/4; i++ {
		fmt.Fprintf(&creds, "user%06d:%d:100:%d\n", i, 1000+i, 2000+i)
	}
	files["credentials"] = []byte(creds.String())
	return files
}

// installRig stands in for an agent session: it installs each file set
// on a host tree and runs install_nfs for every partition with the view
// a push of it would give, read from the bundle it stages in dir.
type installRig struct {
	t      testing.TB
	ag     *update.Agent
	h      *Host
	bundle []byte
	dir    string
	last   *update.Install // the open view, closed by the next
}

func newInstallRig(t testing.TB) *installRig {
	r := &installRig{t: t, ag: update.NewAgent("FS-01.MIT.EDU", t.TempDir(), nil), h: NewHost("FS-01.MIT.EDU"), dir: t.TempDir()}
	AttachToAgent(r.ag, r.h)
	t.Cleanup(func() { r.last.Close() })
	return r
}

func (r *installRig) view(files map[string][]byte) *update.Install {
	r.t.Helper()
	bundle, err := update.BuildTar(files)
	if err != nil {
		r.t.Fatal(err)
	}
	members := map[string]string{}
	for name, data := range files {
		members[nfsDir+"/"+name] = name
		if err := r.ag.WriteHostFile(nfsDir+"/"+name, data); err != nil {
			r.t.Fatal(err)
		}
	}
	r.last.Close()
	in, err := update.StageInstall(filepath.Join(r.dir, "bundle"), r.bundle, bundle, members)
	if err != nil {
		r.t.Fatal(err)
	}
	r.last = in
	r.bundle = bundle
	return in
}

func (r *installRig) install(in *update.Install) {
	r.t.Helper()
	for _, p := range parts {
		if err := r.h.install(r.ag, in, nfsDir, p); err != nil {
			r.t.Fatal(err)
		}
	}
	if err := r.h.Verify(r.ag, nfsDir); err != nil {
		r.t.Fatal(err)
	}
}

// TestInstallFailureChangesNothing: a malformed directories line fails
// install_nfs before anything changes — not after the credentials and
// quotas were replaced and the lockers above the bad line created.
func TestInstallFailureChangesNothing(t *testing.T) {
	a, h := installFixture(t)
	if err := a.ExecCommand("install_nfs", []string{"/etc/athena/nfs", "/u1"}); err != nil {
		t.Fatal(err)
	}
	for p, content := range map[string]string{
		"/etc/athena/nfs/credentials": "babette:6530:10914\nkazimi:6533:999\nnewbie:6540:10914\n",
		"/etc/athena/nfs/u1.quotas":   "6530 900\n6533 450\n6540 100\n",
		"/etc/athena/nfs/u1.dirs":     "/u1/babette 6530 10914 HOMEDIR\n/u1/newbie 6540 10914 HOMEDIR\n/u1/broken x y HOMEDIR\n",
	} {
		if err := a.WriteHostFile(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ExecCommand("install_nfs", []string{"/etc/athena/nfs", "/u1"}); err == nil {
		t.Fatal("install with a malformed dirs line succeeded")
	}
	if _, ok := h.CredentialOf("newbie"); ok {
		t.Error("failed install loaded the new credentials")
	}
	if c, _ := h.CredentialOf("kazimi"); len(c.GIDs) != 2 {
		t.Errorf("failed install changed kazimi: %+v", c)
	}
	if q, _ := h.QuotaOf("/u1", 6530); q != 300 {
		t.Errorf("failed install changed a quota to %d", q)
	}
	if h.NumLockers() != 2 || h.Installs() != 1 {
		t.Errorf("failed install left %d lockers, %d installs; want 2, 1", h.NumLockers(), h.Installs())
	}
	fp, _ := a.HostPath("/u1/newbie")
	if _, err := os.Stat(fp); !os.IsNotExist(err) {
		t.Errorf("failed install created a locker in the host tree: %v", err)
	}
}

// TestInstallPatchesWhatChanged drives install_nfs through random pushes
// — credentials and quotas edited, added, deleted and repeated, new
// lockers, re-pushes, installs with no view, and installs whose exec
// never ran — and after each checks the host against a from-scratch
// parse of the installed files. Every partition's run reads the one
// credentials file; a patch leaves untouched credentials as they were.
func TestInstallPatchesWhatChanged(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := newInstallRig(t)
	files := nfsSet(800)
	r.install(r.view(files))

	lines := func(f string) []string { return strings.SplitAfter(string(files[f]), "\n") }
	set := func(f string, l []string) { files[f] = []byte(strings.Join(l, "")) }
	patched := 0
	for round := 0; round < 200; round++ {
		switch rng.Intn(8) {
		case 0: // a credential's groups change
			l := lines("credentials")
			i := rng.Intn(len(l) - 1)
			l[i] = strings.TrimSuffix(l[i], "\n") + fmt.Sprintf(":%d\n", round)
			set("credentials", l)
		case 1: // a new user on one partition
			p := parts[rng.Intn(len(parts))][1:]
			set("credentials", slices.Insert(lines("credentials"), rng.Intn(100), fmt.Sprintf("new%d:%d:100\n", round, 9000+round)))
			set(p+".quotas", append(lines(p+".quotas"), fmt.Sprintf("%d 5\n", 9000+round)))
			set(p+".dirs", append(lines(p+".dirs"), fmt.Sprintf("/%s/new%d %d 100 HOMEDIR\n", p, round, 9000+round)))
		case 2: // a line goes away
			f := []string{"credentials", "u1.quotas", "u2.quotas"}[rng.Intn(3)]
			if l := lines(f); len(l) > 2 {
				i := rng.Intn(len(l) - 1)
				set(f, slices.Delete(l, i, i+1))
			}
		case 3: // a quota changes
			p := parts[rng.Intn(len(parts))][1:]
			l := lines(p + ".quotas")
			i := rng.Intn(len(l) - 1)
			uid, _, _ := strings.Cut(l[i], " ")
			l[i] = fmt.Sprintf("%s %d\n", uid, round)
			set(p+".quotas", l)
		case 4: // a key repeats (later line wins), or the repeat goes
			l := lines("credentials")
			if strings.HasPrefix(l[0], "dup:") {
				set("credentials", l[1:len(l)-2])
			} else {
				set("credentials", append([]string{"dup:1:1\n"}, append(l, "dup:2:2\n")...))
			}
		case 5: // re-push the same bundle
		case 6: // install_nfs with no push view reads the installed files
			r.view(files)
			for _, p := range parts {
				if err := r.ag.ExecCommand("install_nfs", []string{nfsDir, p}); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.h.Verify(r.ag, nfsDir); err != nil {
				t.Fatal(err)
			}
			continue
		case 7: // installed, but the exec never ran (a crash)
			set("u2.quotas", append(lines("u2.quotas"), fmt.Sprintf("%d 1\n", 50000+round)))
			r.view(files)
			continue
		}
		before, _ := r.h.CredentialOf("user000150")
		in := r.view(files)
		r.install(in)
		after, _ := r.h.CredentialOf("user000150")
		if f, _ := in.File(nfsDir + "/credentials"); len(f.Edits) > 0 && len(before.GIDs) > 0 && &before.GIDs[0] == &after.GIDs[0] {
			patched++
		}
	}
	if patched < 20 {
		t.Errorf("only %d installs that changed credentials patched them in place", patched)
	}
}

// TestDeltaReloadAllocsIndependentOfFileSize: install_nfs taking in a
// one-line credentials change allocates the same at 2,000 lines as at
// 20,000 (the median of 21 installs).
func TestDeltaReloadAllocsIndependentOfFileSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// One P, so the tar reader's pooled discard buffer is always the
	// local P's to reuse.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perReload := func(n int) (perBytes, perObjects float64) {
		r := newInstallRig(t)
		a := nfsSet(n)
		b := map[string][]byte{}
		for k, v := range a {
			b[k] = v
		}
		b["credentials"] = []byte(strings.Replace(string(a["credentials"]), "user000100:1100:100:2100\n", "user000100:1100:100:2100:7\n", 1))
		r.install(r.view(a))
		var allocs, objects []float64
		for i := 0; i < 21; i++ {
			next := a
			if i%2 == 0 {
				next = b
			}
			in := r.view(next)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, p := range parts {
				if err := r.h.install(r.ag, in, nfsDir, p); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc))
			objects = append(objects, float64(after.Mallocs-before.Mallocs))
		}
		if err := r.h.Verify(r.ag, nfsDir); err != nil {
			t.Fatal(err)
		}
		slices.Sort(allocs)
		slices.Sort(objects)
		return allocs[10], objects[10]
	}
	smallB, smallN := perReload(2000)
	bigB, bigN := perReload(20000)
	t.Logf("one-line install: %.0f B / %.0f objects at 2,000 lines, %.0f B / %.0f objects at 20,000", smallB, smallN, bigB, bigN)
	if bigB > 1.1*smallB || bigN > 1.1*smallN {
		t.Errorf("a one-line install costs %.0f B / %.0f objects at 20,000 lines, over 10%% above %.0f B / %.0f at 2,000", bigB, bigN, smallB, smallN)
	}
}
