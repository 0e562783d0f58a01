package hesiod

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"moira/internal/update"
)

const destDir = "/etc/athena/hesiod"

// dbSet is a StandardFiles set of about n lines: n/2 users in passwd.db
// with their uid.db CNAMEs, multi-line sloc entries, the rest small.
func dbSet(n int) map[string][]byte {
	files := map[string]*strings.Builder{}
	for _, f := range StandardFiles {
		files[f] = &strings.Builder{}
	}
	for i := 0; i < n/2; i++ {
		fmt.Fprintf(files["passwd.db"], "user%06d.passwd HS UNSPECA \"user%06d:*:%d:101:User %d,,,,:/mit/user%06d:/bin/csh\"\n", i, i, 1000+i, i, i)
		fmt.Fprintf(files["uid.db"], "%d.uid HS CNAME user%06d.passwd\n", 1000+i, i)
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 3; j++ {
			fmt.Fprintf(files["sloc.db"], "SVC%02d.sloc HS UNSPECA HOST%d.MIT.EDU\n", i, j)
		}
		fmt.Fprintf(files["cluster.db"], "c%02d.cluster HS UNSPECA \"lpr p%02d\"\n", i, i)
	}
	out := map[string][]byte{}
	for name, b := range files {
		out[name] = []byte(b.String())
	}
	return out
}

// pushRig stands in for an agent session: it installs each file set on
// a host tree and hands restart the view a push of it would give, read
// from the bundle it stages in dir.
type pushRig struct {
	t      testing.TB
	ag     *update.Agent
	s      *Server
	bundle []byte
	dir    string
	last   *update.Install // the open view, closed by the next
}

func newPushRig(t testing.TB) *pushRig {
	r := &pushRig{t: t, ag: update.NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil), s: NewServer(), dir: t.TempDir()}
	t.Cleanup(func() { r.last.Close() })
	return r
}

// view installs files and returns the push's view over the last one.
func (r *pushRig) view(files map[string][]byte) *update.Install {
	r.t.Helper()
	bundle, err := update.BuildTar(files)
	if err != nil {
		r.t.Fatal(err)
	}
	members := map[string]string{}
	for name, data := range files {
		members[destDir+"/"+name] = name
		if err := r.ag.WriteHostFile(destDir+"/"+name, data); err != nil {
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

func (r *pushRig) restart(in *update.Install) {
	r.t.Helper()
	if err := r.s.restart(r.ag, in, destDir); err != nil {
		r.t.Fatal(err)
	}
	if err := r.s.Verify(r.ag, destDir); err != nil {
		r.t.Fatal(err)
	}
}

func (s *Server) record(file, name string) *record {
	for _, f := range s.files {
		if f.name == file {
			return f.recs.Rows[name]
		}
	}
	return nil
}

// TestLoadFilesMergeIsDeterministic: a name several files define merges
// in file-name order, so every load of the same files answers the same.
func TestLoadFilesMergeIsDeterministic(t *testing.T) {
	files := map[string][]byte{
		"a.db": []byte("x.t HS UNSPECA \"a\"\ny.t HS UNSPECA \"y\"\n"),
		"b.db": []byte("x.t HS CNAME y.t\n"),
		"c.db": []byte("x.t HS UNSPECA \"c\"\n"),
		"d.db": []byte("x.t HS UNSPECA \"d\"\n"),
	}
	answers := map[string]int{}
	for i := 0; i < 100; i++ {
		s := NewServer()
		if err := s.LoadFiles(files); err != nil {
			t.Fatal(err)
		}
		vals, _ := s.Resolve("x.t")
		answers[strings.Join(vals, ",")]++
	}
	// a's value, replaced by b's CNAME, replaced by c's value, then d's
	// value appended.
	if len(answers) != 1 || answers["c,d"] != 100 {
		t.Errorf("100 loads gave %v, want c,d every time", answers)
	}
}

// TestRestartPatchesWhatChanged drives restart_hesiod through random
// pushes — edited, added and deleted lines, multi-line names edited in
// part, re-pushes, reloads from disk with no view, and installs whose
// exec never ran — and after each checks the server against a
// from-scratch parse of the installed files. A patch must leave the
// records of untouched names as they were: not parsed again.
func TestRestartPatchesWhatChanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := newPushRig(t)
	files := dbSet(400)
	r.restart(r.view(files))

	lines := func(f string) []string { return strings.SplitAfter(string(files[f]), "\n") }
	set := func(f string, l []string) { files[f] = []byte(strings.Join(l, "")) }
	patched := 0
	for round := 0; round < 200; round++ {
		switch rng.Intn(8) {
		case 0, 1: // change a user's shell
			l := lines("passwd.db")
			i := rng.Intn(len(l) - 1)
			l[i] = strings.Replace(l[i], "/bin/csh", fmt.Sprintf("/bin/sh%d", round), 1)
			set("passwd.db", l)
		case 2: // add a user and its uid
			set("passwd.db", append(lines("passwd.db"), fmt.Sprintf("new%d.passwd HS UNSPECA \"new%d:*:%d:101:N,,,,:/mit/new%d:/bin/csh\"\n", round, round, 90000+round, round)))
			l := lines("uid.db")
			i := rng.Intn(len(l))
			set("uid.db", slices.Insert(l, i, fmt.Sprintf("%d.uid HS CNAME new%d.passwd\n", 90000+round, round)))
		case 3: // delete a line
			f := []string{"passwd.db", "uid.db", "sloc.db"}[rng.Intn(3)]
			l := lines(f)
			if len(l) > 2 {
				i := rng.Intn(len(l) - 1)
				set(f, slices.Delete(l, i, i+1))
			}
		case 4: // edit one line of a multi-line name
			l := lines("sloc.db")
			i := rng.Intn(len(l) - 1)
			name, _, _ := strings.Cut(l[i], " ")
			l[i] = fmt.Sprintf("%s HS UNSPECA R%d.MIT.EDU\n", name, round)
			set("sloc.db", l)
		case 5: // re-push the same bundle
		case 6: // a reload with no push view reads the installed files
			r.view(files)
			if err := r.s.restart(r.ag, nil, destDir); err != nil {
				t.Fatal(err)
			}
			if err := r.s.Verify(r.ag, destDir); err != nil {
				t.Fatal(err)
			}
			continue
		case 7: // installed, but the exec never ran (a crash)
			files["cluster.db"] = append(files["cluster.db"], fmt.Sprintf("x%d.cluster HS UNSPECA \"y\"\n", round)...)
			r.view(files)
			continue
		}
		untouched := fmt.Sprintf("%d.uid", 1000+rng.Intn(50))
		before := r.s.record("uid.db", untouched)
		in := r.view(files)
		r.restart(in)
		if f, _ := in.File(destDir + "/uid.db"); len(f.Edits) > 0 && before != nil &&
			r.s.record("uid.db", untouched) == before {
			patched++
		}
	}
	if patched < 20 {
		t.Errorf("only %d restarts that changed uid.db patched it in place", patched)
	}
}

// TestRestartRefusesBadPush: a malformed line in any file fails the
// restart and leaves every file's records as they were.
func TestRestartRefusesBadPush(t *testing.T) {
	r := newPushRig(t)
	files := dbSet(40)
	r.restart(r.view(files))
	want, _ := r.s.Resolve("user000003.passwd")

	files["passwd.db"] = append([]byte("user000003.passwd HS UNSPECA \"changed\"\n"), files["passwd.db"]...)
	files["uid.db"] = append(files["uid.db"], "broken line\n"...)
	if err := r.s.restart(r.ag, r.view(files), destDir); err == nil {
		t.Fatal("restart accepted a malformed uid.db")
	}
	if got, _ := r.s.Resolve("user000003.passwd"); !slices.Equal(got, want) {
		t.Errorf("failed restart changed passwd.db: %v, want %v", got, want)
	}
}

// TestDeltaReloadAllocsIndependentOfFileSize: a restart that takes in a
// one-line change allocates the same at 2,000 lines as at 20,000 — the
// change's cost, not the file's (the median of 21 restarts).
func TestDeltaReloadAllocsIndependentOfFileSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// One P, so the tar reader's pooled discard buffer is always the
	// local P's to reuse.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perReload := func(n int) (perBytes, perObjects float64) {
		r := newPushRig(t)
		a := dbSet(n)
		b := map[string][]byte{}
		for k, v := range a {
			b[k] = v
		}
		b["passwd.db"] = []byte(strings.Replace(string(a["passwd.db"]), "user000100:*:1100:101:User 100,,,,:/mit/user000100:/bin/csh", "user000100:*:1100:101:User 100,,,,:/mit/user000100:/bin/tcsh", 1))
		r.restart(r.view(a))
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
			if err := r.s.restart(r.ag, in, destDir); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc))
			objects = append(objects, float64(after.Mallocs-before.Mallocs))
		}
		if err := r.s.Verify(r.ag, destDir); err != nil {
			t.Fatal(err)
		}
		slices.Sort(allocs)
		slices.Sort(objects)
		return allocs[10], objects[10]
	}
	smallB, smallN := perReload(2000)
	bigB, bigN := perReload(20000)
	t.Logf("one-line restart: %.0f B / %.0f objects at 2,000 lines, %.0f B / %.0f objects at 20,000", smallB, smallN, bigB, bigN)
	if bigB > 1.1*smallB || bigN > 1.1*smallN {
		t.Errorf("a one-line restart costs %.0f B / %.0f objects at 20,000 lines, over 10%% above %.0f B / %.0f at 2,000", bigB, bigN, smallB, smallN)
	}
}

// TestRestartFromSeveralAgentsAtOnce: agents that share a server may run
// restart_hesiod at the same time, while lookups go on. Each reload
// plans against the records it commits over, so after every round the
// server holds exactly the installed files.
func TestRestartFromSeveralAgentsAtOnce(t *testing.T) {
	a, b := newPushRig(t), newPushRig(t)
	b.s = a.s
	files := dbSet(200)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.s.Resolve("1005.uid")
			}
		}
	}()
	for round := 0; round < 20; round++ {
		files["passwd.db"] = append(files["passwd.db"], fmt.Sprintf("r%d.passwd HS UNSPECA \"r\"\n", round)...)
		views := []*update.Install{a.view(files), b.view(files)}
		var wg sync.WaitGroup
		for i, r := range []*pushRig{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := r.s.restart(r.ag, views[i], destDir); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if err := a.s.Verify(a.ag, destDir); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	readers.Wait()
}
