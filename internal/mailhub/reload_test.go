package mailhub

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"moira/internal/update"
)

const mailDir = "/usr/lib"

// mailSet is a mailhub bundle of about n lines: aliases for n/4 users
// and n/40 lists whose members run onto continuation lines, and a passwd
// line per user.
func mailSet(n int) map[string][]byte {
	var aliases, passwd strings.Builder
	aliases.WriteString("# Moira-generated aliases\n")
	for i := 0; i < n/4; i++ {
		fmt.Fprintf(&aliases, "user%06d: user%06d@PO-%d.LOCAL\n", i, i, i%3)
		fmt.Fprintf(&passwd, "user%06d:*:%d:101:User %d,,,:/mit/user%06d:/bin/csh\n", i, 1000+i, i, i)
	}
	for i := 0; i < n/40; i++ {
		fmt.Fprintf(&aliases, "list%04d: user%06d, user%06d,\n\tuser%06d\n", i, i, i+1, i+2)
	}
	return map[string][]byte{"aliases": []byte(aliases.String()), "passwd": []byte(passwd.String())}
}

// stageRig stands in for an agent session: it stages each file set as
// the mail install script does and runs stage_aliases with the view a
// push of it would give, read from the bundle it stages in dir.
type stageRig struct {
	t      testing.TB
	ag     *update.Agent
	h      *Hub
	bundle []byte
	dir    string
	last   *update.Install // the open view, closed by the next
}

func newStageRig(t testing.TB) *stageRig {
	r := &stageRig{t: t, ag: update.NewAgent("ATHENA.MIT.EDU", t.TempDir(), nil), h: NewHub(), dir: t.TempDir()}
	AttachToAgent(r.ag, r.h)
	t.Cleanup(func() { r.last.Close() })
	return r
}

func (r *stageRig) view(files map[string][]byte) *update.Install {
	r.t.Helper()
	bundle, err := update.BuildTar(files)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.ag.WriteHostFile(mailDir+"/aliases.moira_update", files["aliases"]); err != nil {
		r.t.Fatal(err)
	}
	if err := r.ag.WriteHostFile(mailDir+"/passwd", files["passwd"]); err != nil {
		r.t.Fatal(err)
	}
	r.last.Close()
	in, err := update.StageInstall(filepath.Join(r.dir, "bundle"), r.bundle, bundle, map[string]string{mailDir + "/aliases": "aliases", mailDir + "/passwd": "passwd"})
	if err != nil {
		r.t.Fatal(err)
	}
	r.last = in
	r.bundle = bundle
	return in
}

func (r *stageRig) stage(in *update.Install) {
	r.t.Helper()
	if err := r.h.stage(r.ag, in, mailDir); err != nil {
		r.t.Fatal(err)
	}
	if err := r.h.Verify(r.ag, mailDir); err != nil {
		r.t.Fatal(err)
	}
}

// TestStagePatchesWhatChanged drives stage_aliases through random pushes
// — entries edited, added and deleted, continuation lines added inside
// an entry, names repeated, comments, passwd lines changed, re-pushes,
// stages with no view, and installs whose exec never ran — and after
// each checks the hub against a from-scratch parse of the installed
// files. A patch leaves untouched entries as they were.
func TestStagePatchesWhatChanged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := newStageRig(t)
	files := mailSet(800)
	r.stage(r.view(files))

	lines := func(f string) []string { return strings.SplitAfter(string(files[f]), "\n") }
	set := func(f string, l []string) {
		data := []byte(strings.Join(l, ""))
		if _, err := ParseAliases(data); err == nil || f != "aliases" {
			files[f] = data // a mutation that breaks the file is not made
		}
	}
	patched := 0
	for round := 0; round < 200; round++ {
		switch rng.Intn(9) {
		case 0: // an entry's target changes
			l := lines("aliases")
			i := 1 + rng.Intn(150)
			name, _, _ := strings.Cut(l[i], ":")
			l[i] = fmt.Sprintf("%s: %s@PO-%d.LOCAL\n", name, name, round)
			set("aliases", l)
		case 1: // a new entry, a comment, or a continuation line inside a list
			l := lines("aliases")
			i := 1 + rng.Intn(len(l)-2)
			add := []string{fmt.Sprintf("new%d: new%d@PO-1.LOCAL\n", round, round), "# note\n", fmt.Sprintf("\tmore%d\n", round)}[rng.Intn(3)]
			set("aliases", slices.Insert(l, i, add))
		case 2: // an entry goes, continuation lines and all
			l := lines("aliases")
			i := 1 + rng.Intn(len(l)-2)
			j := i + 1
			for j < len(l) && strings.HasPrefix(l[j], "\t") {
				j++
			}
			set("aliases", slices.Delete(l, i, j))
		case 3: // a name repeats (addresses accumulate), or the repeat goes
			l := lines("aliases")
			if strings.HasPrefix(l[1], "user000000:") && strings.HasPrefix(l[2], "user000000:") {
				set("aliases", slices.Delete(l, 1, 2))
			} else {
				set("aliases", slices.Insert(l, 1, "user000000: extra\n"))
			}
		case 4: // a passwd line changes
			l := lines("passwd")
			i := rng.Intn(len(l) - 1)
			l[i] = strings.Replace(l[i], "/bin/csh", fmt.Sprintf("/bin/sh%d", round), 1)
			set("passwd", l)
		case 5, 6: // re-push the same bundle
		case 7: // stage_aliases with no push view reads the staged files
			r.view(files)
			if err := r.ag.ExecCommand("stage_aliases", []string{mailDir}); err != nil {
				t.Fatal(err)
			}
			if err := r.h.Verify(r.ag, mailDir); err != nil {
				t.Fatal(err)
			}
			continue
		case 8: // staged, but the exec never ran (a crash)
			set("aliases", append(lines("aliases"), fmt.Sprintf("lost%d: x\n", round)))
			r.view(files)
			continue
		}
		r.h.mu.RLock()
		before := r.h.aliases.Rows["user000150"]
		r.h.mu.RUnlock()
		in := r.view(files)
		r.stage(in)
		r.h.mu.RLock()
		after := r.h.aliases.Rows["user000150"]
		r.h.mu.RUnlock()
		if f, _ := in.File(mailDir + "/aliases"); len(f.Edits) > 0 && len(before) > 0 && &before[0] == &after[0] {
			patched++
		}
	}
	if patched < 20 {
		t.Errorf("only %d stages that changed aliases patched them in place", patched)
	}
}

// TestDeltaReloadAllocsIndependentOfFileSize: stage_aliases taking in a
// one-line aliases change allocates the same at 2,000 lines as at
// 20,000 (the median of 21 stages).
func TestDeltaReloadAllocsIndependentOfFileSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// One P, so the tar reader's pooled discard buffer is always the
	// local P's to reuse.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perReload := func(n int) (perBytes, perObjects float64) {
		r := newStageRig(t)
		a := mailSet(n)
		b := map[string][]byte{
			"aliases": []byte(strings.Replace(string(a["aliases"]), "user000100: user000100@PO-1.LOCAL\n", "user000100: user000100@PO-2.LOCAL\n", 1)),
			"passwd":  a["passwd"],
		}
		r.stage(r.view(a))
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
			if err := r.h.stage(r.ag, in, mailDir); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc))
			objects = append(objects, float64(after.Mallocs-before.Mallocs))
		}
		if err := r.h.Verify(r.ag, mailDir); err != nil {
			t.Fatal(err)
		}
		slices.Sort(allocs)
		slices.Sort(objects)
		return allocs[10], objects[10]
	}
	smallB, smallN := perReload(2000)
	bigB, bigN := perReload(20000)
	t.Logf("one-line stage: %.0f B / %.0f objects at 2,000 lines, %.0f B / %.0f objects at 20,000", smallB, smallN, bigB, bigN)
	if bigB > 1.1*smallB || bigN > 1.1*smallN {
		t.Errorf("a one-line stage costs %.0f B / %.0f objects at 20,000 lines, over 10%% above %.0f B / %.0f at 2,000", bigB, bigN, smallB, smallN)
	}
}
