package update

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keptRig is an agent and a pusher of bundles of the same members, each
// extracted to /etc/<member> and installed, in member order, as the DCM
// pushes them: edits from the bundle it last installed.
type keptRig struct {
	t      *testing.T
	a      *Agent
	q      *pusher
	names  []string
	script []string
}

func newKeptRig(t *testing.T, root string, files map[string][]byte, extra ...string) *keptRig {
	t.Helper()
	r := &keptRig{t: t, a: NewAgent("H", root, nil)}
	addr, err := r.a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.a.Close() })
	for name := range files {
		r.names = append(r.names, name)
	}
	slices.Sort(r.names)
	for _, name := range r.names {
		r.script = append(r.script, "extract "+name+" /etc/"+name, "install /etc/"+name)
	}
	r.script = append(r.script, extra...)
	r.q = &pusher{addr: addr.String(), target: bundleTarget, script: r.script}
	return r
}

// push pushes files' bundle and checks every member installed whole and
// no staging file left behind.
func (r *keptRig) push(files map[string][]byte) {
	r.t.Helper()
	data, err := BuildTar(files)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.q.push(data); err != nil {
		r.t.Fatal(err)
	}
	checkInstalled(r.t, r.a, files)
	r.noStaging()
}

// noStaging fails if a .moira_update file is anywhere under the root.
func (r *keptRig) noStaging() {
	r.t.Helper()
	filepath.WalkDir(r.a.Root, func(p string, _ fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(p, updateSuffix) {
			r.t.Errorf("staging file %s left behind", p)
		}
		return err
	})
}

// stat is every installed member's file info.
func (r *keptRig) stat() map[string]os.FileInfo {
	r.t.Helper()
	out := map[string]os.FileInfo{}
	for _, name := range r.names {
		fp, _ := r.a.HostPath("/etc/" + name)
		fi, err := os.Lstat(fp)
		if err != nil {
			r.t.Fatal(err)
		}
		out[name] = fi
	}
	return out
}

// rewritten is the members whose file is not the one before holds.
func (r *keptRig) rewritten(before map[string]os.FileInfo) []string {
	var out []string
	for name, fi := range r.stat() {
		if !os.SameFile(fi, before[name]) {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// kept is the agent's count of extracts that wrote nothing.
func (r *keptRig) kept() int64 { return r.a.reg.Counter("update.extracts.kept").Value() }

// changed is files with member name's bytes replaced by data.
func changed(files map[string][]byte, name string, data []byte) map[string][]byte {
	out := map[string][]byte{}
	for n, b := range files {
		out[n] = b
	}
	out[name] = data
	return out
}

// TestOneMemberChangeRewritesOnlyThatMember: a push that changes one
// member of a multi-member bundle extracts and installs that member
// alone, whether it keeps its length or not: every other destination
// keeps its inode, no staging file is left, and update.extracts.kept
// counts the members left in place. An unchanged re-push writes
// nothing; a whole push extracts everything.
func TestOneMemberChangeRewritesOnlyThatMember(t *testing.T) {
	files := memberFiles(21, 6, 60_000)
	r := newKeptRig(t, t.TempDir(), files)
	r.push(files)
	if r.kept() != 0 {
		t.Fatalf("first push kept %d extracts, want 0", r.kept())
	}
	for i, data := range [][]byte{
		randBytes(22, len(files["m02.db"])), // same length
		randBytes(23, 3000),                 // shorter: later members move
		randBytes(24, 15_000),               // longer
	} {
		before, kept := r.stat(), r.kept()
		files = changed(files, "m02.db", data)
		r.push(files)
		if r.q.last.Whole {
			t.Fatalf("change %d went whole", i)
		}
		if got := r.rewritten(before); !slices.Equal(got, []string{"m02.db"}) {
			t.Errorf("change %d rewrote %v, want [m02.db]", i, got)
		}
		if n := r.kept() - kept; n != 5 {
			t.Errorf("change %d: %d extracts kept, want 5", i, n)
		}
	}

	// An unchanged re-push writes nothing.
	before := r.stat()
	r.push(files)
	if got := r.rewritten(before); len(got) != 0 {
		t.Errorf("unchanged re-push rewrote %v", got)
	}

	// A whole push rewrites everything.
	before, kept := r.stat(), r.kept()
	r.q.known = false
	r.push(files)
	if !r.q.last.Whole || len(r.rewritten(before)) != 6 || r.kept() != kept {
		t.Errorf("whole push: whole=%v, rewrote %v, kept %d", r.q.last.Whole, r.rewritten(before), r.kept()-kept)
	}
}

// TestNewAgentExtractsEverything: the records of what is in place live
// in the agent's memory, so a new agent on the same root extracts every
// member of its first push, though the push's edits apply over the
// target the old agent left.
func TestNewAgentExtractsEverything(t *testing.T) {
	root := t.TempDir()
	files := memberFiles(31, 4, 20_000)
	r := newKeptRig(t, root, files)
	r.push(files)
	r.a.Close()

	r2 := newKeptRig(t, root, files)
	r2.q.held, r2.q.known = r.q.held, true
	before := r2.stat()
	files = changed(files, "m01.db", randBytes(32, 5000))
	r2.push(files)
	if r2.q.last.Whole {
		t.Fatal("push after the agent start went whole")
	}
	if got := r2.rewritten(before); len(got) != 4 || r2.kept() != 0 {
		t.Errorf("new agent rewrote %v and kept %d extracts, want all 4 and none", got, r2.kept())
	}
	// Its second push keeps what the first installed.
	files = changed(files, "m01.db", randBytes(33, 5000))
	r2.push(files)
	if r2.kept() != 3 {
		t.Errorf("new agent's second push kept %d extracts, want 3", r2.kept())
	}
}

// TestOutOfBandRewriteIsExtractedAgain: a destination changed outside
// the update protocol (rewritten in place at another size, replaced by
// another file of the same size, removed) is extracted again on the
// next push, even one that does not change its member.
func TestOutOfBandRewriteIsExtractedAgain(t *testing.T) {
	files := memberFiles(41, 4, 20_000)
	r := newKeptRig(t, t.TempDir(), files)
	r.push(files)
	path := func(name string) string {
		fp, _ := r.a.HostPath("/etc/" + name)
		return fp
	}
	if err := os.WriteFile(path("m00.db"), []byte("edited by hand\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := path("m01.db") + ".new"
	if err := os.WriteFile(other, bytes.Repeat([]byte("x"), len(files["m01.db"])), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(other, path("m01.db")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path("m02.db")); err != nil {
		t.Fatal(err)
	}
	kept := r.kept()
	r.push(files) // checks every member is back
	if n := r.kept() - kept; n != 1 {
		t.Errorf("%d extracts kept, want 1 (m03.db)", n)
	}
}

// TestRevertAfterKeptInstall: an install that found its member in place
// replaced nothing, so a revert after it changes nothing: the file is
// neither the backup an earlier push left nor another inode.
func TestRevertAfterKeptInstall(t *testing.T) {
	v1 := map[string][]byte{"f.db": []byte("v1\n"), "g.db": []byte("g\n")}
	v2 := changed(v1, "f.db", []byte("v2\n"))
	r := newKeptRig(t, t.TempDir(), v1)
	r.push(v1)
	r.push(v2) // /etc/f.db.moira_backup now holds v1
	before := r.stat()
	r.q.script = append(r.script[:len(r.script):len(r.script)], "revert /etc/f.db", "revert /etc/g.db")
	r.push(v2)
	if got := r.rewritten(before); len(got) != 0 {
		t.Errorf("revert after kept installs rewrote %v", got)
	}
}

// TestCrashBetweenKeptExtractAndInstall: a crash at every instruction of
// a push that changes one member, then a retry, converges byte for
// byte, and the push after it keeps every member.
func TestCrashBetweenKeptExtractAndInstall(t *testing.T) {
	files := memberFiles(51, 4, 20_000)
	for i := 0; i < 8; i++ {
		stage := fmt.Sprintf("instr-%d", i)
		r := newKeptRig(t, t.TempDir(), files)
		r.push(files)
		crashed := false
		r.a.SetCrashPoint(func(s string) bool {
			if s == stage && !crashed {
				crashed = true
				return true
			}
			return false
		})
		next := changed(files, "m02.db", randBytes(52, 7000))
		data, err := BuildTar(next)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.q.push(data); !IsSoftError(err) {
			t.Fatalf("%s: crashed push: %v, want a soft error", stage, err)
		}
		r.push(next)
		kept := r.kept()
		r.push(next)
		if n := r.kept() - kept; n != 4 {
			t.Errorf("%s: push after the retry kept %d extracts, want 4", stage, n)
		}
	}
}

// TestMailhubAliasesExtractedEveryPush: a destination no install put in
// place (the mailhub's aliases, which its own command renames into
// place from the staging file) is extracted on every push, its member
// changed or not.
func TestMailhubAliasesExtractedEveryPush(t *testing.T) {
	passwd := map[string][]byte{"passwd": []byte("u:x:1\n")}
	aliases := []byte("a: b\n")
	r := newKeptRig(t, t.TempDir(), passwd, "extract aliases /usr/lib/aliases", "exec stage_aliases")
	staged := 0
	r.a.RegisterCommand("stage_aliases", func(a *Agent, _ *Install, _ []string) error {
		staged++
		return a.RenameHostFile("/usr/lib/aliases"+updateSuffix, "/usr/lib/aliases")
	})
	data, err := BuildTar(map[string][]byte{"aliases": aliases, "passwd": passwd["passwd"]})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.q.push(data); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if got, _ := r.a.ReadHostFile("/usr/lib/aliases"); !bytes.Equal(got, aliases) {
			t.Fatalf("push %d: aliases = %q", i, got)
		}
		checkInstalled(t, r.a, passwd)
	}
	if staged != 3 || r.kept() != 2 {
		t.Errorf("aliases staged %d times, %d extracts kept; want 3 and 2 (passwd)", staged, r.kept())
	}
}

// TestKeptIndexReplacesOldHeaderWalk: a push whose verified base is the
// bundle the agent last assembled at the target reads the old side's
// members from the index the agent built of that bundle, with no second
// walk of its headers; a failed assemble drops the index, and the push
// after it walks the old headers again.
func TestKeptIndexReplacesOldHeaderWalk(t *testing.T) {
	files := memberFiles(61, 3, 9_000)
	var old, new []*tarIndex
	r := newKeptRig(t, t.TempDir(), files, "exec peek")
	r.a.RegisterCommand("peek", func(_ *Agent, in *Install, _ []string) error {
		if _, ok := in.File("/etc/m00.db"); !ok {
			return fmt.Errorf("no view of m00.db")
		}
		old, new = append(old, in.oldIndex), append(new, in.newIndex)
		return nil
	})
	r.push(files)
	files = changed(files, "m01.db", randBytes(62, 100))
	r.push(files)
	same := func(a, b *tarIndex) bool { return a == b }
	if !same(old[1], new[0]) {
		t.Error("the second push walked the old bundle's headers again")
	}

	// A failed assemble: the bundle's sum is not its bytes'.
	files = changed(files, "m01.db", randBytes(63, 100))
	data, err := BuildTar(files)
	if err != nil {
		t.Fatal(err)
	}
	bad := *editBundle(r.q.held, data)
	bad.Sum[0] ^= 1
	if err := r.q.run(&Push{Addr: r.q.addr, Target: bundleTarget, Bundle: &bad, Held: bad.Base, Script: r.script}); err == nil {
		t.Fatal("push of a bundle with a wrong sum succeeded")
	}
	r.push(files)
	if len(old) != 3 || same(old[2], new[1]) {
		t.Error("the push after a failed assemble used the dropped index")
	}
}

// TestMemberThatLeftTheBundleIsRemoved: once a push's script succeeds,
// the file of a member the bundle no longer holds goes from the host,
// with its backup, and update.files.removed counts it; every other
// member stays installed. An agent that restarted since the member's
// install does not know the file and leaves it.
func TestMemberThatLeftTheBundleIsRemoved(t *testing.T) {
	root := t.TempDir()
	files := memberFiles(31, 4, 8_000)
	r := newKeptRig(t, root, files)
	r.push(files)
	files = changed(files, "m02.db", randBytes(32, 500)) // m02.db gets a backup
	r.push(files)

	without := func(files map[string][]byte, name string) map[string][]byte {
		out := changed(files, name, nil)
		delete(out, name)
		return out
	}
	gone := without(files, "m02.db")
	r.q.script = extractAll(gone)
	r.push(gone)
	fp, _ := r.a.HostPath("/etc/m02.db")
	for _, p := range []string{fp, fp + backupSuffix} {
		if _, err := os.Lstat(p); !os.IsNotExist(err) {
			t.Errorf("%s after its member left the bundle: %v", p, err)
		}
	}
	if n := r.a.reg.Counter("update.files.removed").Value(); n != 1 {
		t.Errorf("update.files.removed = %d, want 1", n)
	}

	// A restarted agent holds no placements: the file of a member that
	// leaves the bundle in its first push stays.
	r2 := newKeptRig(t, root, gone)
	r2.q.script = extractAll(without(gone, "m03.db"))
	r2.push(without(gone, "m03.db"))
	if _, err := r2.a.ReadHostFile("/etc/m03.db"); err != nil {
		t.Errorf("restarted agent removed a file it never installed: %v", err)
	}
	if n := r2.a.reg.Counter("update.files.removed").Value(); n != 0 {
		t.Errorf("restarted agent: update.files.removed = %d, want 0", n)
	}
}
