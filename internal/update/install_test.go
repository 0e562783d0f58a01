package update

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// textFile is seeded line-structured data, the shape of a generated
// extract: n lines of varying length.
func textFile(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "user%06d HS UNSPECA \"%x\"\n", i, r.Int63n(1<<(4*(1+r.Intn(12)))))
	}
	return b.Bytes()
}

// viewOf stages old and new as the "f" member of two bundles (beside a
// member that does not change) and returns the view of f built from both
// bundles whole, checking that the view an agent builds over its staged
// file is the same.
func viewOf(t testing.TB, old, new []byte) *File {
	t.Helper()
	other := textFile(99, 50)
	var oldBundle []byte
	if old != nil {
		var err error
		if oldBundle, err = BuildTar(map[string][]byte{"f": old, "g": other}); err != nil {
			t.Fatal(err)
		}
	}
	newBundle, err := BuildTar(map[string][]byte{"f": new, "g": other})
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]string{"/etc/f": "f", "/etc/g": "g"}
	f, ok := NewInstall(oldBundle, newBundle, members).File("/etc//f")
	if !ok {
		t.Fatal("no view of an extracted member")
	}
	// An agent's view — New the staged file, Old the file the target
	// held, each read through the handle the transfer opened — is the
	// same view.
	staged, err := StageInstall(filepath.Join(t.TempDir(), "bundle"), oldBundle, newBundle, members)
	if err != nil {
		t.Fatal(err)
	}
	defer staged.Close()
	sf, ok := staged.File("/etc/f")
	if !ok {
		t.Fatal("no staged view of an extracted member")
	}
	equalViews(t, sf, f)
	return f
}

// all is every byte of t.
func all(t Text) []byte { return []byte(t.String(Range{0, t.Len()})) }

// boundary reports whether offset i of b is a line boundary.
func boundary(b []byte, i int) bool { return i == 0 || i == len(b) || b[i-1] == '\n' }

// checkEdits fails unless f's edits are ordered, sit on line boundaries,
// and splice Old into New byte for byte.
func checkEdits(t testing.TB, f *File) {
	t.Helper()
	old, new := all(f.Old), all(f.New)
	var out []byte
	po, pn := 0, 0
	for i, e := range f.Edits {
		if e.Old.Lo < po || e.Old.Hi < e.Old.Lo || e.New.Lo < pn || e.New.Hi < e.New.Lo ||
			e.Old.Hi > len(old) || e.New.Hi > len(new) {
			t.Fatalf("edit %d %+v out of order or bounds (old %d, new %d bytes)", i, e, len(old), len(new))
		}
		for _, c := range []struct {
			b []byte
			i int
		}{{old, e.Old.Lo}, {old, e.Old.Hi}, {new, e.New.Lo}, {new, e.New.Hi}} {
			if !boundary(c.b, c.i) {
				t.Fatalf("edit %d %+v: offset %d is not a line boundary", i, e, c.i)
			}
		}
		if !bytes.Equal(old[po:e.Old.Lo], new[pn:e.New.Lo]) {
			t.Fatalf("edit %d: bytes between edits differ", i)
		}
		out = append(out, old[po:e.Old.Lo]...)
		out = append(out, new[e.New.Lo:e.New.Hi]...)
		po, pn = e.Old.Hi, e.New.Hi
	}
	out = append(out, old[po:]...)
	if !bytes.Equal(out, new) {
		t.Fatalf("splicing %d edits into %d old bytes gives %d bytes, not the %d new ones", len(f.Edits), len(old), len(out), len(new))
	}
}

// TestInstallEditsAreTheChange: the edits of a push name the lines that
// changed, not the bytes around them the push carried, and the IDs tell
// a service which side it holds.
func TestInstallEditsAreTheChange(t *testing.T) {
	base := textFile(1, 2000)
	lines := bytes.SplitAfter(base, []byte("\n"))
	edit := func(fn func(l [][]byte) [][]byte) []byte {
		c := append([][]byte(nil), lines...)
		return bytes.Join(fn(c), nil)
	}
	for _, c := range []struct {
		name     string
		new      []byte
		old, add int // lines the single edit removes and adds
	}{
		{"replace", edit(func(l [][]byte) [][]byte { l[700] = []byte("changed HS UNSPECA \"x\"\n"); return l }), 1, 1},
		{"insert", edit(func(l [][]byte) [][]byte {
			return append(l[:1200], append([][]byte{[]byte("new HS UNSPECA \"y\"\n")}, l[1200:]...)...)
		}), 0, 1},
		{"delete", edit(func(l [][]byte) [][]byte { return append(l[:300], l[302:]...) }), 2, 0},
	} {
		f := viewOf(t, base, c.new)
		checkEdits(t, f)
		if len(f.Edits) != 1 {
			t.Fatalf("%s: %d edits, want 1: %+v", c.name, len(f.Edits), f.Edits)
		}
		e := f.Edits[0]
		if n := strings.Count(f.Old.String(e.Old), "\n"); n != c.old {
			t.Errorf("%s: edit removes %d lines, want %d", c.name, n, c.old)
		}
		if n := strings.Count(f.New.String(e.New), "\n"); n != c.add {
			t.Errorf("%s: edit adds %d lines, want %d", c.name, n, c.add)
		}
		if f.OldID == "" || f.OldID == f.NewID {
			t.Errorf("%s: ids old %q new %q", c.name, f.OldID, f.NewID)
		}
	}

	// A re-push: no edits, and the IDs agree.
	f := viewOf(t, base, base)
	if len(f.Edits) != 0 || f.OldID != f.NewID {
		t.Errorf("re-push: %d edits, ids %q/%q", len(f.Edits), f.OldID, f.NewID)
	}
	// A first push: no old side, one edit adding everything.
	f = viewOf(t, nil, base)
	checkEdits(t, f)
	if f.OldID != "" || f.Old.Len() != 0 || len(f.Edits) != 1 {
		t.Errorf("first push: old id %q, old %d bytes, %d edits", f.OldID, f.Old.Len(), len(f.Edits))
	}
	// Nothing extracted there, or no view at all.
	if _, ok := NewInstall(nil, base, nil).File("/etc/f"); ok {
		t.Error("view of a member nobody extracted")
	}
	if _, ok := (*Install)(nil).File("/etc/f"); ok {
		t.Error("nil view has a file")
	}
}

// TestExecGetsInstallView: a pushed exec command sees the session's
// extracts, from memory, with the IDs of what the target held before;
// ExecCommand hands it a nil view.
func TestExecGetsInstallView(t *testing.T) {
	a, push := rig(t)
	var got *File
	a.RegisterCommand("look", func(_ *Agent, in *Install, _ []string) error {
		f, ok := in.File("/etc/f")
		if ok {
			got = &File{New: TextOf(all(f.New)), Old: TextOf(all(f.Old)),
				NewID: f.NewID, OldID: f.OldID, Edits: f.Edits}
		}
		return nil
	})
	script := []string{"extract f /etc/f", "install /etc/f", "exec look"}
	v1, v2 := textFile(3, 500), textFile(4, 500)
	if err := push(map[string][]byte{"f": v1}, script); err != nil {
		t.Fatal(err)
	}
	if got == nil || !bytes.Equal(all(got.New), v1) || got.OldID != "" {
		t.Fatalf("first push view: %+v", got)
	}
	first := got.NewID
	if err := push(map[string][]byte{"f": v2}, script); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all(got.New), v2) || !bytes.Equal(all(got.Old), v1) || got.OldID != first || got.NewID == first {
		t.Errorf("second push view: old id %q (want %q), new id %q", got.OldID, first, got.NewID)
	}
	checkEdits(t, got)

	a.RegisterCommand("nil", func(_ *Agent, in *Install, _ []string) error {
		if in != nil {
			return fmt.Errorf("local exec got a view")
		}
		return nil
	})
	if err := a.ExecCommand("nil", nil); err != nil {
		t.Error(err)
	}
}

// FuzzInstallEdits: for any old and new bytes, splicing the view's edits
// into Old reproduces New byte for byte, every range sits on line
// boundaries, and the view an agent builds over its staged file (the
// bundles' edit applied to the target's bytes, New and Old read through
// the transfer's handles) has the same IDs, edits, old and new bytes as
// the one built from both bundles whole. The inputs are spliced into a
// shared seeded text so the two bundles share most of their bytes and
// the edit is a small part of a large member, not only the whole of it.
func FuzzInstallEdits(f *testing.F) {
	f.Add([]byte("a\nb\n"), []byte("a\nc\n"), int64(0), uint16(0), uint16(0))
	f.Add([]byte("x\n"), []byte{}, int64(1), uint16(300), uint16(300))
	f.Add([]byte("no newline"), []byte("\n\n"), int64(2), uint16(9000), uint16(100))
	f.Add([]byte{}, []byte("tail without newline"), int64(3), uint16(65535), uint16(65535))
	f.Fuzz(func(t *testing.T, oldPart, newPart []byte, seed int64, oldAt, newAt uint16) {
		var base []byte
		if seed != 0 {
			base = textFile(seed, 1500)
		}
		splice := func(part []byte, at uint16) []byte {
			i := int(at) * len(base) / 65535
			return append(append(append([]byte(nil), base[:i]...), part...), base[i:]...)
		}
		checkEdits(t, viewOf(t, splice(oldPart, oldAt), splice(newPart, newAt)))
	})
}

// TestInstallViewDiesWithSession: nothing of a push's view outlives it:
// the next push's exec sees only its own extracts, and both files the
// view read — the staged bundle and the inode the target held before —
// are closed with the session.
func TestInstallViewDiesWithSession(t *testing.T) {
	a, push := rig(t)
	var saw []bool
	var views []*Install
	a.RegisterCommand("look", func(_ *Agent, in *Install, _ []string) error {
		_, ok := in.File("/etc/f")
		saw = append(saw, ok)
		views = append(views, in)
		return nil
	})
	for _, c := range []struct {
		body   string
		script []string
	}{
		{"v\n", []string{"extract f /etc/f", "exec look"}},
		{"w\n", []string{"extract f /etc/f", "exec look"}},
		{"w\n", []string{"exec look"}},
	} {
		if err := push(map[string][]byte{"f": []byte(c.body)}, c.script); err != nil {
			t.Fatal(err)
		}
	}
	if len(saw) != 3 || !saw[0] || !saw[1] || saw[2] {
		t.Errorf("views = %v, want [true true false]", saw)
	}
	// The third session took the host lock after the second ended.
	in := views[1]
	if in.old.src == nil {
		t.Fatal("the second push's view has no old side")
	}
	for name, f := range map[string]*os.File{"staged bundle": in.new.src.f, "old bundle": in.old.src.f} {
		if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("%s still open after its session: %v", name, err)
		}
	}
}
