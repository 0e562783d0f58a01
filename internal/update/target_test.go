package update

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"testing"
	"time"

	"moira/internal/mrerr"
)

// diffSplices are edits that make new from old, as the DCM makes them
// for a bundle. Two tar archives of the same members are diffed region
// by region: a header's size, mtime and checksum fields whole when they
// differ, then each member's data, padding and the trailer; other files
// whole. Two regions of one length differ in runs (runs fewer than 16
// bytes apart merged), others in what lies between their common prefix
// and suffix.
func diffSplices(old, new []byte) []Splice {
	ro, rn := tarRegions(old), tarRegions(new)
	if len(ro) == 0 || len(ro) != len(rn) {
		return diffRegion(old, new)
	}
	var out []Splice
	for i := range ro {
		o, n := old[ro[i].Lo:ro[i].Hi], new[rn[i].Lo:rn[i].Hi]
		es := diffRegion(o, n)
		if i%4 == 1 && len(es) > 0 { // a header's fields
			es = []Splice{{Len: len(o), Data: n}}
		}
		for _, e := range es {
			e.Off += ro[i].Lo
			out = append(out, e)
		}
	}
	return out
}

// tarRegions cuts a tar archive into four regions a member (its header
// up to the size field; the size, mtime and checksum fields; the rest of
// the header with the data; the padding), then the trailer; nil when it
// is not one.
func tarRegions(b []byte) []Range {
	var out []Range
	end := 0
	if walkTar(bytes.NewReader(b), 0, len(b), func(m tarMember) bool {
		if r := m.data; m.reg && r.Hi <= len(b) {
			pad := (r.Hi + 511) &^ 511
			out = append(out, Range{end, r.Lo - 388}, Range{r.Lo - 388, r.Lo - 356}, Range{r.Lo - 356, r.Hi}, Range{r.Hi, pad})
			end = pad
		}
		return true
	}) != nil || len(out) == 0 {
		return nil
	}
	return append(out, Range{end, len(b)})
}

// diffRegion diffs two byte strings as diffSplices does one region.
func diffRegion(old, new []byte) []Splice {
	if len(old) != len(new) {
		if e, ok := diffBundles(old, new); ok {
			return []Splice{e}
		}
		return nil
	}
	var out []Splice
	for i := 0; i < len(old); i++ {
		if old[i] == new[i] {
			continue
		}
		if k := len(out) - 1; k >= 0 && i-(out[k].Off+out[k].Len) < 16 {
			out[k].Len = i + 1 - out[k].Off
			out[k].Data = new[out[k].Off : i+1]
			continue
		}
		out = append(out, Splice{Off: i, Len: 1, Data: new[i : i+1]})
	}
	return out
}

// editBundle is the bundle of data made from old by diffSplices.
func editBundle(old, data []byte) *Bundle {
	return &Bundle{Data: data, Sum: sha256.Sum256(data), Base: sha256.Sum256(old), Edits: diffSplices(old, data)}
}

// idOf is the install ID of data as a target would hold it.
func idOf(data []byte) string { return Sum(sha256.Sum256(data)).String() }

// pusher pushes successive bundles to one target as the DCM does: the
// edits from the last bundle it installed there, the whole bundle when
// it knows of none.
type pusher struct {
	addr, target string
	script       []string
	held         []byte // the bundle last installed, when known
	known        bool
	last         *Push
}

// try makes one push of data.
func (q *pusher) try(data []byte) error {
	b, held := NewBundle(data), Sum{}
	if q.known {
		b = editBundle(q.held, data)
		held = b.Base
	}
	return q.run(&Push{Addr: q.addr, Target: q.target, Bundle: b, Held: held, Script: q.script, Timeout: 5 * time.Second})
}

// run runs p, remembering its bundle when the agent installed it.
func (q *pusher) run(p *Push) error {
	err := p.Run()
	if p.Assembled {
		q.held, q.known = p.Bundle.Data, true
	}
	q.last = p
	return err
}

// push pushes data, whole after a base mismatch.
func (q *pusher) push(data []byte) error {
	err := q.try(data)
	if err == mrerr.UpdBaseMismatch {
		q.known = false
		err = q.try(data)
	}
	return err
}

// targetRig is an agent whose pushes go to one bundle target, with an
// exec command that records the view's IDs.
type targetRig struct {
	t      *testing.T
	a      *Agent
	addr   string
	oldID  string // the last exec's view of /etc/m00.db
	q      *pusher
	script []string
}

const bundleTarget = "/tmp/bundle"

func newTargetRig(t *testing.T, root string, files map[string][]byte) *targetRig {
	t.Helper()
	r := &targetRig{t: t, a: NewAgent("H", root, nil), script: append(extractAll(files), "exec look")}
	addr, err := r.a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.a.Close() })
	r.addr = addr.String()
	r.q = &pusher{addr: r.addr, target: bundleTarget, script: r.script}
	r.a.RegisterCommand("look", func(_ *Agent, in *Install, _ []string) error {
		f, ok := in.File("/etc/m00.db")
		if !ok {
			return fmt.Errorf("no view of m00.db")
		}
		r.oldID = f.OldID
		return nil
	})
	return r
}

// bundle is files' bundle.
func (r *targetRig) bundle(files map[string][]byte) []byte {
	data, err := BuildTar(files)
	if err != nil {
		r.t.Fatal(err)
	}
	return data
}

// push sends files' bundle as the DCM does (edits, or whole after a base
// mismatch) and checks that every member installed whole.
func (r *targetRig) push(files map[string][]byte) error {
	if err := r.q.push(r.bundle(files)); err != nil {
		return err
	}
	checkInstalled(r.t, r.a, files)
	return nil
}

// try makes one push of files' bundle, with no retry.
func (r *targetRig) try(files map[string][]byte) error { return r.q.try(r.bundle(files)) }

// mismatches is the agent's count of base mismatches.
func (r *targetRig) mismatches() int64 { return r.a.reg.Counter("update.base.mismatch").Value() }

// TestPushOverChangedTarget: a push's edits apply only over the bundle
// they were made from. Whatever happened to the target since (a
// same-size rewrite, a truncation, a deletion, or an agent restarted
// over it), the push installs byte-identical content: edits over a
// target that is their base, the whole bundle after a base mismatch
// otherwise, and the view's OldID is the ID of the bytes the target held
// or, for a whole push, "". At every crash point the retry installs, and
// a target rewritten between the begin and the assemble fails that
// attempt with a base mismatch and not the next.
func TestPushOverChangedTarget(t *testing.T) {
	v1 := memberFiles(21, 4, 200_000)
	v2 := memberFiles(21, 4, 200_000)
	v2["m01.db"] = append(append([]byte(nil), v2["m01.db"][:1000]...), "an edit\n"...)
	bundle1, err := BuildTar(v1)
	if err != nil {
		t.Fatal(err)
	}
	fp := func(r *targetRig) string { p, _ := r.a.HostPath(bundleTarget); return p }
	// rewrite flips 5,000 bytes of the target from at, keeping its size.
	rewrite := func(r *targetRig, at int) {
		b := append([]byte(nil), bundle1...)
		for i := at; i < at+5000; i++ {
			b[i] ^= 0x5a
		}
		if err := os.WriteFile(fp(r), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		edits  bool // the edits apply: no base mismatch
		tamper func(r *targetRig)
	}{
		{"untouched", true, func(r *targetRig) {}},
		{"rewritten same size where the push changes", false, func(r *targetRig) { rewrite(r, len(bundle1)/3) }},
		{"rewritten same size where the push reuses", false, func(r *targetRig) { rewrite(r, len(bundle1)*7/8) }},
		{"truncated", false, func(r *targetRig) {
			if err := os.Truncate(fp(r), int64(len(bundle1)/2)); err != nil {
				t.Fatal(err)
			}
		}},
		{"deleted", false, func(r *targetRig) {
			if err := os.Remove(fp(r)); err != nil {
				t.Fatal(err)
			}
		}},
		{"new agent", true, func(r *targetRig) {
			r.a.Close()
			r.a = NewAgent("H", r.a.Root, nil)
			addr, err := r.a.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			r.q.addr = addr.String()
			r.a.RegisterCommand("look", func(_ *Agent, in *Install, _ []string) error {
				f, _ := in.File("/etc/m00.db")
				r.oldID = f.OldID
				return nil
			})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newTargetRig(t, t.TempDir(), v1)
			if err := r.push(v1); err != nil {
				t.Fatal(err)
			}
			c.tamper(r)
			mismatched := r.mismatches()
			if err := r.push(v2); err != nil {
				t.Fatal(err)
			}
			wantID, wantMismatch := "", int64(1)
			if c.edits {
				wantID, wantMismatch = idOf(bundle1), 0
			}
			if r.oldID != wantID {
				t.Errorf("view OldID %q, want %q", r.oldID, wantID)
			}
			if got := r.mismatches() - mismatched; got != wantMismatch {
				t.Errorf("base mismatches: %d, want %d", got, wantMismatch)
			}
			if p := r.q.last; p.Whole == c.edits || c.edits && p.SentBytes > 2000 {
				t.Errorf("push went whole=%v with %d of %d bytes", p.Whole, p.SentBytes, len(p.Bundle.Data))
			}
		})
	}

	// Every crash point: the retry installs.
	stages := []string{"before-xfer", "after-xfer", "before-execute"}
	for i := range newTargetRig(t, t.TempDir(), v1).script {
		stages = append(stages, fmt.Sprintf("instr-%d", i))
	}
	for _, stage := range stages {
		r := newTargetRig(t, t.TempDir(), v1)
		if err := r.push(v1); err != nil {
			t.Fatal(err)
		}
		crashed := false
		r.a.SetCrashPoint(func(s string) bool {
			if s == stage && !crashed {
				crashed = true
				return true
			}
			return false
		})
		if err := r.push(v2); !IsSoftError(err) {
			t.Errorf("%s: crashed push err = %v, want a soft error", stage, err)
		}
		if err := r.push(v2); err != nil {
			t.Fatalf("%s: retry: %v", stage, err)
		}
	}

	// The target changes between the begin and the assemble: the old
	// bytes fail their check against the base, nothing is installed, and
	// the next push, whole, installs.
	r := newTargetRig(t, t.TempDir(), v1)
	if err := r.push(v1); err != nil {
		t.Fatal(err)
	}
	tampered := false
	r.a.SetCrashPoint(func(s string) bool {
		if s == "before-xfer" && !tampered {
			tampered = true
			rewrite(r, len(bundle1)*7/8)
		}
		return false
	})
	if err := r.try(v2); err != mrerr.UpdBaseMismatch {
		t.Errorf("push over a target rewritten mid-transfer: %v, want %v", err, mrerr.UpdBaseMismatch)
	}
	if err := r.push(v2); err != nil {
		t.Fatal(err)
	}
}

// TestFailedAssembleLeavesTargetWhole: the edits stream into a staging
// file beside the target, which is renamed over the target only once the
// old bytes checked out against the base and the staged ones against the
// new sum. An old byte rewritten on disk after the begin (same size, so
// only its sum can tell) fails the push with UPD_BASE_MISMATCH; the
// target still holds exactly the bytes it held, no staging file is left,
// and the retry sends the bundle whole and installs.
func TestFailedAssembleLeavesTargetWhole(t *testing.T) {
	v1 := memberFiles(31, 4, 200_000)
	v2 := maps.Clone(v1)
	v2["m00.db"] = append([]byte("an edit up front\n"), v1["m00.db"]...)
	r := newTargetRig(t, t.TempDir(), v1)
	if err := r.push(v1); err != nil {
		t.Fatal(err)
	}
	fp, _ := r.a.HostPath(bundleTarget)
	var held []byte
	r.a.SetCrashPoint(func(stage string) bool {
		if stage != "before-xfer" || held != nil {
			return false
		}
		// m03.db, the last member, is the same in both bundles: the
		// assemble copies it from the target.
		b, err := os.ReadFile(fp)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-20_000] ^= 0x5a
		if err := os.WriteFile(fp, b, 0o644); err != nil {
			t.Fatal(err)
		}
		held = b
		return false
	})
	if err := r.try(v2); err != mrerr.UpdBaseMismatch {
		t.Fatalf("push over an old byte rewritten on disk: %v, want %v", err, mrerr.UpdBaseMismatch)
	}
	if held == nil {
		t.Fatal("the crash point never fired")
	}
	if got, err := os.ReadFile(fp); err != nil || !bytes.Equal(got, held) {
		t.Fatalf("target holds %d bytes (%v) after the failed assemble, not the %d it held", len(got), err, len(held))
	}
	for _, name := range []string{fp + xferSuffix, fp + updateSuffix} {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Errorf("%s left behind: %v", name, err)
		}
	}

	r.a.SetCrashPoint(nil)
	if err := r.push(v2); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if !r.q.last.Whole || r.oldID != "" {
		t.Errorf("retry went whole=%v with view OldID %q, want a whole push", r.q.last.Whole, r.oldID)
	}
	want, err := BuildTar(v2)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(fp); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("target after the retry: %d bytes (%v), want the %d-byte bundle", len(got), err, len(want))
	}
}

// TestRetryAfterFailedAssembleShipsEdits: an assemble that fails because
// the staged bytes do not give the new sum (an edit corrupted on the
// way) leaves the target as it was, so the retry's edits still apply
// over it: the retry ships the edits, not the whole bundle.
func TestRetryAfterFailedAssembleShipsEdits(t *testing.T) {
	v1 := memberFiles(33, 4, 200_000)
	v2 := maps.Clone(v1)
	v2["m02.db"] = append([]byte("an edit\n"), v1["m02.db"]...)
	r := newTargetRig(t, t.TempDir(), v1)
	if err := r.push(v1); err != nil {
		t.Fatal(err)
	}
	bundle1, bundle2 := r.bundle(v1), r.bundle(v2)
	fp, _ := r.a.HostPath(bundleTarget)

	b := editBundle(bundle1, bundle2)
	bad := *b
	bad.Edits = []Splice{b.Edits[0]}
	bad.Edits[0].Data = append([]byte(nil), b.Edits[0].Data...)
	bad.Edits[0].Data[0] ^= 1
	p := &Push{Addr: r.addr, Target: bundleTarget, Bundle: &bad, Held: b.Base, Script: r.script, Timeout: 5 * time.Second}
	if err := r.q.run(p); err != mrerr.UpdChecksum {
		t.Fatalf("push of a corrupted edit: %v, want %v", err, mrerr.UpdChecksum)
	}
	if got, err := os.ReadFile(fp); err != nil || !bytes.Equal(got, bundle1) {
		t.Fatalf("target holds %d bytes (%v) after the failed assemble, want the %d it held", len(got), err, len(bundle1))
	}
	if err := r.try(v2); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if p := r.q.last; p.Whole || p.SentBytes > 100 || r.oldID != idOf(bundle1) {
		t.Errorf("retry went whole=%v with %d bytes and view OldID %q: want the edits over the bundle held", p.Whole, p.SentBytes, r.oldID)
	}
	checkInstalled(t, r.a, v2)
}

// equalViews fails unless the view an agent builds over its staged file
// (got) matches the one built from both bundles whole (want): the same
// IDs and edits, and the same old and new bytes, edit by edit and whole.
func equalViews(t testing.TB, got, want *File) {
	t.Helper()
	if got.OldID != want.OldID || got.NewID != want.NewID {
		t.Fatalf("ids %q/%q, want %q/%q", got.OldID, got.NewID, want.OldID, want.NewID)
	}
	if fmt.Sprint(got.Edits) != fmt.Sprint(want.Edits) {
		t.Fatalf("edits %v, want %v", got.Edits, want.Edits)
	}
	for _, e := range want.Edits {
		if got.Old.String(e.Old) != want.Old.String(e.Old) || got.New.String(e.New) != want.New.String(e.New) {
			t.Fatalf("bytes of edit %+v differ", e)
		}
	}
	if !bytes.Equal(all(got.Old), all(want.Old)) {
		t.Fatal("old members differ")
	}
	if !bytes.Equal(all(got.New), all(want.New)) {
		t.Fatal("new members differ")
	}
}
