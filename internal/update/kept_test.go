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

// keptRig is an agent whose pushes go to one bundle target, with an exec
// command that records the view's IDs.
type keptRig struct {
	t      *testing.T
	a      *Agent
	addr   string
	oldID  string // the last exec's view of /etc/m00.db
	sent   int    // the last push's chunk bytes on the wire
	script []string
}

const keptTarget = "/tmp/bundle"

func newKeptRig(t *testing.T, root string, files map[string][]byte) *keptRig {
	t.Helper()
	r := &keptRig{t: t, a: NewAgent("H", root, nil), script: append(extractAll(files), "exec look")}
	addr, err := r.a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.a.Close() })
	r.addr = addr.String()
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

// push sends files' bundle and checks that every member installed whole.
func (r *keptRig) push(files map[string][]byte) error {
	data, err := BuildTar(files)
	if err != nil {
		r.t.Fatal(err)
	}
	p := &Push{Addr: r.addr, Target: keptTarget, Bundle: NewBundle(data), Script: r.script, Timeout: 5 * time.Second}
	if err := p.Run(); err != nil {
		return err
	}
	r.sent = p.SentBytes
	checkInstalled(r.t, r.a, files)
	return nil
}

// checkKept fails if the agent keeps a chunk list for the target that
// names bytes the target does not hold.
func (r *keptRig) checkKept() {
	r.t.Helper()
	fp, _ := r.a.HostPath(keptTarget)
	r.a.mu.Lock()
	kept, ok := r.a.kept[fp]
	r.a.mu.Unlock()
	if !ok {
		return
	}
	data, err := os.ReadFile(fp)
	if err != nil {
		r.t.Fatalf("kept %d chunks for a target that cannot be read: %v", len(kept), err)
	}
	end := 0
	for i, c := range kept {
		if c.Off != end || c.Off+c.Len > len(data) || sha256.Sum256(data[c.Off:c.Off+c.Len]) != c.Sum {
			r.t.Fatalf("kept chunk %d %d+%d does not match the %d-byte target", i, c.Off, c.Len, len(data))
		}
		end += c.Len
	}
	if end != len(data) {
		r.t.Fatalf("kept list covers %d of the target's %d bytes", end, len(data))
	}
}

// idOf is the install ID of data as a target would hold it.
func idOf(data []byte) string { return manifestID(SplitChunks(data)) }

// TestKeptManifestHint: the chunk list an agent keeps for a target is a
// hint it checks before use. Whatever happened to the target since (a
// same-size rewrite, a truncation, a deletion, or an agent that never
// saw it), the next push installs byte-identical content and the view's
// OldID names the bytes the target actually held. At every crash point
// of a push the kept list still describes the target, and the retry
// installs correctly; a target rewritten between the manifest and the
// assemble fails that push and not the next.
func TestKeptManifestHint(t *testing.T) {
	v1 := memberFiles(21, 4, 200_000)
	v2 := memberFiles(21, 4, 200_000)
	v2["m01.db"] = append(append([]byte(nil), v2["m01.db"][:1000]...), "an edit\n"...)
	bundle1, err := BuildTar(v1)
	if err != nil {
		t.Fatal(err)
	}
	fp := func(r *keptRig) string { p, _ := r.a.HostPath(keptTarget); return p }
	// rewrite flips 5,000 bytes of the target from at, keeping its size.
	rewrite := func(r *keptRig, at int) []byte {
		b := append([]byte(nil), bundle1...)
		for i := at; i < at+5000; i++ {
			b[i] ^= 0x5a
		}
		if err := os.WriteFile(fp(r), b, 0o644); err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		name      string
		dropsHint bool                    // the kept list fails its check
		tamper    func(r *keptRig) []byte // what the target holds after it
	}{
		{"untouched", false, func(r *keptRig) []byte { return bundle1 }},
		{"rewritten same size where the push changes", true, func(r *keptRig) []byte {
			return rewrite(r, len(bundle1)/3)
		}},
		{"rewritten same size where the push reuses", true, func(r *keptRig) []byte {
			return rewrite(r, len(bundle1)*7/8)
		}},
		{"truncated", true, func(r *keptRig) []byte {
			if err := os.Truncate(fp(r), int64(len(bundle1)/2)); err != nil {
				t.Fatal(err)
			}
			return bundle1[:len(bundle1)/2]
		}},
		{"deleted", false, func(r *keptRig) []byte {
			if err := os.Remove(fp(r)); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"new agent", false, func(r *keptRig) []byte {
			r.a.mu.Lock()
			r.a.kept = map[string][]Chunk{}
			r.a.mu.Unlock()
			return bundle1
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newKeptRig(t, t.TempDir(), v1)
			if err := r.push(v1); err != nil {
				t.Fatal(err)
			}
			r.checkKept()
			held := c.tamper(r)
			dropped := r.a.reg.Counter("update.chunks.hints.dropped").Value()
			if err := r.push(v2); err != nil {
				t.Fatal(err)
			}
			r.checkKept()
			wantID := ""
			if held != nil {
				wantID = idOf(held)
			}
			if r.oldID != wantID {
				t.Errorf("view OldID %q, want the ID of the bytes the target held (%q)", r.oldID, wantID)
			}
			if got := r.a.reg.Counter("update.chunks.hints.dropped").Value() - dropped; got != map[bool]int64{false: 0, true: 1}[c.dropsHint] {
				t.Errorf("hints dropped: %d", got)
			}
			if held != nil && r.sent > len(bundle1)-len(held)/2 {
				t.Errorf("sent %d of %d bytes over a target holding %d of them", r.sent, len(bundle1), len(held))
			}
		})
	}

	// Every crash point: the kept list describes the target, and the
	// retry installs.
	stages := []string{"before-xfer", "after-xfer", "before-execute"}
	for i := range newKeptRig(t, t.TempDir(), v1).script {
		stages = append(stages, fmt.Sprintf("instr-%d", i))
	}
	for _, stage := range stages {
		r := newKeptRig(t, t.TempDir(), v1)
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
		r.checkKept()
		if err := r.push(v2); err != nil {
			t.Fatalf("%s: retry: %v", stage, err)
		}
		r.checkKept()
	}

	// The target changes between the manifest and the assemble: the
	// reused runs fail their check in place, nothing is staged, and the
	// agent forgets the list, so the next push re-chunks and installs.
	r := newKeptRig(t, t.TempDir(), v1)
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
	if err := r.push(v2); err != mrerr.UpdChecksum {
		t.Errorf("push over a target rewritten mid-transfer: %v, want %v", err, mrerr.UpdChecksum)
	}
	r.checkKept()
	if err := r.push(v2); err != nil {
		t.Fatal(err)
	}
	r.checkKept()
}

// TestFailedAssembleLeavesTargetWhole: the assemble streams into a
// staging file beside the target and renames it over the target only
// once every chunk and the whole-file sum checked out. A reused chunk
// rewritten on disk after the manifest (same size, so only its sum can
// tell) fails the push with UPD_CHECKSUM; the target still holds exactly
// the bytes it held, no staging file is left, the kept list is gone, and
// the retry re-chunks the target and installs.
func TestFailedAssembleLeavesTargetWhole(t *testing.T) {
	v1 := memberFiles(31, 4, 200_000)
	v2 := maps.Clone(v1)
	v2["m00.db"] = append([]byte("an edit up front\n"), v1["m00.db"]...)
	r := newKeptRig(t, t.TempDir(), v1)
	if err := r.push(v1); err != nil {
		t.Fatal(err)
	}
	fp, _ := r.a.HostPath(keptTarget)
	var held []byte
	r.a.SetCrashPoint(func(stage string) bool {
		if stage != "before-xfer" || held != nil {
			return false
		}
		// m03.db, the last member, is the same in both bundles: its
		// chunks are reused, read from the target at the assemble.
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
	if err := r.push(v2); err != mrerr.UpdChecksum {
		t.Fatalf("push over a reused chunk rewritten on disk: %v, want %v", err, mrerr.UpdChecksum)
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
	r.a.mu.Lock()
	_, kept := r.a.kept[fp]
	r.a.mu.Unlock()
	if kept {
		t.Error("the kept list survived a failed assemble")
	}

	r.a.SetCrashPoint(nil)
	dropped := r.a.reg.Counter("update.chunks.hints.dropped").Value()
	if err := r.push(v2); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if r.a.reg.Counter("update.chunks.hints.dropped").Value() != dropped {
		t.Error("the retry consulted a kept list instead of re-chunking the target")
	}
	if r.oldID != idOf(held) {
		t.Errorf("retry's view OldID %q, want the ID of the bytes the target held (%q)", r.oldID, idOf(held))
	}
	want, err := BuildTar(v2)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(fp); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("target after the retry: %d bytes (%v), want the %d-byte bundle", len(got), err, len(want))
	}
	r.checkKept()
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
