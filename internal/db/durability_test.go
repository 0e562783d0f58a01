package db

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/stats"
)

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{
		"commit": SyncEveryCommit, "every-commit": SyncEveryCommit, "always": SyncEveryCommit,
		"interval": SyncInterval, "group": SyncInterval,
		"none": SyncNone, "never": SyncNone, " Commit ": SyncEveryCommit,
	}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("fsync-sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
	for _, p := range []SyncPolicy{SyncEveryCommit, SyncInterval, SyncNone} {
		rt, err := ParseSyncPolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("policy %v does not round-trip through String(): %v, %v", p, rt, err)
		}
	}
}

func TestJournalWriterSegmentLifecycle(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenJournalWriter(dir, JournalOptions{Policy: SyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 1 {
		t.Fatalf("fresh journal starts at segment %d, want 1", w.Seq())
	}
	if _, err := w.Write([]byte("one\n")); err != nil {
		t.Fatal(err)
	}
	seq, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || w.Seq() != 2 {
		t.Fatalf("after rotate: seq %d / %d, want 2", seq, w.Seq())
	}
	if _, err := w.Write([]byte("two\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("after close\n")); err == nil {
		t.Error("write after Close succeeded")
	}

	// A new writer never appends to existing segments: a previous
	// process may have torn their final line.
	w2, err := OpenJournalWriter(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Seq() != 3 {
		t.Fatalf("reopened journal at segment %d, want 3", w2.Seq())
	}

	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("ListSegments: %d segments, want 3", len(segs))
	}
	for i, s := range segs {
		if s.Seq != int64(i+1) {
			t.Errorf("segment %d has seq %d, want ascending from 1", i, s.Seq)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, SegmentName(1)))
	if err != nil || string(got) != "one\n" {
		t.Errorf("segment 1 content %q, %v; want \"one\\n\"", got, err)
	}

	n, err := PruneSegments(dir, 3)
	if err != nil || n != 2 {
		t.Fatalf("PruneSegments removed %d, %v; want 2", n, err)
	}
	segs, _ = ListSegments(dir)
	if len(segs) != 1 || segs[0].Seq != 3 {
		t.Fatalf("after prune: %+v, want only segment 3", segs)
	}
}

func TestJournalWriterPoisonedByPartialAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenJournalWriter(dir, JournalOptions{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := stats.NewRegistry()
	w.BindStats(reg)

	SetCrashHook(func(point string) error {
		if point == "journal.midline" {
			return ErrCrashInjected
		}
		return nil
	})
	defer SetCrashHook(nil)

	n, err := w.Write([]byte("v2:1:root:test::add_user:x\n"))
	if !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("mid-line crash write: n=%d err=%v, want ErrCrashInjected", n, err)
	}
	if n == 0 {
		t.Fatal("mid-line crash left no bytes on disk; the injection did not split the write")
	}

	// The partial line is on disk; a further append would splice records
	// mid-line, so the writer must stay dead even with the fault gone.
	SetCrashHook(nil)
	if _, err := w.Write([]byte("next\n")); err == nil {
		t.Fatal("write after partial append succeeded; writer not poisoned")
	} else if !strings.Contains(err.Error(), "torn by partial append") {
		t.Fatalf("poisoned write error = %v, want the torn-append explanation", err)
	}
	if _, err := w.Rotate(); err == nil {
		t.Fatal("rotate of a poisoned writer succeeded")
	}
	if got := reg.Snapshot().Counters["journal.writeerrors"]; got < 2 {
		t.Errorf("journal.writeerrors = %d, want >= 2", got)
	}
}

func TestJournalWriterGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenJournalWriter(dir, JournalOptions{Policy: SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	w.BindStats(reg)
	if _, err := w.Write([]byte("grouped\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["journal.syncs"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("group-commit loop never synced the dirty segment")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot().Counters
	if snap["journal.appends"] != 1 || snap["journal.bytes"] != int64(len("grouped\n")) {
		t.Errorf("stats after one append: %+v", snap)
	}
}

func TestManifestVerifyRejectsFlippedByte(t *testing.T) {
	d := testDB()
	populate(t, d)
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap")
	if err := d.Backup(snap); err != nil {
		t.Fatal(err)
	}

	m, err := ReadManifest(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tables) != len(AllTables) {
		t.Fatalf("manifest lists %d tables, want %d", len(m.Tables), len(AllTables))
	}
	if err := m.Verify(snap); err != nil {
		t.Fatalf("pristine snapshot failed verification: %v", err)
	}
	if _, err := Restore(snap, nil); err != nil {
		t.Fatalf("pristine snapshot failed to restore: %v", err)
	}

	// Flip one byte in the users table; both Verify and Restore must
	// refuse the snapshot.
	path := filepath.Join(snap, "users")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(snap); err == nil {
		t.Error("Verify accepted a snapshot with a flipped byte")
	} else if !strings.Contains(err.Error(), "users") {
		t.Errorf("Verify error %v does not name the damaged table", err)
	}
	if _, err := Restore(snap, nil); err == nil {
		t.Error("Restore accepted a snapshot with a flipped byte")
	}

	// Losing a whole row (same byte count not required) is also caught.
	data[0] ^= 0x01 // restore the byte
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if err := os.WriteFile(path, bytes.Join(lines[1:], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(snap); err == nil {
		t.Error("Verify accepted a snapshot with a dropped row")
	}
}

func TestBackupAtomicOverwrite(t *testing.T) {
	d := testDB()
	populate(t, d)
	parent := t.TempDir()
	dir := filepath.Join(parent, "backup")
	if err := d.Backup(dir); err != nil {
		t.Fatal(err)
	}

	d.LockExclusive()
	uid, _ := d.AllocID("users_id")
	if err := Users.Insert(d, &User{UsersID: uid, Login: "newcomer"}); err != nil {
		d.UnlockExclusive()
		t.Fatal(err)
	}
	d.UnlockExclusive()

	if err := d.Backup(dir); err != nil {
		t.Fatalf("backup over an existing directory: %v", err)
	}
	r, err := Restore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.LockShared()
	_, ok := r.UserByLogin("newcomer")
	r.UnlockShared()
	if !ok {
		t.Error("second backup did not replace the first: newcomer missing after restore")
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "backup" {
			t.Errorf("backup left debris %q next to the target directory", e.Name())
		}
	}
}

// TestRestoreFallsBackAcrossBackupSwapWindow simulates a crash between
// Backup's two renames: the target directory is transiently missing,
// with the old backup displaced to dir.prev and the new one complete
// at dir.tmp. Restore must find the data — preferring the completed
// (newer) tmp, and falling back to prev when tmp is unusable.
func TestRestoreFallsBackAcrossBackupSwapWindow(t *testing.T) {
	d := testDB()
	populate(t, d)
	parent := t.TempDir()
	dir := filepath.Join(parent, "backup")
	if err := d.Backup(dir); err != nil {
		t.Fatal(err)
	}

	d.LockExclusive()
	uid, _ := d.AllocID("users_id")
	if err := Users.Insert(d, &User{UsersID: uid, Login: "newcomer"}); err != nil {
		d.UnlockExclusive()
		t.Fatal(err)
	}
	d.UnlockExclusive()

	// Build the crash window by hand: the second backup's dump is
	// complete at dir.tmp, the old backup has moved to dir.prev, and
	// the crash hit before dir.tmp was renamed in.
	if err := d.Backup(dir + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir, dir+".prev"); err != nil {
		t.Fatal(err)
	}

	r, err := Restore(dir, nil)
	if err != nil {
		t.Fatalf("restore across the swap window: %v", err)
	}
	r.LockShared()
	_, ok := r.UserByLogin("newcomer")
	r.UnlockShared()
	if !ok {
		t.Error("restore did not prefer the completed newer dump at dir.tmp")
	}

	// With tmp incomplete (its MANIFEST never landed), the displaced
	// previous backup is the fallback.
	if err := os.Remove(filepath.Join(dir+".tmp", "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	r, err = Restore(dir, nil)
	if err != nil {
		t.Fatalf("restore with partial tmp: %v", err)
	}
	r.LockShared()
	_, ok = r.UserByLogin("newcomer")
	r.UnlockShared()
	if ok {
		t.Error("restore used the unverified partial tmp instead of dir.prev")
	}
}

func TestCheckpointStoreTakeAndPrune(t *testing.T) {
	d := testDB()
	populate(t, d)
	store, err := NewCheckpointStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}

	// Each checkpoint records the journal segment opened at its instant.
	nextSeq := int64(1)
	rotate := func() (int64, error) { nextSeq++; return nextSeq, nil }
	for i := 0; i < 3; i++ {
		gen, err := store.Take(d, rotate)
		if err != nil {
			t.Fatal(err)
		}
		if gen != int64(i+1) {
			t.Fatalf("checkpoint %d got generation %d", i, gen)
		}
	}

	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 2 || gens[1] != 3 {
		t.Fatalf("after 3 checkpoints with keep=2: generations %v, want [2 3]", gens)
	}
	if got := store.OldestKeptJournalSeq(); got != 3 {
		t.Errorf("OldestKeptJournalSeq = %d, want 3 (gen 2's segment)", got)
	}

	for _, gen := range gens {
		m, err := ReadManifest(store.Path(gen))
		if err != nil {
			t.Fatalf("generation %d manifest: %v", gen, err)
		}
		if err := m.Verify(store.Path(gen)); err != nil {
			t.Errorf("generation %d fails verification: %v", gen, err)
		}
		if m.Generation != gen {
			t.Errorf("generation %d manifest says generation %d", gen, m.Generation)
		}
	}
	if _, err := Restore(store.Path(3), clock.NewFake(time.Unix(600000001, 0))); err != nil {
		t.Errorf("restoring the newest checkpoint: %v", err)
	}
}

func TestFsckCleanAndDirty(t *testing.T) {
	d := testDB()
	populate(t, d)
	if incons := d.Fsck(); len(incons) != 0 {
		t.Fatalf("fsck of a consistent database found %d problems: %v", len(incons), incons)
	}

	// Dangle a membership edge at a user that does not exist.
	l, _ := d.ListByName("video-users")
	push(&d.members, l.ListID, Member{ListID: l.ListID, MemberType: "USER", MemberID: 9999}, d.bump())
	incons := d.Fsck()
	if len(incons) == 0 {
		t.Fatal("fsck missed a dangling USER member")
	}
	found := false
	for _, inc := range incons {
		if inc.Table == TMembers && strings.Contains(inc.Item, "9999") {
			found = true
		}
	}
	if !found {
		t.Errorf("fsck findings %v do not name the dangling member", incons)
	}
}
