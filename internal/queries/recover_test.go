package queries

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// durable is a test fixture for the crash-safe pipeline: a bootstrapped
// database writing CRC'd journal segments into a data directory, with a
// checkpoint store over the same layout. The clock is static so that a
// recovered database is byte-identical to the original (replay stamps
// mod-times at replay-time Now()).
type durable struct {
	root  string
	clk   *clock.Fake
	d     *db.DB
	jw    *db.JournalWriter
	store *db.CheckpointStore
	cx    *Context
}

func newDurable(t *testing.T) *durable {
	t.Helper()
	root := t.TempDir()
	clk := clock.NewFake(time.Unix(600000000, 0))
	dd, err := db.OpenDataDir(root)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := db.OpenJournalWriter(dd.JournalDir(), db.JournalOptions{Policy: db.SyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	d := NewBootstrappedDB(clk)
	d.SetJournal(jw)
	store, err := db.NewCheckpointStore(dd.SnapshotsDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &durable{
		root: root, clk: clk, d: d, jw: jw, store: store,
		cx: &Context{DB: d, Principal: "ops", App: "test", Privileged: true},
	}
}

func (f *durable) run(t *testing.T, name string, args ...string) {
	t.Helper()
	if err := Execute(f.cx, name, args, func([]string) error { return nil }); err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
}

func (f *durable) checkpoint(t *testing.T) int64 {
	t.Helper()
	gen, err := f.store.Take(f.d, f.jw.Rotate)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return gen
}

// recover recovers the fixture's data directory as a crashed process
// would find it, using a fresh clock at the same static instant.
func (f *durable) recover(t *testing.T) (*db.DB, *RecoverInfo) {
	t.Helper()
	d, info, err := Recover(f.root, clock.NewFake(f.clk.Now()), t.Logf)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return d, info
}

// assertSameTables compares every relation of the two databases
// byte-for-byte through the dump format.
func assertSameTables(t *testing.T, want, got *db.DB) {
	t.Helper()
	want.LockShared()
	got.LockShared()
	defer want.UnlockShared()
	defer got.UnlockShared()
	for _, tbl := range db.AllTables {
		var a, b bytes.Buffer
		if err := want.DumpTable(tbl, &a); err != nil {
			t.Fatal(err)
		}
		if err := got.DumpTable(tbl, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("table %s differs after recovery:\nwant:\n%s\ngot:\n%s", tbl, a.String(), b.String())
		}
	}
}

func TestRecoverFirstBoot(t *testing.T) {
	root := t.TempDir()
	d, info, err := Recover(root, clock.NewFake(time.Unix(600000000, 0)), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 0 || info.SegmentsReplayed != 0 {
		t.Errorf("first boot info = %+v, want fresh bootstrap", info)
	}
	if len(info.Fsck) != 0 {
		t.Errorf("bootstrapped database fails fsck: %v", info.Fsck)
	}
	d.LockShared()
	defer d.UnlockShared()
	var buf bytes.Buffer
	if err := d.DumpTable(db.TUsers, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverSnapshotPlusSegments(t *testing.T) {
	f := newDurable(t)
	f.run(t, "add_machine", "alpha.mit.edu", "VAX")
	f.checkpoint(t)
	f.run(t, "add_machine", "bravo.mit.edu", "VAX")
	f.run(t, "add_user", "daytime", "-1", "/bin/csh", "Day", "Time", "", "1", "", "STAFF")
	// The process "crashes" here: nothing is closed or flushed further.

	rec, info := f.recover(t)
	if info.Generation != 1 {
		t.Errorf("recovered from generation %d, want 1", info.Generation)
	}
	if info.Replay.Applied != 2 || info.Replay.Failed != 0 || info.Replay.Torn != 0 {
		t.Errorf("replay stats = %+v, want 2 applied", info.Replay)
	}
	if len(info.Fsck) != 0 {
		t.Errorf("recovered database fails fsck: %v", info.Fsck)
	}
	assertSameTables(t, f.d, rec)
}

func TestRecoverToleratesTornFinalLine(t *testing.T) {
	f := newDurable(t)
	f.run(t, "add_machine", "alpha.mit.edu", "VAX")
	f.checkpoint(t)
	f.run(t, "add_machine", "bravo.mit.edu", "VAX")
	f.run(t, "add_machine", "charlie.mit.edu", "VAX")
	f.jw.Close()

	// Tear the tail: the crash cut the last append short.
	segs, err := db.ListSegments(f.jw.Dir())
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last.Path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	rec, info := f.recover(t)
	if info.Replay.Torn != 1 || info.Replay.Failed != 0 {
		t.Fatalf("replay stats = %+v, want exactly 1 torn and 0 failed", info.Replay)
	}
	if info.Replay.Applied != 1 {
		t.Errorf("applied = %d, want 1 (bravo)", info.Replay.Applied)
	}
	rec.LockShared()
	if _, ok := db.Machines.Get(rec, "BRAVO.MIT.EDU"); !ok {
		t.Error("intact record lost")
	}
	if _, ok := db.Machines.Get(rec, "CHARLIE.MIT.EDU"); ok {
		t.Error("torn record was executed")
	}
	rec.UnlockShared()
	if len(info.Fsck) != 0 {
		t.Errorf("recovered database fails fsck: %v", info.Fsck)
	}
}

// TestRecoverIdempotentAcrossBoots is the torn-tail persistence case:
// a crash tears the active segment, boot 1 recovers and opens a fresh
// segment, and the torn line is still on disk at boot 2 — in what is
// now a non-final segment. Recovery must tolerate it there too, not
// mistake it for mid-journal corruption and refuse a healthy store.
func TestRecoverIdempotentAcrossBoots(t *testing.T) {
	f := newDurable(t)
	f.run(t, "add_machine", "alpha.mit.edu", "VAX")
	f.checkpoint(t)
	f.run(t, "add_machine", "bravo.mit.edu", "VAX")
	f.jw.Close()

	// The crash cut the last append short.
	segs, err := db.ListSegments(f.jw.Dir())
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last.Path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	// Boot 1: recover, open a fresh segment as moirad does, serve a
	// mutation, and "crash" again (nothing flushed further).
	d1, info1, err := Recover(f.root, clock.NewFake(f.clk.Now()), t.Logf)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	if info1.Replay.Torn != 1 {
		t.Fatalf("first boot replay stats = %+v, want 1 torn", info1.Replay)
	}
	dd, err := db.OpenDataDir(f.root)
	if err != nil {
		t.Fatal(err)
	}
	jw2, err := db.OpenJournalWriter(dd.JournalDir(), db.JournalOptions{Policy: db.SyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	d1.SetJournal(jw2)
	cx := &Context{DB: d1, Principal: "ops", App: "test", Privileged: true}
	if err := Execute(cx, "add_machine", []string{"charlie.mit.edu", "VAX"},
		func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	jw2.Close()

	// Boot 2: the tear now sits at the tail of an older segment.
	d2, info2, err := Recover(f.root, clock.NewFake(f.clk.Now()), t.Logf)
	if err != nil {
		t.Fatalf("second boot refused a healthy store: %v", err)
	}
	if info2.Replay.Torn != 1 || info2.Replay.Failed != 0 {
		t.Errorf("second boot replay stats = %+v, want 1 torn and 0 failed", info2.Replay)
	}
	d2.LockShared()
	for _, m := range []string{"ALPHA.MIT.EDU", "CHARLIE.MIT.EDU"} {
		if _, ok := db.Machines.Get(d2, m); !ok {
			t.Errorf("second boot lost %s", m)
		}
	}
	d2.UnlockShared()
	assertSameTables(t, d1, d2)
}

func TestRecoverRefusesWhenAllSnapshotsDamaged(t *testing.T) {
	f := newDurable(t)
	f.run(t, "add_machine", "alpha.mit.edu", "VAX")
	f.checkpoint(t)

	// The only generation rots on disk. Bootstrapping fresh here would
	// replay just the retained segments and silently shed the history
	// the snapshot held; recovery must stop for an operator instead.
	path := filepath.Join(f.store.Path(1), db.TMachine)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Recover(f.root, clock.NewFake(f.clk.Now()), t.Logf)
	if !errors.Is(err, ErrNoUsableSnapshot) {
		t.Fatalf("recovery with all snapshots damaged returned %v, want ErrNoUsableSnapshot", err)
	}
}

func TestRecoverRefusesMidFileCorruption(t *testing.T) {
	f := newDurable(t)
	f.checkpoint(t)
	f.run(t, "add_machine", "alpha.mit.edu", "VAX")
	f.run(t, "add_machine", "bravo.mit.edu", "VAX")
	f.jw.Close()

	// Flip a byte in the first line of the active segment: this is not
	// a torn tail, it is damage, and automatic recovery must refuse it.
	segs, err := db.ListSegments(f.jw.Dir())
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(data, []byte{'\n'}) < 2 {
		t.Fatalf("segment %s has too few lines for a mid-file flip", last.Path)
	}
	data[5] ^= 0x01
	if err := os.WriteFile(last.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Recover(f.root, clock.NewFake(f.clk.Now()), t.Logf)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("recovery of a mid-corrupt journal returned %v, want ErrJournalCorrupt", err)
	}
}

func TestRecoverFallsBackPastDamagedSnapshot(t *testing.T) {
	f := newDurable(t)
	f.run(t, "add_machine", "alpha.mit.edu", "VAX")
	f.checkpoint(t)
	f.run(t, "add_machine", "bravo.mit.edu", "VAX")
	f.checkpoint(t)

	// Generation 2 rots on disk; recovery must fall back to generation 1
	// and reach the same state through the retained segments.
	path := filepath.Join(f.store.Path(2), db.TMachine)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, info := f.recover(t)
	if info.Generation != 1 {
		t.Fatalf("recovered from generation %d, want fallback to 1", info.Generation)
	}
	if len(info.SkippedSnapshots) != 1 {
		t.Errorf("skipped snapshots = %v, want the damaged generation 2", info.SkippedSnapshots)
	}
	rec.LockShared()
	_, ok := db.Machines.Get(rec, "BRAVO.MIT.EDU")
	rec.UnlockShared()
	if !ok {
		t.Error("fallback recovery lost the post-gen-1 record")
	}
	assertSameTables(t, f.d, rec)
}

// failJournal fails every append, like a full disk.
type failJournal struct{}

func (failJournal) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestJournalFailureFailStopsMutations: the first journal write error
// wedges the store — the failed query's in-memory effect is the only
// divergence that ever exists, because every later mutation is refused
// with MR_DOWN while reads keep serving. Repointing the journal clears
// the latch.
func TestJournalFailureFailStopsMutations(t *testing.T) {
	d := NewBootstrappedDB(clock.NewFake(time.Unix(600000000, 0)))
	d.SetJournal(failJournal{})
	cx := &Context{DB: d, Principal: "ops", App: "test", Privileged: true}
	discard := func([]string) error { return nil }

	if err := Execute(cx, "add_machine", []string{"alpha.mit.edu", "VAX"}, discard); err == nil {
		t.Fatal("journal write failure did not fail the transaction")
	}
	if !d.JournalWedged() {
		t.Fatal("journal failure did not wedge the database")
	}
	if err := Execute(cx, "add_machine", []string{"bravo.mit.edu", "VAX"}, discard); !errors.Is(err, mrerr.MrDown) {
		t.Fatalf("mutation on wedged store = %v, want MR_DOWN", err)
	}
	if err := Execute(cx, "get_machine", []string{"*"}, discard); err != nil {
		t.Errorf("retrieve on wedged store = %v, want reads to keep serving", err)
	}

	// Operator repoints the journal: the store is durable again.
	var buf bytes.Buffer
	d.SetJournal(&buf)
	if err := Execute(cx, "add_machine", []string{"bravo.mit.edu", "VAX"}, discard); err != nil {
		t.Fatalf("mutation after journal repoint = %v", err)
	}
	if buf.Len() == 0 {
		t.Error("repointed journal received no record")
	}
}

// TestDetachedJournalRefusesMutations: after DetachJournal (a fencing
// primary) a mutation, single or batched, is refused under the lock
// and leaves memory untouched — it must never apply with no journal to
// record it. Reads keep serving, and SetJournal lifts the latch.
func TestDetachedJournalRefusesMutations(t *testing.T) {
	d := NewBootstrappedDB(clock.NewFake(time.Unix(600000000, 0)))
	var buf bytes.Buffer
	d.SetJournal(&buf)
	cx := &Context{DB: d, Principal: "ops", App: "test", Privileged: true}
	discard := func([]string) error { return nil }
	if err := Execute(cx, "add_machine", []string{"charlie.mit.edu", "VAX"}, discard); err != nil {
		t.Fatal(err)
	}

	d.DetachJournal()
	if !d.JournalDetached() {
		t.Fatal("DetachJournal did not latch the database")
	}
	if err := Execute(cx, "add_machine", []string{"alpha.mit.edu", "VAX"}, discard); !errors.Is(err, mrerr.MrReadonly) {
		t.Fatalf("mutation on detached store = %v, want MR_READONLY", err)
	}
	codes, err := ExecuteBatch(cx, []protocol.BatchItem{{Name: "add_machine", Args: []string{"bravo.mit.edu", "VAX"}}})
	if err != nil || len(codes) != 1 || codes[0] != mrerr.MrReadonly {
		t.Fatalf("batch on detached store = %v, %v; want one MR_READONLY", codes, err)
	}
	d.LockShared()
	_, alpha := db.Machines.Get(d, "ALPHA.MIT.EDU")
	_, bravo := db.Machines.Get(d, "BRAVO.MIT.EDU")
	d.UnlockShared()
	if alpha || bravo {
		t.Fatalf("refused mutations applied in memory (alpha %v, bravo %v)", alpha, bravo)
	}
	if err := Execute(cx, "get_machine", []string{"charlie.mit.edu"}, discard); err != nil {
		t.Errorf("retrieve on detached store = %v, want reads to keep serving", err)
	}
	journaled := buf.Len()

	d.SetJournal(&buf)
	if err := Execute(cx, "add_machine", []string{"alpha.mit.edu", "VAX"}, discard); err != nil {
		t.Fatalf("mutation after SetJournal = %v", err)
	}
	if buf.Len() == journaled {
		t.Error("reattached journal received no record")
	}
}

// TestRecoverRoundTripUnderConcurrentMutation is the satellite round-trip
// check: checkpoints race live mutations, then recovery must reproduce
// the final state byte-for-byte — part from the snapshot, part replayed.
func TestRecoverRoundTripUnderConcurrentMutation(t *testing.T) {
	f := newDurable(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cx := &Context{DB: f.d, Principal: "ops", App: "test", Privileged: true}
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("host-%d-%d.mit.edu", g, i)
				if err := Execute(cx, "add_machine", []string{name, "VAX"},
					func([]string) error { return nil }); err != nil {
					t.Errorf("add_machine %s: %v", name, err)
				}
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		f.checkpoint(t)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	rec, info := f.recover(t)
	if info.Replay.Failed != 0 || info.Replay.Torn != 0 {
		t.Errorf("replay stats = %+v", info.Replay)
	}
	if len(info.Fsck) != 0 {
		t.Errorf("recovered database fails fsck: %v", info.Fsck)
	}
	rec.LockShared()
	n := 0
	for g := 0; g < 4; g++ {
		for i := 0; i < 25; i++ {
			if _, ok := db.Machines.Get(rec, fmt.Sprintf("HOST-%d-%d.MIT.EDU", g, i)); ok {
				n++
			}
		}
	}
	rec.UnlockShared()
	if n != 100 {
		t.Errorf("recovered %d of 100 concurrently added machines", n)
	}
	assertSameTables(t, f.d, rec)
}
