package db

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moira/internal/clock"
)

func snapDB(t *testing.T) *DB {
	t.Helper()
	return New(clock.NewFake(time.Unix(600000000, 0)))
}

// TestSnapshotIsolationNoTornViews is the -race hammer: one writer
// commits multi-table transactions (a user, a matching cluster, and a
// quota-carrying filesys per round, all under the exclusive lock) while
// N readers continuously pull Reader() snapshots and assert the
// cross-table invariant — every table has the same number of committed
// rounds. A torn view (user visible, cluster not) means a reader saw a
// half-published commit.
func TestSnapshotIsolationNoTornViews(t *testing.T) {
	d := snapDB(t)
	const rounds = 400
	const readers = 8

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := d.Reader()
				var users, clusters, filesystems int
				snap.EachUser(func(*User) bool { users++; return true })
				snap.EachCluster(func(*Cluster) bool { clusters++; return true })
				snap.EachFilesys(func(*Filesys) bool { filesystems++; return true })
				if users != clusters || users != filesystems {
					torn.Add(1)
					t.Errorf("torn view: %d users, %d clusters, %d filesystems", users, clusters, filesystems)
					return
				}
				// The same snapshot must stay self-consistent on re-read:
				// it is frozen, so the counts cannot move.
				var again int
				snap.EachUser(func(*User) bool { again++; return true })
				if again != users {
					t.Errorf("snapshot moved under reader: %d then %d users", users, again)
					return
				}
			}
		}()
	}

	for i := 0; i < rounds; i++ {
		d.LockExclusive()
		id, _ := d.AllocID("users_id")
		if err := d.InsertUser(&User{UsersID: id, Login: fmt.Sprintf("w%05d", i), UID: 7000 + i}); err != nil {
			t.Fatalf("InsertUser: %v", err)
		}
		cid, _ := d.AllocID("clu_id")
		if err := d.InsertCluster(&Cluster{CluID: cid, Name: fmt.Sprintf("c%05d", i)}); err != nil {
			t.Fatalf("InsertCluster: %v", err)
		}
		fid, _ := d.AllocID("filsys_id")
		if err := d.InsertFilesys(&Filesys{FilsysID: fid, Label: fmt.Sprintf("f%05d", i)}); err != nil {
			t.Fatalf("InsertFilesys: %v", err)
		}
		d.UnlockExclusive()
	}
	stop.Store(true)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn multi-table views observed", torn.Load())
	}

	// All committed rounds visible in the final snapshot.
	snap := d.Reader()
	var users int
	snap.EachUser(func(*User) bool { users++; return true })
	if users != rounds {
		t.Fatalf("final snapshot has %d users, want %d", users, rounds)
	}
	reads, rebuilds := d.SnapshotStats()
	if reads == 0 || rebuilds == 0 {
		t.Fatalf("snapshot counters did not move: reads=%d rebuilds=%d", reads, rebuilds)
	}
	if rebuilds > reads {
		t.Fatalf("more rebuilds (%d) than reads (%d)", rebuilds, reads)
	}
}

// TestSnapshotStability pins a snapshot, mutates the live database, and
// verifies the pinned snapshot still answers with the pre-mutation
// state — including through index-backed accessors.
func TestSnapshotStability(t *testing.T) {
	d := snapDB(t)
	id, _ := d.AllocID("users_id")
	if err := d.InsertUser(&User{UsersID: id, Login: "stable", UID: 1234}); err != nil {
		t.Fatal(err)
	}

	snap := d.Reader()
	if !snap.Frozen() {
		t.Fatal("Reader() returned a non-frozen DB")
	}

	// Mutate live: rename the user, change its uid, add another.
	u, _ := d.UserByLogin("stable")
	d.RenameUser(u, "renamed")
	d.NoteUpdate(u)
	d.SetUserUID(u, 4321)
	d.NoteUpdate(u)
	id2, _ := d.AllocID("users_id")
	if err := d.InsertUser(&User{UsersID: id2, Login: "later", UID: 5555}); err != nil {
		t.Fatal(err)
	}

	if _, ok := snap.UserByLogin("stable"); !ok {
		t.Error("snapshot lost pre-mutation login")
	}
	if _, ok := snap.UserByLogin("renamed"); ok {
		t.Error("snapshot sees post-snapshot rename")
	}
	if _, ok := snap.UserByLogin("later"); ok {
		t.Error("snapshot sees post-snapshot insert")
	}
	if got := snap.UsersByUID(1234); len(got) != 1 || got[0].Login != "stable" {
		t.Errorf("snapshot UsersByUID(1234) = %v", dumpUsers(got))
	}
	if got := snap.UsersByUID(4321); len(got) != 0 {
		t.Errorf("snapshot sees post-snapshot uid change: %v", dumpUsers(got))
	}
	if got := snap.UsersMatchingLogin("sta*"); len(got) != 1 {
		t.Errorf("snapshot wildcard match = %v", dumpUsers(got))
	}

	// A fresh Reader() sees the new state.
	now := d.Reader()
	if _, ok := now.UserByLogin("renamed"); !ok {
		t.Error("fresh snapshot missing rename")
	}
	if got := now.UsersByUID(4321); len(got) != 1 {
		t.Errorf("fresh snapshot UsersByUID(4321) = %v", dumpUsers(got))
	}
}

// TestSnapshotReuseWhenClean: repeated Reader() calls with no
// intervening writes return the identical frozen DB (no copies), and a
// write invalidates it.
func TestSnapshotReuseWhenClean(t *testing.T) {
	d := snapDB(t)
	s1 := d.Reader()
	s2 := d.Reader()
	if s1 != s2 {
		t.Fatal("clean Reader() calls returned different snapshots")
	}
	if _, err := d.InternString("poke"); err != nil {
		t.Fatal(err)
	}
	s3 := d.Reader()
	if s3 == s1 {
		t.Fatal("Reader() after write returned the stale snapshot")
	}
	if s1.users.len() != 0 || s3.users.len() != 0 {
		t.Fatal("expected empty user tables")
	}
}

// TestFrozenMutationPanics: retrieve handlers must not write. Any
// mutation routed at a frozen snapshot is a bug, and the guard turns it
// into a loud panic instead of silent snapshot corruption.
func TestFrozenMutationPanics(t *testing.T) {
	d := snapDB(t)
	snap := d.Reader()
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a frozen snapshot did not panic")
		}
	}()
	_ = snap.InsertUser(&User{UsersID: 99, Login: "nope"})
}

// TestSnapshotAfterAdoptFrom: promotion swaps in a whole new table set
// via AdoptFrom; stale snapshots must be invalidated and new readers
// must see the adopted rows through the indexes.
func TestSnapshotAfterAdoptFrom(t *testing.T) {
	d := snapDB(t)
	old := d.Reader()

	src := snapDB(t)
	id, _ := src.AllocID("users_id")
	if err := src.InsertUser(&User{UsersID: id, Login: "adopted", UID: 777}); err != nil {
		t.Fatal(err)
	}
	d.AdoptFrom(src)

	if _, ok := old.UserByLogin("adopted"); ok {
		t.Error("pre-adopt snapshot sees adopted rows")
	}
	snap := d.Reader()
	if snap == old {
		t.Fatal("AdoptFrom did not invalidate the frozen snapshot")
	}
	if _, ok := snap.UserByLogin("adopted"); !ok {
		t.Error("post-adopt snapshot missing adopted user")
	}
	if got := snap.UsersByUID(777); len(got) != 1 {
		t.Errorf("post-adopt snapshot UsersByUID = %v", dumpUsers(got))
	}
	if got := snap.UsersMatchingLogin("adop*"); len(got) != 1 {
		t.Errorf("post-adopt snapshot wildcard = %v", dumpUsers(got))
	}
}

// dumpAll renders every relation of d in backup format.
func dumpAll(t *testing.T, d *DB) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range AllTables {
		fmt.Fprintf(&buf, "== %s\n", tbl)
		if err := d.DumpTable(tbl, &buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestSnapshotAdoptThenWriteThenRead: page stamps only order within one
// database's epoch domain. d has served snapshots for many epochs when
// it adopts src, whose pages carry small stamps from src's own short
// history and sit at the very ids d's old rows had. If AdoptFrom did not
// re-stamp them, the next freeze would take every adopted page for
// "unchanged since the last snapshot" and serve d's old rows.
func TestSnapshotAdoptThenWriteThenRead(t *testing.T) {
	fill := func(d *DB, n int, tag string) {
		for i := 0; i < n; i++ {
			id, _ := d.AllocID("users_id")
			if err := d.InsertUser(&User{UsersID: id, Login: fmt.Sprintf("%s%03d", tag, i), UID: 7000 + i, Shell: tag}); err != nil {
				t.Fatal(err)
			}
			lid, _ := d.AllocID("list_id")
			if err := d.InsertList(&List{ListID: lid, Name: fmt.Sprintf("%s-list%03d", tag, i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := snapDB(t)
	fill(d, 200, "old")
	for i := 0; i < 50; i++ { // run d's epochs well ahead of src's
		u, _ := d.UserByLogin("old007")
		u.Shell = fmt.Sprint(i)
		d.NoteUpdate(u)
		d.Reader()
	}
	pinned := d.Reader()
	before := dumpAll(t, pinned)

	src := snapDB(t)
	fill(src, 150, "new")
	d.AdoptFrom(src)

	u, ok := d.UserByLogin("new042")
	if !ok {
		t.Fatal("adopted user missing from the live database")
	}
	u.Shell = "/bin/after-adopt"
	d.NoteUpdate(u)

	snap := d.Reader()
	if got, want := dumpAll(t, snap), dumpAll(t, d); got != want {
		t.Errorf("snapshot after adopt+write differs from live:\n got: %.300s\nwant: %.300s", got, want)
	}
	if bad := snap.Fsck(); len(bad) != 0 {
		t.Errorf("fsck of the post-adopt snapshot: %v", bad)
	}
	if _, ok := snap.UserByLogin("old007"); ok {
		t.Error("post-adopt snapshot still serves a pre-adopt row")
	}
	if dumpAll(t, pinned) != before {
		t.Error("the snapshot pinned before AdoptFrom changed")
	}

	// And the steady state resumes: the next one-row write copies a page,
	// not the relation.
	rows := d.snapRowsCopied.Load()
	u.Shell = "/bin/again"
	d.NoteUpdate(u)
	d.Reader()
	if n := d.snapRowsCopied.Load() - rows; n == 0 || n > fanout {
		t.Errorf("one-row write after adopt copied %d rows, want one page's worth (1..%d)", n, fanout)
	}
}
