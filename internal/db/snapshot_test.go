package db

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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
				Clusters.Each(snap, func(*Cluster) bool { clusters++; return true })
				Filesystems.Each(snap, func(*Filesys) bool { filesystems++; return true })
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
		if err := Users.Insert(d, &User{UsersID: id, Login: fmt.Sprintf("w%05d", i), UID: 7000 + i}); err != nil {
			t.Fatalf("InsertUser: %v", err)
		}
		cid, _ := d.AllocID("clu_id")
		if err := Clusters.Insert(d, &Cluster{CluID: cid, Name: fmt.Sprintf("c%05d", i)}); err != nil {
			t.Fatalf("InsertCluster: %v", err)
		}
		fid, _ := d.AllocID("filsys_id")
		if err := Filesystems.Insert(d, &Filesys{FilsysID: fid, Label: fmt.Sprintf("f%05d", i)}); err != nil {
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
	if err := Users.Insert(d, &User{UsersID: id, Login: "stable", UID: 1234}); err != nil {
		t.Fatal(err)
	}

	snap := d.Reader()
	if !snap.Frozen() {
		t.Fatal("Reader() returned a non-frozen DB")
	}

	// Mutate live: rename the user, change its uid, add another.
	u, _ := d.UserByLogin("stable")
	u = Edit(d, Users, u)
	SetKey(d, Users, u, &u.Login, "renamed")
	d.NoteUpdate(u)
	SetKey(d, Users, u, &u.UID, 4321)
	d.NoteUpdate(u)
	id2, _ := d.AllocID("users_id")
	if err := Users.Insert(d, &User{UsersID: id2, Login: "later", UID: 5555}); err != nil {
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
	if got := keyed(snap, UsersByUID, 1234); len(got) != 1 || got[0].Login != "stable" {
		t.Errorf("snapshot UsersByUID(1234) = %v", dumpUsers(got))
	}
	if got := keyed(snap, UsersByUID, 4321); len(got) != 0 {
		t.Errorf("snapshot sees post-snapshot uid change: %v", dumpUsers(got))
	}
	if got := matching(snap, Users, "sta*"); len(got) != 1 {
		t.Errorf("snapshot wildcard match = %v", dumpUsers(got))
	}

	// A fresh Reader() sees the new state.
	now := d.Reader()
	if _, ok := now.UserByLogin("renamed"); !ok {
		t.Error("fresh snapshot missing rename")
	}
	if got := keyed(now, UsersByUID, 4321); len(got) != 1 {
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
	if s1.users.rows.len() != 0 || s3.users.rows.len() != 0 {
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
	_ = Users.Insert(snap, &User{UsersID: 99, Login: "nope"})
}

// TestSnapshotAfterAdoptFrom: promotion swaps in a whole new table set
// via AdoptFrom; stale snapshots must be invalidated and new readers
// must see the adopted rows through the indexes.
func TestSnapshotAfterAdoptFrom(t *testing.T) {
	d := snapDB(t)
	old := d.Reader()

	src := snapDB(t)
	id, _ := src.AllocID("users_id")
	if err := Users.Insert(src, &User{UsersID: id, Login: "adopted", UID: 777}); err != nil {
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
	if got := keyed(snap, UsersByUID, 777); len(got) != 1 {
		t.Errorf("post-adopt snapshot UsersByUID = %v", dumpUsers(got))
	}
	if got := matching(snap, Users, "adop*"); len(got) != 1 {
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
			if err := Users.Insert(d, &User{UsersID: id, Login: fmt.Sprintf("%s%03d", tag, i), UID: 7000 + i, Shell: tag}); err != nil {
				t.Fatal(err)
			}
			lid, _ := d.AllocID("list_id")
			if err := Lists.Insert(d, &List{ListID: lid, Name: fmt.Sprintf("%s-list%03d", tag, i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := snapDB(t)
	fill(d, 200, "old")
	for i := 0; i < 50; i++ { // run d's epochs well ahead of src's
		u, _ := d.UserByLogin("old007")
		u = Edit(d, Users, u)
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
	u = Edit(d, Users, u)
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

	// And the steady state resumes: the next one-row write copies two
	// rows, not the relation — the user, and the stats row the write
	// counts in, both shared with the snapshot read above.
	rows := d.snapRowsCopied.Load()
	u = Edit(d, Users, u)
	u.Shell = "/bin/again"
	d.NoteUpdate(u)
	d.Reader()
	if n := d.snapRowsCopied.Load() - rows; n != 2 {
		t.Errorf("one-row write after adopt copied %d rows, want the user and its stats row", n)
	}
}

// TestWriteToSharedRowPanics: once Reader() has frozen a snapshot, every
// live row is shared with it, and noting an in-place update of one that
// was not edited first panics instead of rewriting the snapshot. Edit
// copies the row once; the copy takes the same writes.
func TestWriteToSharedRowPanics(t *testing.T) {
	d := snapDB(t)
	id, _ := d.AllocID("users_id")
	if err := Users.Insert(d, &User{UsersID: id, Login: "shared", UID: 4242, Shell: "/bin/csh"}); err != nil {
		t.Fatal(err)
	}
	if err := Servers.Insert(d, &Server{Name: "SHARED"}); err != nil {
		t.Fatal(err)
	}
	snap := d.Reader()
	before := dumpAll(t, snap)
	u, _ := d.UserByLogin("shared")
	srv, _ := Servers.Get(d, "SHARED")
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"NoteUpdate", func() { d.NoteUpdate(u) }},
		{"NoteUpdateInternal", func() { d.NoteUpdateInternal(srv) }},
		{"SetKey", func() { SetKey(d, Users, u, &u.Login, "renamed") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a row the snapshot shares did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
	if dumpAll(t, snap) != before {
		t.Fatal("a refused write changed the snapshot")
	}

	e := Edit(d, Users, u)
	if e == u {
		t.Fatal("Edit of a shared row handed back the shared row")
	}
	SetKey(d, Users, e, &e.Login, "renamed")
	e.Shell = "/bin/sh"
	d.NoteUpdate(e)
	if again := Edit(d, Users, e); again != e {
		t.Error("Edit of a row private to the live database copied it again")
	}
	if s := Edit(d, Servers, srv); s == srv {
		t.Error("Edit of a shared server row handed back the shared row")
	} else {
		s.InProgress = true
		d.NoteUpdateInternal(s)
	}
	if dumpAll(t, snap) != before {
		t.Error("an edited write changed the snapshot")
	}
	if _, ok := snap.UserByLogin("shared"); !ok {
		t.Error("the snapshot lost the login")
	}
	now := d.Reader()
	if got, ok := now.UserByLogin("renamed"); !ok || got.Shell != "/bin/sh" {
		t.Errorf("the next snapshot missed the edit: %+v", got)
	}
	if s, _ := Servers.Get(now, "SHARED"); !s.InProgress {
		t.Error("the next snapshot missed the internal update")
	}
}

// TestAdoptThenWriteKeepsPinnedSnapshots: AdoptFrom moves src's rows in
// with src's private-row masks, which count in src's epoch domain;
// restamp drops them, so the first write after the adoption copies the
// row. Snapshots pinned before the adoption, of d and of src, are
// unchanged by the adoption and by a write after it.
func TestAdoptThenWriteKeepsPinnedSnapshots(t *testing.T) {
	fill := func(d *DB, tag string) {
		for i := 0; i < 100; i++ {
			id, _ := d.AllocID("users_id")
			if err := Users.Insert(d, &User{UsersID: id, Login: fmt.Sprintf("%s%03d", tag, i), UID: 7000 + i, Shell: tag}); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := snapDB(t)
	fill(d, "old")
	pinnedD := d.Reader()
	beforeD := dumpAll(t, pinnedD)

	src := snapDB(t)
	fill(src, "new")
	pinnedSrc := src.Reader()
	beforeSrc := dumpAll(t, pinnedSrc)
	d.AdoptFrom(src)

	u, _ := d.UserByLogin("new042")
	e := Edit(d, Users, u)
	if e == u {
		t.Error("the first edit after AdoptFrom wrote the adopted row in place")
	}
	SetKey(d, Users, e, &e.Login, "moved")
	SetKey(d, Users, e, &e.UID, 9999)
	e.Shell = "/bin/after-adopt"
	d.NoteUpdate(e)

	if dumpAll(t, pinnedD) != beforeD {
		t.Error("the snapshot of d pinned before AdoptFrom changed")
	}
	if dumpAll(t, pinnedSrc) != beforeSrc {
		t.Error("the snapshot of src pinned before AdoptFrom changed")
	}
	if _, ok := pinnedSrc.UserByLogin("new042"); !ok {
		t.Error("the pinned snapshot of src lost a login")
	}
	if got := keyed(pinnedSrc, UsersByUID, 9999); len(got) != 0 {
		t.Errorf("the pinned snapshot of src sees a later uid: %v", dumpUsers(got))
	}
	snap := d.Reader()
	if got, want := dumpAll(t, snap), dumpAll(t, d); got != want {
		t.Errorf("snapshot after adopt+write differs from live:\n got: %.300s\nwant: %.300s", got, want)
	}
	if got, ok := snap.UserByLogin("moved"); !ok || got.Shell != "/bin/after-adopt" {
		t.Errorf("snapshot after adopt+write: %+v", got)
	}
}

// TestFirstFreezeSharesRows: the first Reader() over a populated store
// copies the pages' row pointers, not the rows. A user is filed in three
// tables (the rows, the login index, the uid index), and a page of 32
// pointers is under 300 bytes, so the freeze costs about 27 bytes a
// user; the ceiling is 32, against the 416 bytes of one user row.
func TestFirstFreezeSharesRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const users = 20000
	d := testDB()
	for i := 0; i < users; i++ {
		mod := ModInfo{Time: int64(600000000 + i), By: "root", With: "test"}
		u := &User{UsersID: 100 + i, Login: fmt.Sprintf("user%d", i), UID: 6500 + i, Shell: "/bin/csh",
			Last: "Fowler", First: "Harmon", Middle: "C", Status: UserActive, MITYear: "1990",
			Fullname: "Harmon C Fowler", PoType: PoboxPOP, Mod: mod, FMod: mod, PMod: mod}
		if err := Users.Insert(d, u); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	snap := d.Reader()
	runtime.ReadMemStats(&m1)
	perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / users
	t.Logf("first Reader() over %d users: %d B, %.1f B a row (a user row is %d B)", users, m1.TotalAlloc-m0.TotalAlloc, perRow, unsafe.Sizeof(User{}))
	if perRow > 32 {
		t.Errorf("the first Reader() allocates %.1f B a row, want at most 32: it copies rows, not pointers", perRow)
	}
	live, _ := d.UserByLogin("user7")
	if frozen, _ := snap.UserByLogin("user7"); frozen != live {
		t.Error("the snapshot holds a copy of a row no write touched")
	}
}
