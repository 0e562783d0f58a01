package db

import (
	"fmt"
	"testing"
)

// diffDB is a database of n users, ids 1..n.
func diffDB(t *testing.T, n int) *DB {
	t.Helper()
	d := testDB()
	d.LockExclusive()
	defer d.UnlockExclusive()
	for id := 1; id <= n; id++ {
		if err := Users.Insert(d, &User{UsersID: id, Login: fmt.Sprintf("u%d", id), UID: id, Shell: "/bin/csh"}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// rowPair is one Diff report, by id (0: absent).
type rowPair struct{ old, new int }

func userDiff(old, new *DB) []rowPair {
	var out []rowPair
	Diff(TUsers, old, new, func(o, n any) bool {
		var p rowPair
		if u, ok := o.(*User); ok {
			p.old = u.UsersID
		}
		if u, ok := n.(*User); ok {
			p.new = u.UsersID
		}
		out = append(out, p)
		return true
	})
	return out
}

// TestDiffYieldsChangedRows: Diff reports exactly the rows added,
// removed or changed between two snapshots, in id order, and not the
// unchanged rows that share a re-copied page with them.
func TestDiffYieldsChangedRows(t *testing.T) {
	d := diffDB(t, 100)
	s1 := d.Reader()
	d.LockExclusive()
	u, _ := Users.ByID(d, 7)
	u = Edit(d, Users, u)
	u.Shell = "/bin/sh"
	d.NoteUpdate(u)
	u, _ = Users.ByID(d, 8)
	d.NoteUpdate(Edit(d, Users, u)) // copied and stamped, but equal in every column
	u, _ = Users.ByID(d, 40)
	Users.Delete(d, u)
	if err := Users.Insert(d, &User{UsersID: 500, Login: "new", UID: 500}); err != nil {
		t.Fatal(err)
	}
	d.UnlockExclusive()
	s2 := d.Reader()

	got := fmt.Sprint(userDiff(s1, s2))
	if want := fmt.Sprint([]rowPair{{7, 7}, {40, 0}, {0, 500}}); got != want {
		t.Errorf("users diff = %s, want %s", got, want)
	}
	if got := userDiff(s2, s2); got != nil {
		t.Errorf("a snapshot differs from itself: %v", got)
	}
	if n := Diff(TUsers, s2, s2, func(o, n any) bool { return true }); n != 0 {
		t.Errorf("diffing a snapshot with itself compared %d pages", n)
	}
}

// TestDiffYieldsMemberships: the members relation reports each
// membership added or removed, whatever else the list holds.
func TestDiffYieldsMemberships(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	for _, m := range [][2]int{{1, 10}, {1, 11}, {1, 12}, {2, 10}} {
		if err := d.AddMember(m[0], ACEUser, m[1]); err != nil {
			t.Fatal(err)
		}
	}
	d.UnlockExclusive()
	s1 := d.Reader()
	d.LockExclusive()
	if err := d.DeleteMember(1, ACEUser, 11); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMember(1, ACEUser, 13); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMember(3, ACEString, 5); err != nil {
		t.Fatal(err)
	}
	d.UnlockExclusive()
	s2 := d.Reader()

	var got []string
	Diff(TMembers, s1, s2, func(o, n any) bool {
		if m, ok := o.(*Member); ok {
			got = append(got, fmt.Sprintf("-%d:%s:%d", m.ListID, m.MemberType, m.MemberID))
		}
		if m, ok := n.(*Member); ok {
			got = append(got, fmt.Sprintf("+%d:%s:%d", m.ListID, m.MemberType, m.MemberID))
		}
		return true
	})
	if g, want := fmt.Sprint(got), "[-1:USER:11 +1:USER:13 +3:STRING:5]"; g != want {
		t.Errorf("members diff = %s, want %s", g, want)
	}
}

// TestRowDiffAllocsIndependentOfPopulation: Diff skips every branch
// and page two snapshots share, so diffing snapshots 10 changed users
// apart compares the same pages at 2,000 and at 50,000 users, and
// allocates nothing beyond its callback.
func TestRowDiffAllocsIndependentOfPopulation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	pages := map[int]int{}
	for _, n := range []int{2000, 50000} {
		d := diffDB(t, n)
		before := d.Reader()
		d.LockExclusive()
		for i := 0; i < 10; i++ {
			u, _ := Users.ByID(d, 1+i*150) // 10 rows on 10 pages
			u = Edit(d, Users, u)
			u.Shell = "/bin/sh"
			d.NoteUpdate(u)
		}
		d.UnlockExclusive()
		after := d.Reader()

		rows := 0
		count := func(o, n any) bool { rows++; return true }
		pages[n] = Diff(TUsers, before, after, count)
		if rows != 10 {
			t.Errorf("%d users: diff found %d changed rows, want 10", n, rows)
		}
		if allocs := testing.AllocsPerRun(20, func() { Diff(TUsers, before, after, count) }); allocs != 0 {
			t.Errorf("%d users: diff allocates %.0f times", n, allocs)
		}
	}
	if pages[2000] != pages[50000] || pages[2000] != 10 {
		t.Errorf("diff compared %d pages at 2,000 users, %d at 50,000; want 10 at both", pages[2000], pages[50000])
	}
}
