package acl

import (
	"fmt"
	"math/rand"
	"testing"

	"moira/internal/db"
	"moira/internal/mrerr"
)

// buildDB creates users alice(1), bob(2), carol(3) and lists
// inner(10)={alice}, outer(11)={bob, LIST inner}, cyclic(12)={LIST cyclic},
// empty(13)={}.
func buildDB(t *testing.T) *db.DB {
	t.Helper()
	d := db.New(nil)
	d.LockExclusive()
	defer d.UnlockExclusive()
	for i, login := range []string{"alice", "bob", "carol"} {
		if err := db.Users.Insert(d, &db.User{UsersID: i + 1, Login: login, Status: db.UserActive}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []*db.List{
		{ListID: 10, Name: "inner"},
		{ListID: 11, Name: "outer"},
		{ListID: 12, Name: "cyclic"},
		{ListID: 13, Name: "empty"},
	} {
		if err := db.Lists.Insert(d, l); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.AddMember(10, db.ACEUser, 1))
	must(d.AddMember(11, db.ACEUser, 2))
	must(d.AddMember(11, db.ACEList, 10))
	must(d.AddMember(12, db.ACEList, 12)) // self-cycle
	return d
}

func TestIsUserInList(t *testing.T) {
	d := buildDB(t)
	d.LockShared()
	defer d.UnlockShared()
	cases := []struct {
		list, user int
		want       bool
	}{
		{10, 1, true},
		{10, 2, false},
		{11, 2, true},  // direct
		{11, 1, true},  // via inner
		{11, 3, false}, // carol nowhere
		{12, 1, false}, // cycle terminates
		{13, 1, false}, // empty list
	}
	for _, c := range cases {
		if got := IsUserInList(d, c.list, c.user); got != c.want {
			t.Errorf("IsUserInList(%d, %d) = %v, want %v", c.list, c.user, got, c.want)
		}
	}
}

func TestIsListInList(t *testing.T) {
	d := buildDB(t)
	d.LockShared()
	defer d.UnlockShared()
	if !IsListInList(d, 11, 10) {
		t.Error("inner should be in outer")
	}
	if IsListInList(d, 10, 11) {
		t.Error("outer should not be in inner")
	}
	if IsListInList(d, 12, 10) {
		t.Error("cyclic list should not contain inner")
	}
}

func TestCheckACE(t *testing.T) {
	d := buildDB(t)
	d.LockShared()
	defer d.UnlockShared()
	if !CheckACE(d, db.ACEUser, 1, 1) {
		t.Error("USER ACE should match same user")
	}
	if CheckACE(d, db.ACEUser, 1, 2) {
		t.Error("USER ACE should not match other user")
	}
	if CheckACE(d, db.ACEUser, 0, 0) {
		t.Error("USER ACE id 0 must never grant")
	}
	if !CheckACE(d, db.ACEList, 11, 1) {
		t.Error("LIST ACE should grant recursive member")
	}
	if CheckACE(d, db.ACENone, 0, 1) {
		t.Error("NONE ACE must never grant")
	}
}

func TestResolveACE(t *testing.T) {
	d := buildDB(t)
	d.LockShared()
	defer d.UnlockShared()
	typ, id, err := ResolveACE(d, db.ACEUser, "alice")
	if err != nil || typ != db.ACEUser || id != 1 {
		t.Errorf("ResolveACE(USER, alice) = %q, %d, %v", typ, id, err)
	}
	typ, id, err = ResolveACE(d, db.ACEList, "outer")
	if err != nil || typ != db.ACEList || id != 11 {
		t.Errorf("ResolveACE(LIST, outer) = %q, %d, %v", typ, id, err)
	}
	if _, _, err = ResolveACE(d, db.ACENone, "whatever"); err != nil {
		t.Errorf("ResolveACE(NONE) = %v", err)
	}
	if _, _, err = ResolveACE(d, db.ACEUser, "nobody"); err != mrerr.MrACE {
		t.Errorf("unresolvable user err = %v", err)
	}
	if _, _, err = ResolveACE(d, "BOGUS", "x"); err != mrerr.MrACE {
		t.Errorf("bad type err = %v", err)
	}
}

func TestNameOfACE(t *testing.T) {
	d := buildDB(t)
	d.LockShared()
	defer d.UnlockShared()
	if got := NameOfACE(d, db.ACEUser, 1); got != "alice" {
		t.Errorf("NameOfACE user = %q", got)
	}
	if got := NameOfACE(d, db.ACEList, 11); got != "outer" {
		t.Errorf("NameOfACE list = %q", got)
	}
	if got := NameOfACE(d, db.ACENone, 0); got != "NONE" {
		t.Errorf("NameOfACE none = %q", got)
	}
	if got := NameOfACE(d, db.ACEUser, 999); got != "???" {
		t.Errorf("NameOfACE dangling = %q", got)
	}
}

func TestCheckCapability(t *testing.T) {
	d := buildDB(t)
	d.LockExclusive()
	db.CapACLs.Upsert(d, &db.CapACL{Capability: "add_user", Tag: "ausr", ListID: 11})
	d.UnlockExclusive()
	d.LockShared()
	defer d.UnlockShared()
	if !CheckCapability(d, "add_user", 1) {
		t.Error("alice (via inner in outer) should hold add_user")
	}
	if CheckCapability(d, "add_user", 3) {
		t.Error("carol should not hold add_user")
	}
	if CheckCapability(d, "no_such_query", 1) {
		t.Error("missing capability should grant no one")
	}
}

func TestExpandMembers(t *testing.T) {
	d := buildDB(t)
	d.LockExclusive()
	if err := d.AddMember(11, db.ACEString, 77); err != nil {
		t.Fatal(err)
	}
	d.UnlockExclusive()
	d.LockShared()
	defer d.UnlockShared()
	got := ExpandMembers(d, 11)
	// bob (USER 2), alice via inner (USER 1), string 77. No list entries.
	if len(got) != 3 {
		t.Fatalf("ExpandMembers = %v", got)
	}
	for _, m := range got {
		if m.MemberType == db.ACEList {
			t.Errorf("expansion contains a LIST member: %v", m)
		}
	}
	// Cyclic expansion terminates and is empty.
	if got := ExpandMembers(d, 12); len(got) != 0 {
		t.Errorf("cyclic expansion = %v", got)
	}
}

// Property: ExpandMembers never yields LIST members, never duplicates,
// and always terminates on randomly wired (possibly cyclic) graphs.
func TestPropertyExpandMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		d := db.New(nil)
		d.LockExclusive()
		const nLists = 12
		const nUsers = 8
		for i := 1; i <= nUsers; i++ {
			if err := db.Users.Insert(d, &db.User{UsersID: i, Login: fmt.Sprintf("u%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i <= nLists; i++ {
			if err := db.Lists.Insert(d, &db.List{ListID: 100 + i, Name: fmt.Sprintf("l%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Random edges, cycles welcome.
		for e := 0; e < 40; e++ {
			list := 100 + 1 + rng.Intn(nLists)
			if rng.Intn(2) == 0 {
				d.AddMember(list, db.ACEUser, 1+rng.Intn(nUsers))
			} else {
				d.AddMember(list, db.ACEList, 100+1+rng.Intn(nLists))
			}
		}
		d.UnlockExclusive()

		d.LockShared()
		for i := 1; i <= nLists; i++ {
			got := ExpandMembers(d, 100+i)
			seen := map[db.Member]bool{}
			for _, m := range got {
				if m.MemberType == db.ACEList {
					t.Fatalf("expansion contains LIST member: %+v", m)
				}
				key := db.Member{MemberType: m.MemberType, MemberID: m.MemberID}
				if seen[key] {
					t.Fatalf("duplicate member: %+v", m)
				}
				seen[key] = true
			}
			// Cross-check: every expanded user satisfies IsUserInList.
			for _, m := range got {
				if m.MemberType == db.ACEUser && !IsUserInList(d, 100+i, m.MemberID) {
					t.Fatalf("expansion/membership disagree on user %d in list %d", m.MemberID, 100+i)
				}
			}
		}
		d.UnlockShared()
	}
}
