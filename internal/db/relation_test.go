package db

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFsckFindsDuplicateNames: a restore installs rows as the dump has
// them, so a dump carrying two users rows with one login loads; fsck
// must then report the login filed under both rows, since a probe by it
// reaches only one of them.
func TestFsckFindsDuplicateNames(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	err := Users.Insert(d, &User{UsersID: 101, Login: "joe", UID: 7001})
	d.UnlockExclusive()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.Backup(dir); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, TUsers)
	users, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	twin := bytes.Replace(users, []byte("101:joe:7001:"), []byte("102:joe:7002:"), 1)
	if bytes.Equal(twin, users) {
		t.Fatalf("users dump %q does not start with the row written", users)
	}
	if err := os.WriteFile(file, append(users, twin...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.users.rows.len() != 2 {
		t.Fatalf("restored %d users, want both rows", r.users.rows.len())
	}
	found := false
	for _, inc := range r.Fsck() {
		if inc.Table == TUsers && inc.Item == "joe" && strings.Contains(inc.Problem, "more than one row") {
			found = true
		}
	}
	if !found {
		t.Errorf("fsck findings %v do not report login joe filed under two rows", r.Fsck())
	}
}

// TestDumpAllocsPerRow: the dump writes each row's fields straight into
// its buffered writer, so what it allocates does not grow with the rows
// it writes.
func TestDumpAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const users = 10000
	d := testDB()
	d.LockExclusive()
	for i := 0; i < users; i++ {
		mod := ModInfo{Time: int64(600000000 + i), By: "root", With: "test"}
		u := &User{UsersID: 100 + i, Login: fmt.Sprintf("user%d", i), UID: 6500 + i, Shell: "/bin/csh",
			Last: "Fowler", First: "Harmon", Middle: "C", Status: UserActive, MITYear: "1990",
			Fullname: "Harmon C Fowler", HomeAddr: "colon: back\\slash", PoType: PoboxPOP,
			Mod: mod, FMod: mod, PMod: mod}
		if err := Users.Insert(d, u); err != nil {
			t.Fatal(err)
		}
	}
	d.UnlockExclusive()
	d.LockShared()
	defer d.UnlockShared()
	allocs := testing.AllocsPerRun(3, func() {
		if err := d.DumpTable(TUsers, io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / users; perRow >= 1 {
		t.Errorf("DumpTable(users) allocates %.0f objects for %d rows (%.2f a row), want under 1 a row", allocs, users, perRow)
	}
}

// TestLookupTallyPerOperation: every operation of the relation handles
// records its shape in the lookup tallies exactly once: a probe of an
// index is one point, a wildcard pattern one range, a walk of every row
// one scan, however many rows each visits; Insert and Upsert record the
// lookup that checks for the row, and an operation handed its row
// records nothing.
func TestLookupTallyPerOperation(t *testing.T) {
	d := testDB()
	populate(t, d)
	d.LockExclusive()
	defer d.UnlockExclusive()
	u, _ := Users.Get(d, "babette")
	m, _ := Machines.Get(d, "BITSY.MIT.EDU")
	f, _ := Filesystems.Get(d, "babette")
	extra := &NFSQuota{UsersID: u.UsersID + 2, FilsysID: f.FilsysID}
	if err := Quotas.Insert(d, extra); err != nil {
		t.Fatal(err)
	}
	all := func(*User) bool { return true }
	for _, c := range []struct {
		op   string
		want string // point, range, scan, or none
		run  func()
	}{
		{"Users.Get", "point", func() { Users.Get(d, "babette") }},
		{"Users.Get missing", "point", func() { Users.Get(d, "nobody") }},
		{"Users.ByID", "point", func() { Users.ByID(d, u.UsersID) }},
		{"Users.Under", "point", func() { Users.Under(d, "babette", all) }},
		{"Users.Find", "point", func() { Users.Find(d, "babette", all) }},
		{"Users.Match exact", "point", func() { Users.Match(d, "babette", all) }},
		{"Users.Match wildcard", "range", func() { Users.Match(d, "*", all) }},
		{"Users.Each", "scan", func() { Users.Each(d, all) }},
		{"Users.First", "scan", func() { Users.First(d, func(*User) bool { return false }) }},
		{"Users.Resolve exact", "point", func() { Users.Resolve(d, "babette", false) }},
		{"Users.Resolve pattern", "range", func() { Users.Resolve(d, "*", true) }},
		{"Filesystems.Resolve label", "point", func() { Filesystems.Resolve(d, "*", true) }},
		{"Filesystems.Under", "point", func() { Filesystems.Under(d, "babette", func(*Filesys) bool { return true }) }},
		{"ServerHosts.Find", "point", func() {
			ServerHosts.Find(d, "HESIOD", func(sh *ServerHost) bool { return sh.MachID == m.MachID })
		}},
		{"Servers.Match wildcard", "range", func() { Servers.Match(d, "H*", func(*Server) bool { return true }) }},
		{"ZephyrClasses.Match wildcard", "range", func() { ZephyrClasses.Match(d, "M*", func(*ZephyrClass) bool { return true }) }},
		{"Servers.Each", "scan", func() { Servers.Each(d, func(*Server) bool { return true }) }},
		{"Quotas.Each", "scan", func() { Quotas.Each(d, func(*NFSQuota) bool { return true }) }},
		{"UsersByUID.Each", "point", func() { UsersByUID.Each(d, u.UID, all) }},
		{"MCMapsByMachine.Each", "point", func() { MCMapsByMachine.Each(d, m.MachID, func(*MCMap) bool { return true }) }},
		{"QuotasByFilesys.Find", "point", func() {
			QuotasByFilesys.Find(d, f.FilsysID, func(q *NFSQuota) bool { return q.UsersID == u.UsersID })
		}},
		{"UserByLogin", "point", func() { d.UserByLogin("babette") }},
		{"ListByName", "point", func() { d.ListByName("video-users") }},
		{"EachUser", "scan", func() { d.EachUser(all) }},
		{"EachList", "scan", func() { d.EachList(func(*List) bool { return true }) }},
		{"IsValidType", "point", func() { d.IsValidType("mach_type", "VAX") }},
		{"InternString", "point", func() { d.InternString("rubin@media-lab.mit.edu") }},
		{"Users.Insert taken", "point", func() { Users.Insert(d, &User{UsersID: u.UsersID, Login: "x"}) }},
		{"MCMaps.Insert taken", "point", func() { MCMaps.Insert(d, &MCMap{MachID: m.MachID, CluID: 1}) }},
		{"Quotas.Insert", "point", func() { Quotas.Insert(d, &NFSQuota{UsersID: u.UsersID + 1, FilsysID: f.FilsysID}) }},
		{"Svc.Insert", "scan", func() { Svc.Insert(d, &SvcData{CluID: 1, ServLabel: "lpr", ServCluster: "x"}) }},
		{"Aliases.Insert", "point", func() { Aliases.Insert(d, &Alias{Name: "a", Type: "TYPE", Trans: "b"}) }},
		{"Aliases.Find", "point", func() { Aliases.Find(d, "a", func(a *Alias) bool { return a.Trans == "b" }) }},
		{"Partitions.Insert", "scan", func() { Partitions.Insert(d, &NFSPhys{NFSPhysID: 999, MachID: m.MachID, Dir: "/u9"}) }},
		{"CapACLs.Upsert", "point", func() { CapACLs.Upsert(d, &CapACL{Capability: "get_user_by_uid", Tag: "gubu"}) }},
		{"Edit", "none", func() { u = Edit(d, Users, u) }},
		{"SetKey", "none", func() { SetKey(d, Users, u, &u.Shell, "/bin/sh") }},
		{"NoteUpdate", "none", func() { d.NoteUpdate(u) }},
		{"Quotas.Delete", "none", func() { Quotas.Delete(d, extra) }},
	} {
		p0, r0, s0 := d.LookupStats()
		c.run()
		p1, r1, s1 := d.LookupStats()
		got := map[string]int64{"point": p1 - p0, "range": r1 - r0, "scan": s1 - s0}
		want := map[string]int64{"point": 0, "range": 0, "scan": 0}
		if c.want != "none" {
			want[c.want] = 1
		}
		if got["point"] != want["point"] || got["range"] != want["range"] || got["scan"] != want["scan"] {
			t.Errorf("%s: tallied %v, want %v", c.op, got, want)
		}
	}
}
