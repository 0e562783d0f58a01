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
	err := d.InsertUser(&User{UsersID: 101, Login: "joe", UID: 7001})
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
	if r.NumUsers() != 2 {
		t.Fatalf("restored %d users, want both rows", r.NumUsers())
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
		if err := d.InsertUser(u); err != nil {
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
