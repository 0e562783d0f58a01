package db_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/queries"
	"moira/internal/workload"
)

// The backup format is the disaster-recovery contract (section 5.2.2):
// a dump written today must load anywhere the format was ever read, and
// two dumps of one state must be byte-identical. The golden files were
// recorded once, from the dump code as it stood before relations were
// declared in one list, and are never re-recorded: a difference is a
// format change, not a test to update.
//
//   - backup_populate.golden is the whole dump, table by table, of the
//     small full-coverage population plus rows carrying every escape the
//     format has (colon, backslash, newline, DEL), a negative integer
//     and an int64 time.
//   - backup_workload.golden is the SHA-256 and row count of every table
//     of a seeded 300-user synthetic population.
func TestBackupMatchesGolden(t *testing.T) {
	t.Run("populate", func(t *testing.T) {
		d := db.New(clock.NewFake(time.Unix(600000000, 0)))
		db.PopulateForTest(t, d)
		addAwkwardRows(t, d)
		var got bytes.Buffer
		eachTableDump(t, d, func(name string, dump []byte) {
			fmt.Fprintf(&got, "== %s\n", name)
			got.Write(dump)
		})
		compareGolden(t, "backup_populate.golden", got.Bytes())

		// A dump only reads: two at once under the shared lock agree, and
		// the race detector sees no write.
		var dumps [2]bytes.Buffer
		var wg sync.WaitGroup
		for i := range dumps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.LockShared()
				defer d.UnlockShared()
				for _, name := range db.AllTables {
					if err := d.DumpTable(name, &dumps[i]); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		if dumps[0].Len() == 0 || !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
			t.Error("concurrent dumps differ")
		}
	})
	t.Run("workload", func(t *testing.T) {
		d := queries.NewBootstrappedDB(clock.NewFake(time.Unix(600000000, 0)))
		if _, _, err := workload.Populate(d, workload.Scaled(300)); err != nil {
			t.Fatal(err)
		}
		// The synthetic population leaves host access empty; one row makes
		// the sums cover every relation.
		d.LockExclusive()
		err := db.HostAccesses.Insert(d, &db.HostAccess{MachID: 1, ACLType: db.ACENone})
		d.UnlockExclusive()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		eachTableDump(t, d, func(name string, dump []byte) {
			if len(dump) == 0 {
				t.Errorf("table %s is empty: the sums must cover every relation", name)
			}
			fmt.Fprintf(&got, "%s %x %d\n", name, sha256.Sum256(dump), bytes.Count(dump, []byte("\n")))
		})
		compareGolden(t, "backup_workload.golden", got.Bytes())
	})
}

// addAwkwardRows adds rows whose fields need every escape of the format
// and integers of both signs and widths.
func addAwkwardRows(t *testing.T, d *db.DB) {
	t.Helper()
	d.LockExclusive()
	defer d.UnlockExclusive()
	big := db.ModInfo{Time: 1 << 40, By: "op:er\\ator", With: "tab\there"}
	if err := db.Users.Insert(d, &db.User{UsersID: 900, Login: "del\x7fuser", UID: -2, Shell: "/bin/a:b",
		Status: db.UserDeleted, Mod: big, FMod: big, PMod: big, PoType: db.PoboxSMTP, BoxID: 7,
		Nickname: "line\none\r\x00"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Machines.Insert(d, &db.Machine{MachID: 901, Name: "A:B\\C", Type: "\x7f", Mod: big}); err != nil {
		t.Fatal(err)
	}
	if err := db.Servers.Insert(d, &db.Server{Name: "NEG", UpdateInt: -30, DFGen: -1 << 40, DFCheck: 1<<62 + 3,
		HardError: -7, ErrMsg: "failed: \\ twice\n", Mod: big}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InternString("a:b\\c\nd\x7f"); err != nil {
		t.Fatal(err)
	}
	if err := db.Aliases.Insert(d, &db.Alias{Name: "x:y", Type: "TYPE", Trans: "back\\slash"}); err != nil {
		t.Fatal(err)
	}
	d.SetValue("neg:value", -42)
}

// eachTableDump dumps every relation in backup order.
func eachTableDump(t *testing.T, d *db.DB, fn func(name string, dump []byte)) {
	t.Helper()
	d.LockShared()
	defer d.UnlockShared()
	for _, name := range db.AllTables {
		var b bytes.Buffer
		if err := d.DumpTable(name, &b); err != nil {
			t.Fatal(err)
		}
		fn(name, b.Bytes())
	}
}

func compareGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs at line %d:\n got  %q\n want %q", file, i+1, g, w)
		}
	}
}
