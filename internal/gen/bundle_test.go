package gen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"moira/internal/db"
	"moira/internal/extract"
	"moira/internal/queries"
	"moira/internal/update"
)

// TestBundleEditsMakeTheBundle: across randomized mutations and planner
// passes, with services skipping rounds so a Scratch's last render falls
// behind its model, every bundle FromModelInto renders carries its sum
// and its member names, and its edits make it byte for byte from the
// bundle the same Scratch rendered last under its key when they name
// that bundle's sum as their base; otherwise the base is the empty file
// and the edit is the whole bundle. Edits must be the common case.
func TestBundleEditsMakeTheBundle(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runBundleEdits(t, seed) })
	}
}

func runBundleEdits(t *testing.T, seed int64) {
	d, _ := popDB(t, 150)
	planner := extract.NewPlanner(d)
	priv := &queries.Context{DB: d, Privileged: true, App: "edits"}
	rng := rand.New(rand.NewSource(seed))
	run := func(name string, args ...string) error {
		return queries.Execute(priv, name, args, func([]string) error { return nil })
	}

	services := make([]string, 0, len(Incrementals))
	for name := range Incrementals {
		services = append(services, name)
	}
	sort.Strings(services)
	scratch := map[string]*Scratch{}
	last := map[string][]byte{} // service/key -> a copy of the last bundle rendered
	var edited, changed, whole int
	render := func(svc string) {
		t.Helper()
		m, plan, err := planner.Run(svc, Incrementals[svc], d.Reader())
		if err != nil {
			t.Fatal(err)
		}
		d.LockExclusive()
		planner.Commit(svc, plan)
		d.UnlockExclusive()
		if scratch[svc] == nil {
			scratch[svc] = NewScratch()
		}
		res, err := FromModelInto(m, scratch[svc])
		if err != nil {
			t.Fatal(err)
		}
		for key, b := range res.Bundles {
			if b.Sum != sha256.Sum256(b.Data) {
				t.Fatalf("%s %q: bundle's sum is not its bytes'", svc, key)
			}
			bundleMembers(t, b)
			prev, ok := last[svc+"/"+key]
			switch {
			case ok && b.Base == sha256.Sum256(prev):
				var got []byte
				at := 0
				for _, e := range b.Edits {
					if e.Off < at || e.Off+e.Len > len(prev) {
						t.Fatalf("%s %q: edit %d+%d out of order or past the %d-byte base", svc, key, e.Off, e.Len, len(prev))
					}
					got = append(append(got, prev[at:e.Off]...), e.Data...)
					at = e.Off + e.Len
				}
				if got = append(got, prev[at:]...); !bytes.Equal(got, b.Data) {
					t.Fatalf("%s %q: base + %d edits is %d bytes, not the %d-byte bundle", svc, key, len(b.Edits), len(got), len(b.Data))
				}
				edited++
				if len(b.Edits) > 0 {
					changed++
				}
			case len(b.Edits) == 1 && len(b.Edits[0].Data) == len(b.Data) && b.Edits[0].Len == 0:
				whole++
			default:
				t.Fatalf("%s %q: %d edits over a base that is neither the last bundle nor empty", svc, key, len(b.Edits))
			}
			last[svc+"/"+key] = bytes.Clone(b.Data)
		}
	}

	var logins, lists []string
	for round := 0; round < 30; round++ {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch rng.Intn(5) {
			case 0:
				login := fmt.Sprintf("euser%d%03d", seed, round*10+n)
				if run("add_user", login, "-1", "/bin/csh", "Edit", "User", "", "1", "", "STAFF") == nil {
					logins = append(logins, login)
				}
			case 1:
				if len(logins) > 0 {
					run("update_user_shell", logins[rng.Intn(len(logins))], "/bin/sh"+strconv.Itoa(rng.Intn(5)))
				}
			case 2:
				if len(logins) > 0 {
					run("update_user_status", logins[rng.Intn(len(logins))], strconv.Itoa(rng.Intn(2)))
				}
			case 3:
				name := fmt.Sprintf("elist%d%03d", seed, round*10+n)
				if run("add_list", name, "1", "1", "0", "1", "1", "-1", "USER", "root", "Edit List") == nil {
					lists = append(lists, name)
				}
			case 4:
				if len(lists) > 0 && len(logins) > 0 {
					list, login := lists[rng.Intn(len(lists))], logins[rng.Intn(len(logins))]
					if run("add_member_to_list", list, "USER", login) != nil {
						run("delete_member_from_list", list, "USER", login)
					}
				}
			}
		}
		for _, svc := range services {
			if round == 0 || rng.Intn(3) > 0 {
				render(svc)
			}
			if rng.Intn(5) == 0 {
				render(svc) // a second render of the same model: no edits
			}
		}
	}
	if edited < 10*whole || changed < edited/3 {
		t.Errorf("%d bundles rendered as edits (%d changed), %d whole: changing edits should be the common case", edited, changed, whole)
	}
	t.Logf("%d bundles as edits (%d changed), %d whole", edited, changed, whole)
}

// TestZephyrACEChangeShipsEdits: each zephyr ACL file is one model
// entry, which a patch deletes and re-emits with its class's key, so the
// file must keep its version and changes across that. After an ACE
// change the ZEPHYR bundle names the last render's sum as its base and
// carries edits, not the whole bundle.
func TestZephyrACEChangeShipsEdits(t *testing.T) {
	d, _ := popDB(t, 60)
	planner := extract.NewPlanner(d)
	scratch := NewScratch()
	render := func() *update.Bundle {
		t.Helper()
		m, plan, err := planner.Run("ZEPHYR", ZephyrIncremental, d.Reader())
		if err != nil {
			t.Fatal(err)
		}
		d.LockExclusive()
		planner.Commit("ZEPHYR", plan)
		d.UnlockExclusive()
		res, err := FromModelInto(m, scratch)
		if err != nil {
			t.Fatal(err)
		}
		return res.Bundles[""]
	}
	var login string
	d.LockShared()
	d.EachUser(func(u *db.User) bool {
		login = u.Login
		return false
	})
	d.UnlockShared()
	priv := &queries.Context{DB: d, Privileged: true, App: "zephyr-edits"}
	prev := render()
	for _, xmt := range [][]string{{"USER", login}, {"LIST", "zephyr-operators"}} {
		args := append([]string{"CLASS-2", "CLASS-2"}, xmt...)
		args = append(args, "NONE", "NONE", "NONE", "NONE", "NONE", "NONE")
		if err := queries.Execute(priv, "update_zephyr_class", args, func([]string) error { return nil }); err != nil {
			t.Fatal(err)
		}
		b := render()
		if b.Sum == prev.Sum {
			t.Fatalf("xmt %v: the bundle did not change", xmt)
		}
		if b.Base != prev.Sum {
			t.Errorf("xmt %v: the bundle's base is not the last render's sum: it goes whole", xmt)
		}
		edited := 0
		for _, e := range b.Edits {
			edited += len(e.Data)
		}
		if len(b.Edits) == 0 || edited >= len(b.Data) {
			t.Errorf("xmt %v: %d edits carry %d of the bundle's %d bytes", xmt, len(b.Edits), edited, len(b.Data))
		}
		prev = b
	}
}
