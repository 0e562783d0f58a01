package gen

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"moira/internal/db"
	"moira/internal/extract"
	"moira/internal/queries"
)

// TestIncrementalEquivalenceOracle is the equivalence oracle for the
// incremental extract path: across randomized interleavings of database
// mutations and per-service planner passes — services deliberately skip
// rounds so deltas batch up — every incremental model must render
// byte-identical to a from-scratch Build of the same database state,
// and no pass but a cold start may rebuild. The mutation vocabulary
// includes delete_user_by_uid, which the journal-driven planner could
// only answer with a full regeneration.
func TestIncrementalEquivalenceOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOracle(t, seed)
		})
	}
}

func runOracle(t *testing.T, seed int64) {
	d, _ := popDB(t, 120)
	jw, err := db.OpenJournalWriter(t.TempDir(), db.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jw.Close() })
	d.SetJournal(jw)

	planner := extract.NewPlanner(d)
	priv := &queries.Context{DB: d, Privileged: true, App: "oracle"}
	rng := rand.New(rand.NewSource(seed))

	services := make([]string, 0, len(Incrementals))
	for name := range Incrementals {
		services = append(services, name)
	}
	sort.Strings(services)

	var deltas, fulls, fallbacks int
	pass := func(svc string) *extract.Model {
		t.Helper()
		g := Incrementals[svc]
		m, plan, err := planner.Run(svc, g, d.Reader())
		if err != nil {
			t.Fatalf("%s: planner.Run: %v", svc, err)
		}
		d.LockExclusive()
		planner.Commit(svc, plan)
		d.UnlockExclusive()
		switch plan.Mode {
		case extract.ModeDelta:
			deltas++
		case extract.ModeFull:
			fulls++
			if plan.Reason != "cold start" {
				fallbacks++
			}
		}
		return m
	}

	verify := func(round int) {
		t.Helper()
		for _, svc := range services {
			got := pass(svc)
			want, err := Incrementals[svc].Build(d.Reader())
			if err != nil {
				t.Fatalf("%s: oracle build: %v", svc, err)
			}
			gotFiles, wantFiles := got.Files(), want.Files()
			if len(gotFiles) != len(wantFiles) {
				t.Fatalf("round %d %s: %d files, oracle has %d",
					round, svc, len(gotFiles), len(wantFiles))
			}
			for name, wantData := range wantFiles {
				gotData, ok := gotFiles[name]
				if !ok {
					t.Fatalf("round %d %s: file %s missing from incremental model", round, svc, name)
				}
				if !bytes.Equal(gotData, wantData) {
					t.Fatalf("round %d %s: %s diverged (%d vs %d bytes)\nincremental:\n%.400s\noracle:\n%.400s",
						round, svc, name, len(gotData), len(wantData), gotData, wantData)
				}
			}
		}
	}

	run := func(name string, args ...string) {
		t.Helper()
		if err := queries.Execute(priv, name, args, func([]string) error { return nil }); err != nil {
			t.Fatalf("%s %v: %v", name, args, err)
		}
	}

	// Entities the mutator owns. The workload's own population is the
	// static backdrop; the churn happens on these.
	var logins []string
	var lists []string
	var classes []string
	nextID := 0

	mutations := []func(){
		func() { // add a user
			nextID++
			login := fmt.Sprintf("ouser%04d", nextID)
			run("add_user", login, "-1", "/bin/csh", "Oracle", "User", "", "1", "", "STAFF")
			logins = append(logins, login)
		},
		func() { // change a shell
			if len(logins) == 0 {
				return
			}
			run("update_user_shell", logins[rng.Intn(len(logins))], "/bin/sh"+strconv.Itoa(rng.Intn(5)))
		},
		func() { // flip a status (deactivated users drop out of extracts)
			if len(logins) == 0 {
				return
			}
			run("update_user_status", logins[rng.Intn(len(logins))], strconv.Itoa(rng.Intn(2)))
		},
		func() { // add a list
			nextID++
			name := fmt.Sprintf("olist%04d", nextID)
			run("add_list", name, "1", "1", "0", "1", "0", "0", "USER", "root", "Oracle List")
			lists = append(lists, name)
		},
		func() { // membership churn
			if len(lists) == 0 || len(logins) == 0 {
				return
			}
			list := lists[rng.Intn(len(lists))]
			login := logins[rng.Intn(len(logins))]
			if err := queries.Execute(priv, "add_member_to_list",
				[]string{list, "USER", login}, func([]string) error { return nil }); err != nil {
				// Already a member: drop them instead.
				run("delete_member_from_list", list, "USER", login)
			}
		},
		func() { // zephyr class churn
			if len(classes) < 3 {
				nextID++
				name := fmt.Sprintf("OCLASS%04d", nextID)
				run("add_zephyr_class", name, "LIST", queries.AdminList,
					"NONE", "NONE", "NONE", "NONE", "NONE", "NONE")
				classes = append(classes, name)
				return
			}
			run("delete_zephyr_class", classes[0])
			classes = classes[1:]
		},
		func() { // delete a user by uid
			if len(logins) == 0 {
				return
			}
			login := logins[len(logins)-1]
			d.LockShared()
			u, ok := d.UserByLogin(login)
			d.UnlockShared()
			if !ok {
				return
			}
			if err := queries.Execute(priv, "delete_user_by_uid",
				[]string{strconv.Itoa(u.UID)}, func([]string) error { return nil }); err != nil {
				return // still referenced somewhere; fine
			}
			logins = logins[:len(logins)-1]
		},
	}

	verify(0) // cold-start builds for every service

	for round := 1; round <= 25; round++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			mutations[rng.Intn(len(mutations))]()
		}
		// An interleaved subset of services passes this round; the rest
		// accumulate backlog and consume several rounds' records at once.
		for _, svc := range services {
			if rng.Intn(2) == 0 {
				pass(svc)
			}
		}
		if round%5 == 0 {
			verify(round)
		}
	}
	verify(26)

	if deltas == 0 {
		t.Error("oracle never took a delta pass; the interleaving is broken")
	}
	if fallbacks != 0 {
		t.Errorf("%d full passes besides the cold starts", fallbacks)
	}
	t.Logf("seed done: %d deltas, %d fulls (%d fallbacks)", deltas, fulls, fallbacks)
}
