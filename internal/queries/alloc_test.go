package queries

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/workload"
)

// Allocation ceilings for the request path and for the write→read
// transition (the ROADMAP's "allocs/op ceilings enforced in CI" gate).
// They are counts, not times, so they repeat exactly on any machine.

func populated(t testing.TB, users int) (*db.DB, *Context) {
	t.Helper()
	d := NewBootstrappedDB(clock.NewFake(time.Unix(600000000, 0)))
	if _, _, err := workload.Populate(d, workload.Scaled(users)); err != nil {
		t.Fatal(err)
	}
	return d, &Context{DB: d, Privileged: true, App: "alloc"}
}

func discard([]string) error { return nil }

// residents returns every stride-th login and uid of the population.
func residents(d *db.DB, stride int) (logins, uids []string) {
	i := 0
	d.LockShared()
	defer d.UnlockShared()
	d.EachUser(func(u *db.User) bool {
		if i++; i%stride == 0 {
			logins = append(logins, u.Login)
			uids = append(uids, strconv.Itoa(u.UID))
		}
		return true
	})
	return logins, uids
}

// perRun reports the heap bytes and objects one call of fn allocates,
// averaged over runs calls. It does not warm fn up.
func perRun(runs int, fn func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs), float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}

// TestFreezeCostIndependentOfPopulation: one update_user_shell and the
// Reader() after it cost one page of user rows plus the small relations
// every write dirties, at 2,000 users and at 50,000 alike. Before
// snapshots were page-granular this transition copied the relation:
// 26.5 MB and 100,000 objects at 50,000 users.
func TestFreezeCostIndependentOfPopulation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("populates 50,000 users")
	}
	const (
		ceilBytes   = 48 << 10
		ceilObjects = 60
	)
	transition := func(users int) (bytes, objects float64) {
		d, cx := populated(t, users)
		logins, _ := residents(d, users/97+1)
		i := 0
		step := func() {
			i++
			if err := Execute(cx, "update_user_shell", []string{logins[i%len(logins)], "/bin/sh" + strconv.Itoa(i)}, discard); err != nil {
				t.Fatal(err)
			}
			d.Reader()
		}
		step() // the first Reader() copies everything
		return perRun(len(logins), step)
	}
	smallB, smallN := transition(2000)
	largeB, largeN := transition(50000)
	t.Logf("write→read transition: %.0f B, %.1f objects at 2,000 users; %.0f B, %.1f objects at 50,000", smallB, smallN, largeB, largeN)
	if largeB > 2*smallB || largeN > 2*smallN {
		t.Errorf("transition cost grows with population: %.0f B/%.1f objects at 2,000 users, %.0f B/%.1f at 50,000", smallB, smallN, largeB, largeN)
	}
	if largeB > ceilBytes || largeN > ceilObjects {
		t.Errorf("transition costs %.0f B and %.1f objects at 50,000 users; ceilings are %d B and %d", largeB, largeN, ceilBytes, ceilObjects)
	}
}

// TestPointQueryAllocCeilings pins what one call of each handle the
// benchmark drives allocates on a clean snapshot, dispatcher and tuple
// rendering included: the storage lookups under the point reads
// allocate nothing, and a call renders all its integer columns into one
// string and its tuples into one []string. The ceilings are the
// measured counts.
func TestPointQueryAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d, cx := populated(t, 2000)
	logins, uids := residents(d, 41)
	var lists []string
	d.LockShared()
	d.EachList(func(l *db.List) bool {
		if l.Maillist && !l.Hidden {
			lists = append(lists, l.Name)
		}
		return true
	})
	d.UnlockShared()
	shells := []string{"/bin/sh", "/bin/csh"}
	var adds [][]string
	for i := 0; i < 256; i++ {
		adds = append(adds, []string{"alloc" + strconv.Itoa(i), UniqueUID, "/bin/csh", "Alloc", "Test", "", "1", "", "STAFF"})
	}
	d.Reader()
	for _, tc := range []struct {
		handle string
		args   func(i int) []string
		ceil   float64
	}{
		{"get_user_by_login", func(i int) []string { return logins[i%len(logins):][:1] }, 2},
		{"get_user_by_uid", func(i int) []string { return uids[i%len(uids):][:1] }, 4},
		{"get_list_info", func(i int) []string { return logins[i%len(logins):][:1] }, 3},
		{"get_user_by_login", func(i int) []string { return []string{logins[i%len(logins)][:3] + "*"} }, 3},
		{"get_members_of_list", func(i int) []string { return lists[i%len(lists):][:1] }, 2},
		{"get_lists_of_member", func(i int) []string { return []string{"USER", logins[i%len(logins)]} }, 3},
		{"update_user_shell", func(i int) []string { return []string{logins[i%len(logins)], shells[i%2]} }, 1},
		{"update_user_status", func(i int) []string { return []string{logins[i%len(logins)], "1"} }, 1},
		{"add_user", func(i int) []string { return adds[i%len(adds)] }, 3},
	} {
		vecs := make([][]string, 256)
		for i := range vecs {
			vecs[i] = tc.args(i)
		}
		i := 0
		got := testing.AllocsPerRun(200, func() {
			i++
			if err := Execute(cx, tc.handle, vecs[i%len(vecs)], discard); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s %q: %.1f allocs/op", tc.handle, vecs[0], got)
		if got > tc.ceil {
			t.Errorf("%s allocates %.1f objects per call, ceiling %.0f", tc.handle, got, tc.ceil)
		}
	}
}

// TestWildcardAfterRowUpdateReusesNameCache: a row-only update moves no
// key, so the next snapshot shares the previous generation's sorted
// login cache; a wildcard read after update_user_shell must cost what
// it costs on a clean snapshot, not a re-sort of every login.
func TestWildcardAfterRowUpdateReusesNameCache(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d, cx := populated(t, 5000)
	logins, _ := residents(d, 977)
	read := func() {
		if err := Execute(cx, "get_user_by_login", []string{logins[0][:2] + "*"}, discard); err != nil {
			t.Fatal(err)
		}
	}
	read() // builds the sorted login cache once
	clean, _ := perRun(20, read)
	for i, login := range logins {
		if err := Execute(cx, "update_user_shell", []string{login, "/bin/sh" + strconv.Itoa(i)}, discard); err != nil {
			t.Fatal(err)
		}
		d.Reader() // the transition itself is TestFreezeCost's business
		if got, _ := perRun(1, read); got > clean*1.05+512 {
			t.Fatalf("wildcard read after a shell update allocated %.0f B; on a clean snapshot it allocates %.0f B", got, clean)
		}
	}
}
