package queries

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/mrerr"
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

// TestFreezeCostIndependentOfPopulation: every mutating handle, and the
// Reader() after it, costs the pages the mutation touched, so the
// transition allocates no more at 50,000 users than at 2,000 (10%
// slack). The steps are one scripted round of the snapshot oracle,
// which reaches every mutating handle; each is measured once at each
// size, and a handle's cost is its dearest step. The ceilings are the
// counts measured at 50,000 users, bytes rounded up to the next 512.
func TestFreezeCostIndependentOfPopulation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("populates 50,000 users")
	}
	type cost struct{ bytes, objects float64 }
	transition := func(users int) map[string]cost {
		d, cx := populated(t, users)
		o := &snapOracle{t: t, d: d, cx: cx, rng: rand.New(rand.NewSource(1)), hit: map[string]int{}, uidBase: 1 << 20}
		o.logins, _ = residents(d, 1)
		cx.TriggerDCM = func(string) {}
		d.Reader() // the first Reader() copies every page
		costs := map[string]cost{}
		// A collection mid-step would empty the request pools and charge
		// that step their refill.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for _, s := range o.round(0) {
			b, n := perRun(1, func() {
				if err := Execute(cx, s.name, s.args, discard); err != nil {
					t.Fatalf("%s(%v): %v", s.name, s.args, err)
				}
				d.Reader()
			})
			c := costs[s.name]
			costs[s.name] = cost{max(c.bytes, b), max(c.objects, n)}
		}
		return costs
	}
	small, large := transition(2000), transition(50000)
	names := make([]string, 0, len(large))
	for name := range large {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, q := range All() {
		if _, ok := large[q.Name]; q.Kind != Retrieve && !ok {
			t.Errorf("mutating handle %s is not measured", q.Name)
		}
	}
	for _, name := range names {
		s, l := small[name], large[name]
		t.Logf("%-28s %9.0f B %6.0f obj at 2,000 users; %9.0f B %6.0f obj at 50,000", name, s.bytes, s.objects, l.bytes, l.objects)
		if l.bytes > 1.1*s.bytes || l.objects > 1.1*s.objects {
			t.Errorf("%s: the transition grows with population: %.0f B/%.0f objects at 2,000 users, %.0f B/%.0f at 50,000", name, s.bytes, s.objects, l.bytes, l.objects)
		}
		ceil, ok := freezeCeilings[name]
		if !ok {
			t.Errorf("%s has no ceiling; measured %.0f B, %.0f objects at 50,000 users", name, l.bytes, l.objects)
			continue
		}
		if l.bytes > ceil.bytes || l.objects > ceil.objects {
			t.Errorf("%s: the transition costs %.0f B and %.0f objects at 50,000 users; ceilings are %.0f B and %.0f", name, l.bytes, l.objects, ceil.bytes, ceil.objects)
		}
	}
}

// freezeCeilings bounds each mutating handle's write→read transition at
// 50,000 users (see TestFreezeCostIndependentOfPopulation).
var freezeCeilings = map[string]struct{ bytes, objects float64 }{
	"add_alias":                   {9216, 17},
	"add_cluster":                 {10752, 22},
	"add_cluster_data":            {8704, 18},
	"add_filesys":                 {10752, 21},
	"add_list":                    {10752, 21},
	"add_machine":                 {11264, 23},
	"add_machine_to_cluster":      {12288, 25},
	"add_member_to_list":          {15360, 35},
	"add_nfs_quota":               {12288, 25},
	"add_nfsphys":                 {8704, 17},
	"add_printcap":                {9216, 17},
	"add_server_host_access":      {8704, 16},
	"add_server_host_info":        {9216, 17},
	"add_server_info":             {9216, 18},
	"add_service":                 {8704, 17},
	"add_user":                    {12288, 27},
	"add_value":                   {9216, 17},
	"add_zephyr_class":            {9216, 17},
	"adjust_nfsphys_allocation":   {7168, 13},
	"delete_alias":                {8704, 15},
	"delete_cluster":              {8704, 14},
	"delete_cluster_data":         {8704, 17},
	"delete_filesys":              {15360, 32},
	"delete_list":                 {10752, 22},
	"delete_machine":              {8704, 18},
	"delete_machine_from_cluster": {11264, 22},
	"delete_member_from_list":     {10752, 22},
	"delete_nfs_quota":            {12288, 24},
	"delete_nfsphys":              {7168, 12},
	"delete_pobox":                {7680, 13},
	"delete_printcap":             {8704, 15},
	"delete_server_host_access":   {5632, 10},
	"delete_server_host_info":     {8704, 16},
	"delete_server_info":          {8704, 15},
	"delete_service":              {8704, 15},
	"delete_user":                 {10240, 19},
	"delete_user_by_uid":          {10240, 19},
	"delete_value":                {8704, 15},
	"delete_zephyr_class":         {8704, 15},
	"register_user":               {31232, 76},
	"reset_server_error":          {7680, 13},
	"reset_server_host_error":     {7168, 13},
	"set_pobox":                   {12288, 25},
	"set_pobox_pop":               {7680, 13},
	"set_server_host_internal":    {7168, 13},
	"set_server_host_override":    {7168, 13},
	"set_server_internal_flags":   {7680, 13},
	"trigger_dcm":                 {0, 0},
	"update_cluster":              {10752, 19},
	"update_filesys":              {10752, 19},
	"update_finger_by_login":      {7680, 13},
	"update_list":                 {13824, 24},
	"update_machine":              {10240, 19},
	"update_nfs_quota":            {9216, 18},
	"update_nfsphys":              {7168, 13},
	"update_server_host_access":   {7168, 13},
	"update_server_host_info":     {7168, 13},
	"update_server_info":          {7680, 13},
	"update_user":                 {10752, 19},
	"update_user_shell":           {7680, 13},
	"update_user_status":          {7680, 13},
	"update_value":                {7168, 13},
	"update_zephyr_class":         {11776, 21},
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

// TestNotUniqueArgumentAllocsIndependentOfPopulation: an argument that
// must name one row stops resolving at the second match, so
// update_user_shell with the login '*' allocates the same before it
// fails (login() answers MR_USER for any count but one) at 200 users as
// at 20,000.
func TestNotUniqueArgumentAllocsIndependentOfPopulation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	type cost struct{ bytes, objects float64 }
	measure := func(users int) cost {
		_, cx := populated(t, users)
		call := func() {
			if err := Execute(cx, "update_user_shell", []string{"*", "/bin/sh"}, discard); err != mrerr.MrUser {
				t.Fatalf("update_user_shell '*' at %d users: %v, want MR_USER", users, err)
			}
		}
		call() // build the ordered-name cache and fill the request pools
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		b, n := perRun(1000, call)
		return cost{b, n}
	}
	small, large := measure(200), measure(20000)
	t.Logf("%.0f B %.1f objects at 200 users; %.0f B %.1f objects at 20,000", small.bytes, small.objects, large.bytes, large.objects)
	// A stray runtime allocation during the runs moves the byte average
	// by a few bytes; the collecting resolver it guards against cost
	// 16 B a user.
	if math.Round(large.objects) != math.Round(small.objects) || math.Abs(large.bytes-small.bytes) >= 16 {
		t.Errorf("resolving a not-unique login allocates %.0f B/%.1f objects at 20,000 users, %.0f B/%.1f at 200",
			large.bytes, large.objects, small.bytes, small.objects)
	}
}
