package gen

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"moira/internal/extract"
	"moira/internal/queries"
)

// TestDeltaPassAllocsIndependentOfHistory: a pass diffs the snapshot
// each service last generated from against the current one, so what a
// 10-change pass allocates — the snapshot, the diff, the patch and the
// render — is the same after 1,000 earlier passes as after 10. A
// planner that re-read the changes since some fixed point, or a model
// that kept what earlier passes replaced, would grow here.
func TestDeltaPassAllocsIndependentOfHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	d, _ := popDB(t, 200)
	priv := &queries.Context{DB: d, Privileged: true, App: "test"}
	var logins []string
	for i := 0; i < 10; i++ {
		login := fmt.Sprintf("hist%02d", i)
		if err := queries.Execute(priv, "add_user",
			[]string{login, "-1", "/bin/csh", "History", "User", "", "1", "", "STAFF"},
			func([]string) error { return nil }); err != nil {
			t.Fatal(err)
		}
		logins = append(logins, login)
	}
	services := make([]string, 0, len(Incrementals))
	for name := range Incrementals {
		services = append(services, name)
	}
	sort.Strings(services)
	p := extract.NewPlanner(d)
	scratch := map[string]*Scratch{}
	for _, svc := range services {
		scratch[svc] = NewScratch()
	}

	passes := 0
	// pass makes 10 changes, then runs and renders every service,
	// returning the bytes the pass itself allocated.
	pass := func() uint64 {
		t.Helper()
		passes++
		for _, login := range logins {
			shell := fmt.Sprintf("/bin/sh%d", passes%7)
			if err := queries.Execute(priv, "update_user_shell", []string{login, shell},
				func([]string) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap := d.Reader()
		for _, svc := range services {
			m, plan, err := p.Run(svc, Incrementals[svc], snap)
			if err != nil {
				t.Fatal(err)
			}
			if passes > 1 && plan.Mode == extract.ModeFull {
				t.Fatalf("pass %d: %s rebuilt (%s)", passes, svc, plan.Reason)
			}
			if _, err := FromModelInto(m, scratch[svc]); err != nil {
				t.Fatal(err)
			}
			d.LockExclusive()
			p.Commit(svc, plan)
			d.UnlockExclusive()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	measure := func() float64 {
		const n = 20
		var total uint64
		for i := 0; i < n; i++ {
			total += pass()
		}
		return float64(total) / n
	}

	for passes < 10 {
		pass()
	}
	early := measure()
	for passes < 1000 {
		pass()
	}
	late := measure()
	t.Logf("a 10-change pass allocates %.0f B after 10 passes, %.0f B after 1,000", early, late)
	if late > early*1.10 || late < early*0.90 {
		t.Errorf("pass allocation moved with history: %.0f B after 10 passes, %.0f B after 1,000", early, late)
	}
}
