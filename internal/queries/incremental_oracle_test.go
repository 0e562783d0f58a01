package queries

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/extract"
	"moira/internal/gen"
	"moira/internal/workload"
)

// TestEveryMutatingHandleIsIncremental is the handle-coverage oracle of
// the incremental extracts. It drives every mutating handle through the
// snapshot oracle's scripted rounds and, after each step, runs one
// planner pass per service (KLOGIN too): every file must equal a full
// build of the same snapshot, and no pass but the cold start may
// rebuild, except where the step changed a relation the generator
// declares full. A mutating handle the rounds do not reach fails the
// test, so a handle added later is covered or noticed. A closing script
// then changes rows that other relations' output depends on: members of
// a list that is a group, a maillist, a zephyr ACE, a host's ACE and an
// NFS host's scope, through a sublist; renames of its users, of the
// sublist and of a post office.
func TestEveryMutatingHandleIsIncremental(t *testing.T) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := NewBootstrappedDB(clk)
	cfg := workload.Scaled(100)
	cfg.NetServices = 5
	_, hosts, err := workload.Populate(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := &snapOracle{
		t: t, d: d, rng: rand.New(rand.NewSource(3)), hit: map[string]int{},
		cx: &Context{DB: d, Privileged: true, App: "oracle", TriggerDCM: func(string) {}},
	}
	d.EachUser(func(u *db.User) bool { o.logins = append(o.logins, u.Login); return true })

	gens := map[string]*gen.Incremental{"KLOGIN": gen.KLogin("ATHENA.MIT.EDU")}
	for name, g := range gen.Incrementals {
		gens[name] = g
	}
	services := make([]string, 0, len(gens))
	for name := range gens {
		services = append(services, name)
	}
	sort.Strings(services)

	p := extract.NewPlanner(d)
	declared := map[string]int{}
	pass := func(after string) {
		t.Helper()
		snap := d.Reader()
		for _, svc := range services {
			g := gens[svc]
			m, plan, err := p.Run(svc, g, snap)
			if err != nil {
				t.Fatalf("after %s: %s: %v", after, svc, err)
			}
			switch {
			case plan.Mode != extract.ModeFull, plan.Reason == extract.FullColdStart && after == "populate":
			case strings.HasPrefix(plan.Reason, extract.FullDeclared):
				declared[svc+" "+strings.TrimPrefix(plan.Reason, extract.FullDeclared)]++
			default:
				t.Errorf("after %s: %s rebuilt (%s)", after, svc, plan.Reason)
			}
			want, err := g.Build(snap)
			if err != nil {
				t.Fatal(err)
			}
			got, wantFiles := m.Files(), want.Files()
			for name, data := range wantFiles {
				if !bytes.Equal(got[name], data) {
					t.Fatalf("after %s: %s %s pass: %s differs from a full build:\n%.400s\nwant:\n%.400s",
						after, svc, plan.Mode, name, got[name], data)
				}
			}
			for name := range got {
				if _, ok := wantFiles[name]; !ok {
					t.Fatalf("after %s: %s %s pass: %s is not in a full build", after, svc, plan.Mode, name)
				}
			}
			d.LockExclusive()
			p.Commit(svc, plan)
			d.UnlockExclusive()
		}
	}

	step := func(s oracleStep) {
		t.Helper()
		if err := Execute(o.cx, s.name, s.args, func([]string) error { return nil }); err != nil {
			t.Fatalf("%s(%v): %v", s.name, s.args, err)
		}
		o.hit[s.name]++
		pass(s.name + " " + strings.Join(s.args, " "))
		clk.Advance(time.Second)
	}

	pass("populate")
	live := [][]oracleStep{o.round(0), o.round(1)}
	for len(live) > 0 {
		i := o.rng.Intn(len(live))
		step(live[i][0])
		if live[i] = live[i][1:]; len(live[i]) == 0 {
			live = append(live[:i], live[i+1:]...)
		}
	}

	s := func(name string, args ...string) oracleStep { return oracleStep{name, args} }
	user := func(login string) []string {
		return []string{login, "-1", "/bin/csh", "Cross", "User", "", "1", "", "STAFF"}
	}
	for _, st := range []oracleStep{
		s("add_user", user("xu1")...),
		s("add_user", user("xu2")...),
		s("add_list", "xl", "1", "0", "0", "1", "1", UniqueGID, "NONE", "NONE", "a group and maillist"),
		s("add_list", "xsub", "1", "0", "0", "0", "0", "0", "USER", "xu1", "a plain sublist"),
		s("add_zephyr_class", "XCLASS", "LIST", "xl", "NONE", "NONE", "NONE", "NONE", "USER", "xu1"),
		s("add_server_host_access", hosts.Mailhub, "LIST", "xl"),
		s("update_server_host_info", "NFS", hosts.NFS[0], "1", "0", "0", "xl"),
		s("add_member_to_list", "xl", "USER", "xu1"),
		s("add_member_to_list", "xl", "LIST", "xsub"),
		s("add_member_to_list", "xsub", "USER", "xu2"),
		s("add_member_to_list", "xsub", "STRING", "cross@elsewhere.edu"),
		s("set_pobox", "xu1", "POP", hosts.POs[0]),
		s("set_pobox", "xu2", "SMTP", "xu2@elsewhere.edu"),
		s("update_user", "xu2", "xv2", "-1", "/bin/sh", "Cross", "User", "", "1", "", "STAFF"),
		s("update_user_status", "xu1", "0"),
		s("update_list", "xsub", "xsub2", "1", "0", "0", "1", "1", UniqueGID, "NONE", "NONE", "now a group and maillist"),
		s("update_list", "xl", "xl2", "1", "0", "0", "1", "1", UniqueGID, "NONE", "NONE", "renamed"),
		s("update_machine", hosts.POs[0], "NEWPO.MIT.EDU", "VAX"),
		s("delete_member_from_list", "xsub2", "USER", "xv2"),
		s("delete_member_from_list", "xl2", "LIST", "xsub2"),
		s("update_user_status", "xu1", "1"),
	} {
		step(st)
	}
	for _, q := range All() {
		if q.Kind != Retrieve && o.hit[q.Name] == 0 {
			t.Errorf("mutating handle %s was never reached", q.Name)
		}
	}
	t.Logf("full passes from relations declared full: %v", declared)
}
