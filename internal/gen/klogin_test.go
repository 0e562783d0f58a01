package gen

import (
	"reflect"
	"strings"
	"testing"

	"moira/internal/extract"
	"moira/internal/queries"
)

func TestKLoginGenerator(t *testing.T) {
	d, _ := popDB(t, 40)
	priv := &queries.Context{DB: d, Privileged: true, App: "test"}
	run := func(name string, args ...string) {
		t.Helper()
		if err := queries.Execute(priv, name, args, func([]string) error { return nil }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// root may log in on the hesiod server; dbadmin on the mailhub.
	run("add_server_host_access", "SUOMI.MIT.EDU", "USER", "root")
	run("add_server_host_access", "ATHENA.MIT.EDU", "LIST", "dbadmin")

	g := KLogin("ATHENA.MIT.EDU")
	// Every generation is a planner pass; past the cold start each must
	// be a delta that renders exactly what a from-scratch build would.
	planner := extract.NewPlanner(d)
	wantMode := extract.ModeFull
	gen := func() *Result {
		t.Helper()
		m, plan, err := planner.Run("KLOGIN", g, d.Reader())
		if err != nil {
			t.Fatal(err)
		}
		if plan.Mode != wantMode {
			t.Errorf("pass mode = %v (%s), want %v", plan.Mode, plan.Reason, wantMode)
		}
		wantMode = extract.ModeDelta
		d.LockExclusive()
		planner.Commit("KLOGIN", plan)
		d.UnlockExclusive()
		res, err := FromModel(m)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := Generate(d, g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Files, scratch.Files) {
			t.Errorf("planner pass diverged from a full build:\n%q\nvs\n%q", res.Files, scratch.Files)
		}
		return res
	}
	res := gen()
	if len(res.PerHost) != 2 {
		t.Fatalf("per-host bundles = %d", len(res.PerHost))
	}
	suomi := string(res.Files["SUOMI.MIT.EDU/.klogin"])
	if suomi != "root.@ATHENA.MIT.EDU\n" {
		t.Errorf("suomi .klogin = %q", suomi)
	}
	hub := string(res.Files["ATHENA.MIT.EDU/.klogin"])
	if !strings.Contains(hub, "root.@ATHENA.MIT.EDU\n") ||
		!strings.Contains(hub, "moira.@ATHENA.MIT.EDU\n") {
		t.Errorf("mailhub .klogin = %q", hub)
	}

	// The driver-side change check sees the klogin tables.
	d.LockShared()
	seq0 := d.SeqOf(g.Tables()...)
	d.UnlockShared()
	// Membership change regenerates.
	run("add_user", "newop", "-1", "/bin/csh", "New", "Op", "", "1", "", "STAFF")
	run("add_member_to_list", "dbadmin", "USER", "newop")
	d.LockShared()
	seq1 := d.SeqOf(g.Tables()...)
	d.UnlockShared()
	if seq1 <= seq0 {
		t.Errorf("klogin table sequence did not advance: %d -> %d", seq0, seq1)
	}
	res2 := gen()
	if !strings.Contains(string(res2.Files["ATHENA.MIT.EDU/.klogin"]), "newop.@") {
		t.Error("new operator missing from regenerated .klogin")
	}

	// Inactive principals are excluded.
	run("update_user_status", "newop", "0")
	res3 := gen()
	if strings.Contains(string(res3.Files["ATHENA.MIT.EDU/.klogin"]), "newop.@") {
		t.Error("inactive principal in .klogin")
	}

	// Revoking a host's access removes its file.
	run("delete_server_host_access", "SUOMI.MIT.EDU")
	res4 := gen()
	if _, ok := res4.PerHost["SUOMI.MIT.EDU"]; ok || len(res4.PerHost) != 1 {
		t.Errorf("per-host bundles after revoke = %d", len(res4.PerHost))
	}
}

func TestKLoginInstallScript(t *testing.T) {
	s := KLoginInstallScript("/tmp/klogin.out", "/")
	if len(s) != 2 || !strings.HasPrefix(s[0], "extract .klogin") || !strings.HasPrefix(s[1], "install") {
		t.Errorf("script = %v", s)
	}
}
