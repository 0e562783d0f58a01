package gen

import (
	"archive/tar"
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/extract"
	"moira/internal/queries"
	"moira/internal/update"
	"moira/internal/workload"
)

func popDB(t *testing.T, users int) (*db.DB, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := queries.NewBootstrappedDB(clk)
	if _, _, err := workload.Populate(d, workload.Scaled(users)); err != nil {
		t.Fatal(err)
	}
	return d, clk
}

// bundleMembers returns b's member names, failing unless they are the
// names an archive/tar walk of its bytes finds, in order.
func bundleMembers(t *testing.T, b *update.Bundle) []string {
	t.Helper()
	var names []string
	tr := tar.NewReader(bytes.NewReader(b.Data))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, hdr.Name)
	}
	if !slices.Equal(b.Members, names) {
		t.Fatalf("Bundle.Members = %v, the tar holds %v", b.Members, names)
	}
	return names
}

func TestHesiodGeneratesElevenFiles(t *testing.T) {
	d, _ := popDB(t, 100)
	res, err := Generate(d, HesiodIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFiles != 11 {
		t.Errorf("NumFiles = %d, want 11", res.NumFiles)
	}
	names := bundleMembers(t, res.Bundles[""])
	want := map[string]bool{
		"cluster.db": true, "filsys.db": true, "gid.db": true, "group.db": true,
		"grplist.db": true, "passwd.db": true, "pobox.db": true,
		"printcap.db": true, "service.db": true, "sloc.db": true, "uid.db": true,
	}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing files: %v", want)
	}
}

func TestHesiodFileFormats(t *testing.T) {
	d, _ := popDB(t, 60)
	res, err := Generate(d, HesiodIncremental)
	if err != nil {
		t.Fatal(err)
	}
	passwd := string(res.Files["passwd.db"])
	if !strings.Contains(passwd, ".passwd HS UNSPECA \"") {
		t.Errorf("passwd.db format:\n%s", firstLines(passwd, 2))
	}
	// Every active user appears once in passwd.db and once in uid.db.
	d.LockShared()
	active := 0
	d.EachUser(func(u *db.User) bool {
		if u.Status == db.UserActive {
			active++
		}
		return true
	})
	d.UnlockShared()
	if got := strings.Count(passwd, "\n"); got != active {
		t.Errorf("passwd.db lines = %d, active users = %d", got, active)
	}
	uidDB := string(res.Files["uid.db"])
	if strings.Count(uidDB, " HS CNAME ") != active {
		t.Errorf("uid.db CNAME count = %d, want %d", strings.Count(uidDB, " HS CNAME "), active)
	}
	// pobox entries name POP machines.
	if !strings.Contains(string(res.Files["pobox.db"]), "\"POP ATHENA-PO-") {
		t.Errorf("pobox.db format:\n%s", firstLines(string(res.Files["pobox.db"]), 2))
	}
	// filsys entries use the short lowercase server name.
	if !strings.Contains(string(res.Files["filsys.db"]), " fs-") {
		t.Errorf("filsys.db format:\n%s", firstLines(string(res.Files["filsys.db"]), 2))
	}
	// sloc holds service/host tuples without quotes.
	sloc := string(res.Files["sloc.db"])
	if !strings.Contains(sloc, "HESIOD.sloc HS UNSPECA SUOMI.MIT.EDU") {
		t.Errorf("sloc.db:\n%s", firstLines(sloc, 8))
	}
	// grplist puts the namesake group first.
	grplist := string(res.Files["grplist.db"])
	line := strings.SplitN(grplist, "\n", 2)[0]
	// form: <login>.grplist HS UNSPECA "<login>:<gid>..."
	loginPart := strings.SplitN(line, ".", 2)[0]
	if !strings.Contains(line, "\""+loginPart+":") {
		t.Errorf("grplist first line does not start with namesake group: %s", line)
	}
}

func TestHesiodPseudoCluster(t *testing.T) {
	d, _ := popDB(t, 2000)
	res, err := Generate(d, HesiodIncremental)
	if err != nil {
		t.Fatal(err)
	}
	cluster := string(res.Files["cluster.db"])
	// The workload puts every 97th workstation in two clusters.
	if !strings.Contains(cluster, "-pseudo.cluster") {
		t.Errorf("no pseudo-cluster generated:\n%s", firstLines(cluster, 5))
	}
	if !strings.Contains(cluster, "W0001.MIT.EDU.cluster HS CNAME w0001-pseudo.cluster") {
		// W0001 (index 0) is the first dual-cluster machine.
		t.Errorf("dual-homed machine not CNAMEd to pseudo-cluster:\n%s", grepLines(cluster, "W0001"))
	}
}

// TestNoChangeDetection exercises the driver-side change check that
// replaced the generators' internal short-circuit: the planner diffs
// the snapshot a service last generated from against the current one
// and only runs the generator when a row it reads changed.
func TestNoChangeDetection(t *testing.T) {
	d, clk := popDB(t, 50)
	p := extract.NewPlanner(d)
	run := func(service string, g extract.Generator) (*Result, *extract.Plan) {
		t.Helper()
		model, plan, err := p.Run(service, g, d.Reader())
		if err != nil {
			t.Fatal(err)
		}
		if plan.Mode == extract.ModeNoChange {
			return nil, plan
		}
		res, err := FromModel(model)
		if err != nil {
			t.Fatal(err)
		}
		d.LockExclusive()
		p.Commit(service, plan)
		d.UnlockExclusive()
		return res, plan
	}

	res, plan := run("HESIOD", HesiodIncremental)
	if res == nil || plan.Mode != extract.ModeFull {
		t.Fatalf("first pass: res=%v mode=%v", res != nil, plan.Mode)
	}
	clk.Advance(time.Hour)

	// Nothing changed: a no-change plan, zero generator work.
	if res, plan := run("HESIOD", HesiodIncremental); res != nil {
		t.Errorf("unchanged pass regenerated (mode=%v)", plan.Mode)
	}
	// A user modification invalidates it.
	priv := &queries.Context{DB: d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_user",
		[]string{"newbie", "-1", "/bin/csh", "New", "Bie", "", "1", "", "STAFF"},
		func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	res2, _ := run("HESIOD", HesiodIncremental)
	if res2 == nil {
		t.Fatal("pass after change did not regenerate")
	}
	if !strings.Contains(string(res2.Files["passwd.db"]), "newbie.passwd") {
		t.Error("new user missing from regenerated passwd.db")
	}
	// All four standard keyed generators implement the same contract.
	for name, inc := range Incrementals {
		if res, _ := run(name, inc); res == nil && name != "HESIOD" {
			t.Errorf("%s first pass did not generate", name)
		}
		if res, plan := run(name, inc); res != nil {
			t.Errorf("%s unchanged pass regenerated (mode=%v)", name, plan.Mode)
		}
	}
}

func TestNFSPerHostBundles(t *testing.T) {
	d, _ := popDB(t, 200)
	res, err := Generate(d, NFSIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if res.Common != nil {
		t.Error("NFS should be per-host")
	}
	if len(res.PerHost) == 0 {
		t.Fatal("no per-host bundles")
	}
	for host := range res.PerHost {
		names := bundleMembers(t, res.Bundles[host])
		hasCreds, hasQuotas, hasDirs := false, false, false
		for _, n := range names {
			switch {
			case n == "credentials":
				hasCreds = true
			case strings.HasSuffix(n, ".quotas"):
				hasQuotas = true
			case strings.HasSuffix(n, ".dirs"):
				hasDirs = true
			}
		}
		if !hasCreds || !hasQuotas || !hasDirs {
			t.Errorf("%s bundle = %v", host, names)
		}
	}
	// The master credentials file covers all active users.
	var anyCreds []byte
	for host := range res.PerHost {
		anyCreds = res.Files[host+"/credentials"]
		break
	}
	d.LockShared()
	active := 0
	d.EachUser(func(u *db.User) bool {
		if u.Status == db.UserActive {
			active++
		}
		return true
	})
	d.UnlockShared()
	if got := strings.Count(string(anyCreds), "\n"); got != active {
		t.Errorf("credentials lines = %d, active = %d", got, active)
	}
}

func TestNFSCredentialsRestrictedByValue3(t *testing.T) {
	d, clk := popDB(t, 50)
	_ = clk
	// Restrict one NFS host's credentials to the dbadmin list.
	d.LockExclusive()
	host, _ := db.ServerHosts.Get(d, "NFS")
	host = db.Edit(d, db.ServerHosts, host)
	host.Value3 = "dbadmin"
	d.NoteUpdate(host)
	m, _ := db.Machines.ByID(d, host.MachID)
	d.UnlockExclusive()

	res, err := Generate(d, NFSIncremental)
	if err != nil {
		t.Fatal(err)
	}
	creds := string(res.Files[m.Name+"/credentials"])
	// dbadmin contains root and moira (both active).
	if !strings.HasPrefix(creds, "root:0") && !strings.Contains(creds, "\nroot:0") {
		t.Errorf("restricted credentials missing root:\n%s", creds)
	}
	if lines := strings.Count(creds, "\n"); lines != 2 {
		t.Errorf("restricted credentials has %d lines, want 2", lines)
	}
}

func TestMailAliasesFormat(t *testing.T) {
	d, _ := popDB(t, 80)
	res, err := Generate(d, MailIncremental)
	if err != nil {
		t.Fatal(err)
	}
	aliases := string(res.Files["aliases"])
	// Pobox routing to the .LOCAL post office form.
	if !strings.Contains(aliases, "@ATHENA-PO-1.LOCAL") {
		t.Errorf("aliases missing pobox routing:\n%s", firstLines(aliases, 5))
	}
	// Owner lines for mailing lists.
	if !strings.Contains(aliases, "owner-") {
		t.Error("aliases missing owner- entries")
	}
	// The passwd file knows everybody active.
	passwd := string(res.Files["passwd"])
	if !strings.Contains(passwd, "root:*:0:101:") {
		t.Errorf("mailhub passwd:\n%s", firstLines(passwd, 3))
	}
}

func TestZephyrACLFiles(t *testing.T) {
	d, _ := popDB(t, 30)
	res, err := Generate(d, ZephyrIncremental)
	if err != nil {
		t.Fatal(err)
	}
	// Six classes, each with one non-NONE ACE (xmt) = six files,
	// matching the paper's Table G count for zephyr.
	if res.NumFiles != 6 {
		t.Errorf("zephyr files = %d, want 6", res.NumFiles)
	}
	moira := string(res.Files["MOIRA.xmt.acl"])
	// The zephyr-operators expansion: every line is a real login that is
	// recursively a member of the list.
	if strings.Count(moira, "\n") == 0 {
		t.Fatalf("MOIRA.xmt.acl is empty")
	}
	d.LockShared()
	defer d.UnlockShared()
	ops, ok := d.ListByName("zephyr-operators")
	if !ok {
		t.Fatal("zephyr-operators missing")
	}
	for _, line := range strings.Split(strings.TrimSpace(moira), "\n") {
		u, ok := d.UserByLogin(line)
		if !ok {
			t.Errorf("acl line %q is not a login", line)
			continue
		}
		if !slices.Contains(d.MembersOf(ops.ListID), db.Member{ListID: ops.ListID, MemberType: db.ACEUser, MemberID: u.UsersID}) {
			t.Errorf("acl line %q is not an operator", line)
		}
	}
}

func TestGeneratorScaling(t *testing.T) {
	small, _ := popDB(t, 50)
	large, _ := popDB(t, 500)
	rs, err := Generate(small, HesiodIncremental)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Generate(large, HesiodIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if rl.TotalBytes < 5*rs.TotalBytes {
		t.Errorf("hesiod output does not scale with users: %d vs %d bytes", rs.TotalBytes, rl.TotalBytes)
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestRegisterUserRenameReachesEveryExtract: register_user renames a
// placeholder login ("#6561"), and every extract that renders the login
// must follow at the next pass — the SMTP aliases block of a maillist
// holding the user, and the ZEPHYR ACL file of a class whose ACE is that
// list — not only the user's own lines.
func TestRegisterUserRenameReachesEveryExtract(t *testing.T) {
	d, _ := popDB(t, 60)
	priv := &queries.Context{DB: d, Privileged: true, App: "test"}
	run := func(name string, args ...string) {
		t.Helper()
		if err := queries.Execute(priv, name, args, func([]string) error { return nil }); err != nil {
			t.Fatalf("%s %v: %v", name, args, err)
		}
	}
	run("add_user", queries.UniqueLogin, "6561", "/bin/csh", "Reg", "Istrant", "", "0", "xx", "1992")
	run("add_list", "zlist", "1", "0", "0", "1", "0", "0", "USER", "root", "renamed members")
	run("add_member_to_list", "zlist", "USER", "#6561")
	run("add_zephyr_class", "ZCLS", "LIST", "zlist", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE")

	p := extract.NewPlanner(d)
	pass := func() {
		t.Helper()
		for _, svc := range []string{"SMTP", "ZEPHYR"} {
			g := Incrementals[svc]
			m, plan, err := p.Run(svc, g, d.Reader())
			if err != nil {
				t.Fatal(err)
			}
			want, err := g.Build(d.Reader())
			if err != nil {
				t.Fatal(err)
			}
			for name, data := range want.Files() {
				if got := m.Bytes(name); string(got) != string(data) {
					t.Errorf("%s %s pass: %s differs from a full build:\n%s\nwant:\n%s",
						svc, plan.Mode, name, grepLines(string(got), "zlist"), grepLines(string(data), "zlist"))
				}
			}
			d.LockExclusive()
			p.Commit(svc, plan)
			d.UnlockExclusive()
		}
	}
	pass()
	run("register_user", "6561", "zedreg", "1")
	pass()
	if m := p.Model("ZEPHYR"); string(m.Bytes("ZCLS.xmt.acl")) != "zedreg\n" {
		t.Errorf("ZCLS.xmt.acl = %q, want the new login", m.Bytes("ZCLS.xmt.acl"))
	}
}
