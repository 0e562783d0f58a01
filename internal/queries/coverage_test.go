package queries

import (
	"slices"
	"strconv"
	"testing"

	"moira/internal/db"
	"moira/internal/mrerr"
)

func TestFingerQueries(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "babette")
	f.mustRun(t, f.priv, "update_finger_by_login", "babette",
		"Harmon C Fowler", "Harm", "12 Oak St", "555-0100",
		"E40-342", "555-0200", "EECS", "undergraduate")
	out := f.mustRun(t, f.priv, "get_finger_by_login", "babette")
	row := out[0]
	if row[1] != "Harmon C Fowler" || row[2] != "Harm" || row[7] != "EECS" || row[8] != "undergraduate" {
		t.Errorf("finger = %v", row)
	}
	// Self-service: the target user may read and update their own record.
	babette := f.userCtx("babette")
	if _, err := f.run(babette, "get_finger_by_login", "babette"); err != nil {
		t.Errorf("self finger read: %v", err)
	}
	if _, err := f.run(babette, "update_finger_by_login", "babette",
		"B. Fowler", "", "", "", "", "", "", ""); err != nil {
		t.Errorf("self finger update: %v", err)
	}
	f.addUser(t, "other")
	if _, err := f.run(babette, "update_finger_by_login", "other",
		"x", "", "", "", "", "", "", ""); err != mrerr.MrPerm {
		t.Errorf("other finger update err = %v", err)
	}
}

func TestGetAceUseRecursiveAndObjectTypes(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "owner")
	// owner sits inside nested lists; the outer list is the ACE of
	// several object types.
	f.mustRun(t, f.priv, "add_list", "ops", "1", "0", "0", "0", "0", "0", "NONE", "NONE", "")
	f.mustRun(t, f.priv, "add_list", "ops-parent", "1", "0", "0", "0", "0", "0", "NONE", "NONE", "")
	f.mustRun(t, f.priv, "add_member_to_list", "ops", "USER", "owner")
	f.mustRun(t, f.priv, "add_member_to_list", "ops-parent", "LIST", "ops")

	f.mustRun(t, f.priv, "add_server_info", "TESTSVC", "60", "/t", "/d", "UNIQUE", "1", "LIST", "ops-parent")
	f.mustRun(t, f.priv, "add_server_host_access", "suomi.mit.edu", "LIST", "ops-parent")
	f.mustRun(t, f.priv, "add_zephyr_class", "OPSCLASS", "LIST", "ops-parent",
		"NONE", "NONE", "NONE", "NONE", "NONE", "NONE")
	f.mustRun(t, f.priv, "add_list", "guarded", "1", "0", "0", "0", "0", "0", "LIST", "ops-parent", "")

	// Direct uses of ops-parent.
	out := f.mustRun(t, f.priv, "get_ace_use", "LIST", "ops-parent")
	types := map[string]bool{}
	for _, row := range out {
		types[row[0]] = true
	}
	for _, want := range []string{"SERVICE", "HOSTACCESS", "ZEPHYR", "LIST"} {
		if !types[want] {
			t.Errorf("get_ace_use missing %s: %v", want, out)
		}
	}

	// Recursive by user: owner holds all of it through ops -> ops-parent.
	out = f.mustRun(t, f.priv, "get_ace_use", "RUSER", "owner")
	types = map[string]bool{}
	for _, row := range out {
		types[row[0]] = true
	}
	if !types["SERVICE"] || !types["ZEPHYR"] {
		t.Errorf("recursive ace use = %v", out)
	}
	// Recursive by list.
	out = f.mustRun(t, f.priv, "get_ace_use", "RLIST", "ops")
	found := false
	for _, row := range out {
		if row[0] == "SERVICE" && row[1] == "TESTSVC" {
			found = true
		}
	}
	if !found {
		t.Errorf("RLIST ace use = %v", out)
	}
}

func TestHostAccessQueries(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "operator")
	f.mustRun(t, f.priv, "add_server_host_access", "suomi.mit.edu", "USER", "operator")
	out := f.mustRun(t, f.priv, "get_server_host_access", "*")
	if len(out) != 1 || out[0][0] != "SUOMI.MIT.EDU" || out[0][2] != "operator" {
		t.Errorf("hostaccess = %v", out)
	}
	if _, err := f.run(f.priv, "add_server_host_access", "suomi.mit.edu", "USER", "operator"); err != mrerr.MrExists {
		t.Errorf("dup hostaccess err = %v", err)
	}
	f.mustRun(t, f.priv, "update_server_host_access", "suomi.mit.edu", "LIST", AdminList)
	out = f.mustRun(t, f.priv, "get_server_host_access", "SUOMI*")
	if out[0][1] != "LIST" || out[0][2] != AdminList {
		t.Errorf("updated hostaccess = %v", out)
	}
	f.mustRun(t, f.priv, "delete_server_host_access", "suomi.mit.edu")
	if _, err := f.run(f.priv, "get_server_host_access", "*"); err != mrerr.MrNoMatch {
		t.Errorf("after delete err = %v", err)
	}
}

func TestDeleteUserByUIDReturnsQuota(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "leaver")
	f.mustRun(t, f.priv, "add_list", "lgrp", "1", "0", "0", "0", "1", UniqueGID, "NONE", "NONE", "")
	f.mustRun(t, f.priv, "add_filesys", "leaverfs", "NFS", "charon.mit.edu",
		"/u1/leaver", "/mit/leaver", "w", "", "leaver", "lgrp", "1", "HOMEDIR")
	f.mustRun(t, f.priv, "add_nfs_quota", "leaverfs", "leaver", "400")
	np := f.mustRun(t, f.priv, "get_nfsphys", "charon.mit.edu", "/u1")
	if np[0][4] != "400" {
		t.Fatalf("allocated = %s", np[0][4])
	}
	uidRow := f.mustRun(t, f.priv, "get_user_by_login", "leaver")
	uid := uidRow[0][1]

	// The user still owns the filesystem: deletion refused.
	if _, err := f.run(f.priv, "delete_user_by_uid", uid); err != mrerr.MrInUse {
		t.Fatalf("owner delete err = %v", err)
	}
	f.mustRun(t, f.priv, "delete_filesys", "leaverfs")
	// delete_filesys already returned the quota allocation.
	np = f.mustRun(t, f.priv, "get_nfsphys", "charon.mit.edu", "/u1")
	if np[0][4] != "0" {
		t.Fatalf("allocated after filesys delete = %s", np[0][4])
	}
	f.mustRun(t, f.priv, "delete_user_by_uid", uid)
	if _, err := f.run(f.priv, "get_user_by_login", "leaver"); err != mrerr.MrNoMatch {
		t.Errorf("user survived uid delete: %v", err)
	}
}

func TestExpandListNames(t *testing.T) {
	f := newFixture(t)
	for _, n := range []string{"eng-all", "eng-staff", "sci-all"} {
		f.mustRun(t, f.priv, "add_list", n, "1", "0", "0", "0", "0", "0", "NONE", "NONE", "")
	}
	out := f.mustRun(t, f.priv, "expand_list_names", "eng-*")
	if len(out) != 2 {
		t.Errorf("expanded = %v", out)
	}
	// Hidden lists don't expand for outsiders.
	f.addUser(t, "pleb")
	f.mustRun(t, f.priv, "add_list", "eng-secret", "1", "0", "1", "0", "0", "0", "NONE", "NONE", "")
	pleb := f.userCtx("pleb")
	out, err := f.run(pleb, "expand_list_names", "eng-*")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range out {
		if row[0] == "eng-secret" {
			t.Error("hidden list leaked through expand_list_names")
		}
	}
}

func TestQualifiedGetServer(t *testing.T) {
	f := newFixture(t)
	f.mustRun(t, f.priv, "add_server_info", "UP", "60", "/t", "/d", "UNIQUE", "1", "NONE", "NONE")
	f.mustRun(t, f.priv, "add_server_info", "DOWN", "60", "/t", "/d", "UNIQUE", "0", "NONE", "NONE")
	out := f.mustRun(t, f.priv, "qualified_get_server", "TRUE", "DONTCARE", "FALSE")
	names := map[string]bool{}
	for _, r := range out {
		names[r[0]] = true
	}
	if !names["UP"] || names["DOWN"] {
		t.Errorf("qualified servers = %v", out)
	}
	if _, err := f.run(f.priv, "qualified_get_server", "MAYBE", "FALSE", "FALSE"); err != mrerr.MrType {
		t.Errorf("bad tri-state err = %v", err)
	}
}

func TestUpdateUserRename(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "oldname")
	f.mustRun(t, f.priv, "add_list", "holder", "1", "0", "0", "0", "0", "0", "NONE", "NONE", "")
	f.mustRun(t, f.priv, "add_member_to_list", "holder", "USER", "oldname")

	row := f.mustRun(t, f.priv, "get_user_by_login", "oldname")[0]
	f.mustRun(t, f.priv, "update_user", "oldname", "newname", row[1], row[2],
		row[3], row[4], row[5], row[6], row[7], row[8])

	// References survive the rename (the paper: "all references to this
	// user will still exist, even if the login name is changed").
	mem := f.mustRun(t, f.priv, "get_members_of_list", "holder")
	if len(mem) != 1 || mem[0][1] != "newname" {
		t.Errorf("membership after rename = %v", mem)
	}
	if _, err := f.run(f.priv, "get_user_by_login", "oldname"); err != mrerr.MrNoMatch {
		t.Errorf("old login err = %v", err)
	}
	// Renaming onto an existing login is refused.
	f.addUser(t, "taken")
	if _, err := f.run(f.priv, "update_user", "newname", "taken", row[1], row[2],
		row[3], row[4], row[5], row[6], row[7], row[8]); err != mrerr.MrNotUnique {
		t.Errorf("rename onto taken err = %v", err)
	}
	_ = db.UserActive
}

// TestGetFilesysByLabelProbesIndex: an exact label is a label-index
// probe and a pattern a walk of the label index's range, never a scan of
// the relation, and both answer the same rows — including for a label
// with several (label, order) rows.
func TestGetFilesysByLabelProbesIndex(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "owner")
	f.mustRun(t, f.priv, "add_list", "fsowners", "1", "0", "0", "0", "0", "0", "NONE", "NONE", "")
	for _, label := range []string{"multi", "other", "another"} {
		f.mustRun(t, f.priv, "add_filesys", label, "NFS", "charon.mit.edu", "/u1/"+label, "/mit/"+label, "w", "", "owner", "fsowners", "1", "PROJECT")
	}
	// The handles keep labels unique, so the several-orders case is set
	// up the way mrrestore would: rows straight into the relation.
	f.d.LockExclusive()
	for order := 1; order <= 2; order++ {
		id, _ := f.d.AllocID("filsys_id")
		if err := db.Filesystems.Insert(f.d, &db.Filesys{FilsysID: id, Label: "multi", Order: order, Type: db.FSTypeRVD, Name: "pack" + strconv.Itoa(order), Mount: "/mit/multi", Access: "r"}); err != nil {
			t.Fatal(err)
		}
	}
	f.d.UnlockExclusive()

	// The pattern matches the same three rows and renders them with the
	// same per-tuple lookups, so the tallies differ by the retrieval
	// shape alone: one range walk against one point probe.
	p0, r0, s0 := f.d.LookupStats()
	want := f.mustRun(t, f.priv, "get_filesys_by_label", "mult*")
	p1, r1, s1 := f.d.LookupStats()
	got := f.mustRun(t, f.priv, "get_filesys_by_label", "multi")
	p2, r2, s2 := f.d.LookupStats()
	if len(want) != 3 {
		t.Fatalf("setup: the pattern matched %d rows, want 3: %v", len(want), want)
	}
	if s1 != s0 || r1-r0 != 1 {
		t.Errorf("a wildcard label counted %d scans and %d range walks, want none and 1", s1-s0, r1-r0)
	}
	if s2 != s1 || r2 != r1 || p2-p1 != p1-p0+1 {
		t.Errorf("exact label: %d scans, %d range walks and %d point probes; want none, none and %d (the pattern's %d plus the label index)",
			s2-s1, r2-r1, p2-p1, p1-p0+1, p1-p0)
	}
	if len(got) != len(want) {
		t.Fatalf("exact label returned %d tuples, the pattern %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("tuple %d: probe %v, pattern %v", i, got[i], want[i])
		}
	}
}

// TestServerHostAccessCanonicalizesMachine: get_server_host_access
// accepts every spelling of a machine name that add_server_host_access
// and get_machine accept (a trailing dot, surrounding blanks, any case).
func TestServerHostAccessCanonicalizesMachine(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "operator")
	f.mustRun(t, f.priv, "add_server_host_access", "suomi.mit.edu.", "USER", "operator")
	for _, spelled := range []string{"SUOMI.MIT.EDU", "suomi.mit.edu.", " suomi.mit.edu", "Suomi*"} {
		if out := f.mustRun(t, f.priv, "get_machine", spelled); out[0][0] != "SUOMI.MIT.EDU" {
			t.Errorf("get_machine %q = %v", spelled, out)
		}
		out, err := f.run(f.priv, "get_server_host_access", spelled)
		if err != nil || len(out) != 1 || out[0][0] != "SUOMI.MIT.EDU" {
			t.Errorf("get_server_host_access %q = %v, %v", spelled, out, err)
		}
	}
}

// TestServerAndZephyrPatternsUseNameIndex: a wildcard service or zephyr
// class pattern, whether a retrieval's or an argument that must name one
// row, is a range scan of the relation's ordered name index, never a
// scan of the whole relation.
func TestServerAndZephyrPatternsUseNameIndex(t *testing.T) {
	f := newFixture(t)
	for _, s := range []string{"HESIOD", "HOSTS"} {
		f.mustRun(t, f.priv, "add_server_info", s, "60", "/t", "/d", "UNIQUE", "1", "NONE", "NONE")
	}
	for _, c := range []string{"MAIL", "MOIRA"} {
		f.mustRun(t, f.priv, "add_zephyr_class", c, "NONE", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE")
	}
	user := f.userCtx("nobody")
	for _, c := range []struct {
		cx    *Context
		query string
		args  []string
		rows  int
		err   error
	}{
		{f.priv, "get_server_info", []string{"H*"}, 2, nil},
		{f.priv, "get_server_info", []string{"h*"}, 2, nil},
		{user, "get_server_info", []string{"H*"}, 0, mrerr.MrPerm},
		{f.priv, "reset_server_error", []string{"H*"}, 0, mrerr.MrNotUnique},
		{f.priv, "get_zephyr_class", []string{"M*"}, 2, nil},
		{f.priv, "delete_zephyr_class", []string{"M*"}, 0, mrerr.MrNotUnique},
	} {
		_, r0, s0 := f.d.LookupStats()
		out, err := f.run(c.cx, c.query, c.args...)
		_, r1, s1 := f.d.LookupStats()
		if err != c.err || len(out) != c.rows {
			t.Errorf("%s %v: %d rows, %v; want %d rows, %v", c.query, c.args, len(out), err, c.rows, c.err)
		}
		if s1 != s0 || r1 == r0 {
			t.Errorf("%s %v: %d scans and %d range scans; want no scan", c.query, c.args, s1-s0, r1-r0)
		}
	}
}

// TestDeleteAliasProbesNameIndex: delete_alias finds its row with one
// probe of the alias name index, whether the row is there or not, and
// scans nothing.
func TestDeleteAliasProbesNameIndex(t *testing.T) {
	f := newFixture(t)
	for _, trans := range []string{"one", "two"} {
		f.mustRun(t, f.priv, "add_alias", "al", "FILESYS", trans)
	}
	for _, c := range []struct {
		trans string
		err   error
	}{{"two", nil}, {"two", mrerr.MrNoMatch}, {"one", nil}} {
		p0, r0, s0 := f.d.LookupStats()
		_, err := f.run(f.priv, "delete_alias", "al", "FILESYS", c.trans)
		p1, r1, s1 := f.d.LookupStats()
		if err != c.err {
			t.Errorf("delete_alias al %s: %v, want %v", c.trans, err, c.err)
		}
		if p1-p0 != 1 || r1 != r0 || s1 != s0 {
			t.Errorf("delete_alias al %s: %d point probes, %d range walks, %d scans; want 1, 0, 0", c.trans, p1-p0, r1-r0, s1-s0)
		}
	}
}
