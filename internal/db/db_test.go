package db

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"moira/internal/clock"
	"moira/internal/mrerr"
)

func testDB() *DB {
	return New(clock.NewFake(time.Unix(600000000, 0)))
}

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{
		"", "plain", "with:colon", `with\backslash`, "tab\there",
		"newline\nhere", "\x00\x01\x7f", "mixed:\\:\n:end", "é UTF-8 passes through",
	}
	for _, c := range cases {
		esc := EscapeField(c)
		if strings.ContainsAny(esc, "\n") {
			t.Errorf("EscapeField(%q) contains newline: %q", c, esc)
		}
		got, err := UnescapeField(esc)
		if err != nil {
			t.Fatalf("UnescapeField(%q): %v", esc, err)
		}
		if got != c {
			t.Errorf("round trip %q -> %q -> %q", c, esc, got)
		}
	}
}

func TestEscapeKnownForms(t *testing.T) {
	if got := EscapeField("a:b"); got != `a\:b` {
		t.Errorf("colon escape = %q", got)
	}
	if got := EscapeField(`a\b`); got != `a\\b` {
		t.Errorf("backslash escape = %q", got)
	}
	if got := EscapeField("a\nb"); got != `a\012b` {
		t.Errorf("newline escape = %q", got)
	}
}

func TestUnescapeErrors(t *testing.T) {
	for _, bad := range []string{`\`, `\9`, `\01`, `\0x1`} {
		if _, err := UnescapeField(bad); err == nil {
			t.Errorf("UnescapeField(%q) succeeded", bad)
		}
	}
}

func TestPropertyRowRoundTrip(t *testing.T) {
	f := func(fields []string) bool {
		for i, s := range fields {
			// Rows never contain raw newlines after escaping, but the
			// fields themselves may contain anything.
			_ = i
			_ = s
		}
		got, err := DecodeRow(EncodeRow(fields))
		if err != nil {
			return false
		}
		if len(fields) == 0 {
			// EncodeRow of no fields produces one empty field.
			return len(got) == 1 && got[0] == ""
		}
		if len(got) != len(fields) {
			return false
		}
		for i := range fields {
			if got[i] != fields[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUserCRUD(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	defer d.UnlockExclusive()

	id, err := d.AllocID("users_id")
	if err != nil {
		t.Fatal(err)
	}
	u := &User{UsersID: id, Login: "babette", UID: 6530, Shell: "/bin/csh",
		Last: "Fowler", First: "Harmon", Status: UserActive}
	if err := d.InsertUser(u); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertUser(&User{UsersID: id + 99, Login: "babette"}); err != mrerr.MrExists {
		t.Errorf("duplicate login err = %v", err)
	}
	got, ok := d.UserByLogin("babette")
	if !ok || got.UID != 6530 {
		t.Fatal("lookup by login failed")
	}
	if _, ok := d.UserByID(id); !ok {
		t.Fatal("lookup by id failed")
	}
	d.RenameUser(u, "harmon")
	if _, ok := d.UserByLogin("babette"); ok {
		t.Error("old login still resolves")
	}
	if _, ok := d.UserByLogin("harmon"); !ok {
		t.Error("new login missing")
	}
	d.DeleteUser(u)
	if d.NumUsers() != 0 {
		t.Error("delete failed")
	}
	st := d.Stats(TUsers)
	if st.Appends != 1 || st.Deletes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAllocIDSequential(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	defer d.UnlockExclusive()
	a, _ := d.AllocID("list_id")
	b, _ := d.AllocID("list_id")
	if b != a+1 {
		t.Errorf("ids not sequential: %d, %d", a, b)
	}
	if _, err := d.AllocID("no_such_counter"); err != mrerr.MrNoID {
		t.Errorf("missing counter err = %v", err)
	}
}

func TestValues(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	defer d.UnlockExclusive()
	if v, err := d.GetValue("def_quota"); err != nil || v != 300 {
		t.Errorf("def_quota = %d, %v", v, err)
	}
	if err := d.AddValue("def_quota", 1); err != mrerr.MrExists {
		t.Errorf("AddValue dup err = %v", err)
	}
	if err := d.AddValue("new_val", 42); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateValue("new_val", 43); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.GetValue("new_val"); v != 43 {
		t.Errorf("new_val = %d", v)
	}
	if err := d.DeleteValue("new_val"); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateValue("new_val", 1); err != mrerr.MrNoMatch {
		t.Errorf("update deleted err = %v", err)
	}
}

func TestMembersAndLists(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	defer d.UnlockExclusive()
	lid, _ := d.AllocID("list_id")
	l := &List{ListID: lid, Name: "staff", Active: true}
	if err := d.InsertList(l); err != nil {
		t.Fatal(err)
	}
	uid, _ := d.AllocID("users_id")
	if err := d.AddMember(lid, "USER", uid); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMember(lid, "USER", uid); err != mrerr.MrExists {
		t.Errorf("dup member err = %v", err)
	}
	if !d.HasMember(lid, "USER", uid) {
		t.Error("HasMember false")
	}
	if got := d.ListsContaining("USER", uid); len(got) != 1 || got[0] != lid {
		t.Errorf("ListsContaining = %v", got)
	}
	if err := d.DeleteMember(lid, "USER", uid); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteMember(lid, "USER", uid); err != mrerr.MrNoMatch {
		t.Errorf("delete absent member err = %v", err)
	}
	d.DeleteList(l)
	if _, ok := d.ListByName("staff"); ok {
		t.Error("list still present")
	}
}

func TestLastModOf(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	d := New(clk)
	d.LockExclusive()
	if got := d.LastModOf(TUsers, TList); got != 0 {
		t.Errorf("fresh LastModOf = %d", got)
	}
	d.NoteAppend(TUsers)
	l := &List{ListID: 100, Name: "touched"}
	if err := d.InsertList(l); err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Second)
	d.NoteUpdate(l)
	if got := d.LastModOf(TUsers); got != 1000 {
		t.Errorf("users mod = %d", got)
	}
	if got := d.LastModOf(TUsers, TList); got != 1050 {
		t.Errorf("max mod = %d", got)
	}
	d.UnlockExclusive()
}

func TestJournalQueryWritesCRCLine(t *testing.T) {
	d := testDB()
	var buf bytes.Buffer
	d.SetJournal(&buf)
	d.LockExclusive()
	if err := d.JournalQuery("babette", "test", "tr1", "add_user", []string{"babette"}); err != nil {
		t.Fatal(err)
	}
	d.UnlockExclusive()
	line := strings.TrimRight(buf.String(), "\n")
	payload, state := SplitJournalCRC(line)
	if state != CRCValid {
		t.Fatalf("CRC state = %v for %q", state, line)
	}
	if !strings.HasPrefix(payload, "v2:600000000:babette:test:tr1:add_user:babette") {
		t.Errorf("payload = %q", payload)
	}
	rec, err := ParseJournalLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Query != "add_user" || rec.Time != 600000000 || rec.Trace != "tr1" {
		t.Errorf("record = %+v", rec)
	}
	// Damage one payload byte: the CRC must catch it.
	damaged := strings.Replace(line, "babette", "babettf", 1)
	if _, err := ParseJournalLine(damaged); err == nil {
		t.Error("damaged line parsed cleanly")
	}
}

// failWriter fails every write, like a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJournalQueryWriteErrorSurfaces(t *testing.T) {
	d := testDB()
	d.SetJournal(failWriter{})
	d.LockExclusive()
	err := d.JournalQuery("babette", "test", "", "add_user", []string{"babette"})
	d.UnlockExclusive()
	if err == nil {
		t.Fatal("journal write error vanished")
	}
	if got := d.JournalErrors(); got != 1 {
		t.Errorf("JournalErrors = %d, want 1", got)
	}
}

// populate fills a database with a small but full-coverage data set that
// exercises every relation, for backup/restore testing.
func populate(t *testing.T, d *DB) {
	t.Helper()
	d.LockExclusive()
	defer d.UnlockExclusive()

	uid, _ := d.AllocID("users_id")
	user := &User{UsersID: uid, Login: "babette", UID: 6530, Shell: "/bin/csh",
		Last: "Fowler", First: "Harmon", Middle: "C", Status: UserActive,
		MITID: "lfIenQqC/O/OE", MITYear: "1990",
		Fullname: "Harmon C Fowler", PoType: PoboxPOP,
		Mod: ModInfo{Time: 1, By: "root", With: "test"}}
	if err := d.InsertUser(user); err != nil {
		t.Fatal(err)
	}
	// A user with every awkward character in a free-text field.
	uid2, _ := d.AllocID("users_id")
	if err := d.InsertUser(&User{UsersID: uid2, Login: "weird", HomeAddr: "colon: back\\slash\nnewline"}); err != nil {
		t.Fatal(err)
	}

	mid, _ := d.AllocID("mach_id")
	if err := d.InsertMachine(&Machine{MachID: mid, Name: "BITSY.MIT.EDU", Type: "VAX"}); err != nil {
		t.Fatal(err)
	}
	cid, _ := d.AllocID("clu_id")
	if err := d.InsertCluster(&Cluster{CluID: cid, Name: "bldge40-vs", Desc: "E40 vaxstations"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMCMap(mid, cid); err != nil {
		t.Fatal(err)
	}
	if err := d.AddSvc(SvcData{CluID: cid, ServLabel: "zephyr", ServCluster: "neskaya.mit.edu"}); err != nil {
		t.Fatal(err)
	}
	lid, _ := d.AllocID("list_id")
	if err := d.InsertList(&List{ListID: lid, Name: "video-users", Active: true, Public: true, Maillist: true, GID: -1, ACLType: ACEUser, ACLID: uid}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMember(lid, "USER", uid); err != nil {
		t.Fatal(err)
	}
	sid, err := d.InternString("rubin@media-lab.mit.edu")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddMember(lid, "STRING", sid); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertServer(&Server{Name: "HESIOD", UpdateInt: 360, TargetFile: "/tmp/hesiod.out", Script: "hesiod.sh", Type: ServiceReplicated, Enable: true}); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertServerHost(&ServerHost{Service: "HESIOD", MachID: mid, Enable: true, Value3: "all"}); err != nil {
		t.Fatal(err)
	}
	fid, _ := d.AllocID("filsys_id")
	pid, _ := d.AllocID("nfsphys_id")
	if err := d.InsertNFSPhys(&NFSPhys{NFSPhysID: pid, MachID: mid, Dir: "/u1", Device: "ra0c", Status: 1, Size: 100000}); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertFilesys(&Filesys{FilsysID: fid, Label: "babette", PhysID: pid, Type: FSTypeNFS, MachID: mid, Name: "/u1/babette", Mount: "/mit/babette", Access: "w", Owner: uid, Owners: lid, CreateFlg: true, LockerType: LockerHomedir}); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertQuota(&NFSQuota{UsersID: uid, FilsysID: fid, PhysID: pid, Quota: 300}); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertZephyr(&ZephyrClass{Class: "MOIRA", XmtType: ACEList, XmtID: lid, SubType: ACENone, IwsType: ACENone, IuiType: ACENone}); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertHostAccess(&HostAccess{MachID: mid, ACLType: ACEUser, ACLID: uid}); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertService(&Service{Name: "smtp", Protocol: "TCP", Port: 25, Desc: "mail"}); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertPrintcap(&Printcap{Name: "linus", MachID: mid, Dir: "/usr/spool/printer/linus", RP: "linus"}); err != nil {
		t.Fatal(err)
	}
	d.SetCapACL("get_user_by_login", "gubl", lid)
	if err := d.AddAlias("class", "TYPE", "1990"); err != nil {
		t.Fatal(err)
	}
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	d := testDB()
	populate(t, d)
	dir := t.TempDir()
	if err := d.Backup(dir); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(dir, clock.NewFake(time.Unix(600000001, 0)))
	if err != nil {
		t.Fatal(err)
	}
	// Compare by re-dumping every table and checking byte equality.
	d.LockShared()
	r.LockShared()
	defer d.UnlockShared()
	defer r.UnlockShared()
	for _, tbl := range AllTables {
		var a, b bytes.Buffer
		if err := d.DumpTable(tbl, &a); err != nil {
			t.Fatal(err)
		}
		if err := r.DumpTable(tbl, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("table %s differs after restore:\noriginal:\n%s\nrestored:\n%s", tbl, a.String(), b.String())
		}
	}
	// Indexes must be rebuilt.
	if _, ok := r.UserByLogin("babette"); !ok {
		t.Error("restored db missing babette by login")
	}
	if _, ok := r.MachineByName("BITSY.MIT.EDU"); !ok {
		t.Error("restored db missing machine by name")
	}
	if _, ok := r.ListByName("video-users"); !ok {
		t.Error("restored db missing list by name")
	}
	if id, ok := r.StringID("rubin@media-lab.mit.edu"); !ok || id == 0 {
		t.Error("restored db missing interned string")
	}
	// ID allocation continues from the dumped hints without collision.
	r.LockShared() // upgrade is not supported; use separate exclusive section
	r.UnlockShared()
}

func TestRestoreContinuesIDs(t *testing.T) {
	d := testDB()
	populate(t, d)
	dir := t.TempDir()
	if err := d.Backup(dir); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.LockExclusive()
	defer r.UnlockExclusive()
	id, err := r.AllocID("users_id")
	if err != nil {
		t.Fatal(err)
	}
	if _, exists := r.UserByID(id); exists {
		t.Errorf("allocated id %d collides with restored user", id)
	}
}

func TestDumpUnknownTable(t *testing.T) {
	d := testDB()
	d.LockShared()
	defer d.UnlockShared()
	if err := d.DumpTable("bogus", &bytes.Buffer{}); err == nil {
		t.Error("DumpTable(bogus) succeeded")
	}
}

func TestLoadTableBadRow(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	defer d.UnlockExclusive()
	err := d.LoadTable(TMachine, strings.NewReader("notanint:NAME:VAX:0:x:y\n"))
	if err == nil {
		t.Error("LoadTable accepted a bad integer")
	}
	err = d.LoadTable(TMachine, strings.NewReader("1:NAME\n"))
	if err == nil {
		t.Error("LoadTable accepted a short row")
	}
}

func TestServerHostOps(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	defer d.UnlockExclusive()
	d.InsertServer(&Server{Name: "NFS", Type: ServiceUnique})
	for i := 1; i <= 3; i++ {
		if err := d.InsertServerHost(&ServerHost{Service: "NFS", MachID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.InsertServerHost(&ServerHost{Service: "NFS", MachID: 2}); err != mrerr.MrExists {
		t.Errorf("dup serverhost err = %v", err)
	}
	if got := d.ServerHostsOf("NFS"); len(got) != 3 || got[0].MachID != 1 {
		t.Errorf("ServerHostsOf = %d rows", len(got))
	}
	if err := d.DeleteServerHost("NFS", 2); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteServerHost("NFS", 2); err != mrerr.MrNoMatch {
		t.Errorf("double delete err = %v", err)
	}
}

func TestAliasTypeChecking(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	defer d.UnlockExclusive()
	if err := d.AddAlias("mach_type", "TYPE", "VAX"); err != nil {
		t.Fatal(err)
	}
	if !d.IsValidType("mach_type", "VAX") {
		t.Error("VAX should be a valid mach_type")
	}
	if d.IsValidType("mach_type", "CRAY") {
		t.Error("CRAY should not be a valid mach_type")
	}
	if err := d.AddAlias("mach_type", "TYPE", "VAX"); err != mrerr.MrExists {
		t.Errorf("dup alias err = %v", err)
	}
	if got := d.AliasTranslations("mach_type", "TYPE"); len(got) != 1 {
		t.Errorf("translations = %v", got)
	}
	if err := d.DeleteAlias("mach_type", "TYPE", "VAX"); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteAlias("mach_type", "TYPE", "VAX"); err != mrerr.MrNoMatch {
		t.Errorf("delete absent alias err = %v", err)
	}
}

// TestBackupDeterministic: two dumps of the same database are
// byte-identical — the property operators rely on when diffing nightly
// backups.
func TestBackupDeterministic(t *testing.T) {
	d := testDB()
	populate(t, d)
	dir1, dir2 := t.TempDir(), t.TempDir()
	if err := d.Backup(dir1); err != nil {
		t.Fatal(err)
	}
	if err := d.Backup(dir2); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range AllTables {
		a, err := os.ReadFile(filepath.Join(dir1, tbl))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, tbl))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("table %s dumps differ", tbl)
		}
	}
}

// TestSeqMonotonic: the change sequence only moves forward, and internal
// notes do not move it at all.
func TestSeqMonotonic(t *testing.T) {
	d := testDB()
	d.LockExclusive()
	defer d.UnlockExclusive()
	s0 := d.CurSeq()
	d.NoteAppend(TUsers)
	s1 := d.CurSeq()
	if s1 <= s0 {
		t.Errorf("seq did not advance: %d -> %d", s0, s1)
	}
	d.NoteUpdateInternal(&Server{Name: "DCMFLAGS"})
	if d.CurSeq() != s1 {
		t.Errorf("internal note moved the sequence")
	}
	if d.SeqOf(TUsers) != s1 {
		t.Errorf("SeqOf(users) = %d, want %d", d.SeqOf(TUsers), s1)
	}
	if d.SeqOf(TServers) != 0 {
		t.Errorf("SeqOf(servers) = %d, want 0", d.SeqOf(TServers))
	}
}
