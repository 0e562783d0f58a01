package queries

// Bootstrap seeds a fresh database the way the original's db creation
// scripts (db/newdb and friends) did: the type-checking aliases, the
// administrative principals, and a CAPACLS row for every query that
// needs one, pointing at the "dbadmin" list.

import (
	"moira/internal/clock"
	"moira/internal/db"
)

// Admin principals created by Bootstrap.
const (
	AdminList = "dbadmin"
	AdminUser = "moira"
	RootUser  = "root"
)

// bootstrapAliases is the seed content of the alias relation. The first
// group registers the legal alias types themselves; the TYPE entries
// validate type-checked fields; the TYPEDATA entries describe the data
// type behind each member/ACE type string.
var bootstrapAliases = [][3]string{
	// Legal alias types (self-describing, as the paper notes).
	{"alias", "TYPE", "TYPE"},
	{"alias", "TYPE", "PRINTER"},
	{"alias", "TYPE", "SERVICE"},
	{"alias", "TYPE", "FILESYS"},
	{"alias", "TYPE", "TYPEDATA"},
	// Pobox types.
	{"pobox", "TYPE", "POP"},
	{"pobox", "TYPE", "SMTP"},
	{"pobox", "TYPE", "NONE"},
	// Machine types.
	{"mach_type", "TYPE", "VAX"},
	{"mach_type", "TYPE", "RT"},
	// Academic classes.
	{"class", "TYPE", "1988"}, {"class", "TYPE", "1989"},
	{"class", "TYPE", "1990"}, {"class", "TYPE", "1991"},
	{"class", "TYPE", "1992"}, {"class", "TYPE", "1993"},
	{"class", "TYPE", "G"}, {"class", "TYPE", "STAFF"},
	{"class", "TYPE", "FACULTY"}, {"class", "TYPE", "OTHER"},
	{"class", "TYPE", "TEST"},
	// DCM service types.
	{"service", "TYPE", "UNIQUE"},
	{"service", "TYPE", "REPLICAT"},
	// Filesystem types.
	{"filesys", "TYPE", "NFS"},
	{"filesys", "TYPE", "RVD"},
	{"filesys", "TYPE", "ERR"},
	// Locker types.
	{"lockertype", "TYPE", "HOMEDIR"},
	{"lockertype", "TYPE", "PROJECT"},
	{"lockertype", "TYPE", "COURSE"},
	{"lockertype", "TYPE", "SYSTEM"},
	{"lockertype", "TYPE", "OTHER"},
	// Network protocols.
	{"protocol", "TYPE", "TCP"},
	{"protocol", "TYPE", "UDP"},
	// Service cluster labels.
	{"slabel", "TYPE", "usrlib"},
	{"slabel", "TYPE", "syslib"},
	{"slabel", "TYPE", "zephyr"},
	{"slabel", "TYPE", "lpr"},
	{"slabel", "TYPE", "mail"},
	// Boolean, used by some clients' prompting.
	{"boolean", "TYPE", "0"},
	{"boolean", "TYPE", "1"},
	// Type translations: what kind of datum each typed string carries.
	{"POP", "TYPEDATA", "machine"},
	{"SMTP", "TYPEDATA", "string"},
	{"NONE", "TYPEDATA", "none"},
	{"USER", "TYPEDATA", "user"},
	{"LIST", "TYPEDATA", "list"},
	{"STRING", "TYPEDATA", "string"},
	{"MACHINE", "TYPEDATA", "machine"},
}

// readQueriesNeedingACL lists retrieval queries whose full power is gated
// by a query ACL (unprivileged callers get the restricted behaviour
// documented per query).
var readQueriesNeedingACL = []string{
	"get_user_by_login", "get_user_by_uid", "get_user_by_name",
	"get_user_by_class", "get_user_by_mitid",
	"get_pobox", "get_list_info", "expand_list_names", "get_ace_use",
	"qualified_get_lists", "get_members_of_list", "get_lists_of_member",
	"count_members_of_list", "get_server_info", "get_server_host_info",
	"get_filesys_by_group", "get_nfs_quota",
}

// Bootstrap seeds the database. It is idempotent only on a fresh DB; call
// it once right after db.New. It creates:
//
//   - the type-checking aliases,
//   - users "root" (uid 0) and "moira",
//   - the "dbadmin" list containing both,
//   - CAPACLS rows pointing every mutating query, the ACL-gated reads,
//     and the trigger_dcm pseudo-query at dbadmin.
func Bootstrap(d *db.DB) error {
	d.LockExclusive()
	defer d.UnlockExclusive()

	for _, a := range bootstrapAliases {
		if err := db.Aliases.Insert(d, &db.Alias{Name: a[0], Type: a[1], Trans: a[2]}); err != nil {
			return err
		}
	}

	mod := db.ModInfo{Time: d.Now(), By: RootUser, With: "bootstrap"}

	rootID, err := d.AllocID("users_id")
	if err != nil {
		return err
	}
	if err := db.Users.Insert(d, &db.User{
		UsersID: rootID, Login: RootUser, UID: 0, Shell: "/bin/csh",
		Last: "Operator", First: "Root", Status: db.UserActive,
		Fullname: "Root Operator", PoType: db.PoboxNone, Mod: mod, FMod: mod, PMod: mod,
	}); err != nil {
		return err
	}
	adminID, err := d.AllocID("users_id")
	if err != nil {
		return err
	}
	uid, err := d.AllocID("uid")
	if err != nil {
		return err
	}
	if err := db.Users.Insert(d, &db.User{
		UsersID: adminID, Login: AdminUser, UID: uid, Shell: "/bin/csh",
		Last: "Daemon", First: "Moira", Status: db.UserActive,
		Fullname: "Moira Daemon", PoType: db.PoboxNone, Mod: mod, FMod: mod, PMod: mod,
	}); err != nil {
		return err
	}

	listID, err := d.AllocID("list_id")
	if err != nil {
		return err
	}
	if err := db.Lists.Insert(d, &db.List{
		ListID: listID, Name: AdminList, Active: true,
		Desc: "database administrators", ACLType: db.ACEList, ACLID: listID,
		Mod: mod,
	}); err != nil {
		return err
	}
	if err := d.AddMember(listID, db.ACEUser, rootID); err != nil {
		return err
	}
	if err := d.AddMember(listID, db.ACEUser, adminID); err != nil {
		return err
	}

	for _, q := range All() {
		if q.Kind != Retrieve {
			db.CapACLs.Upsert(d, &db.CapACL{Capability: q.Name, Tag: q.Short, ListID: listID})
		}
	}
	for _, name := range readQueriesNeedingACL {
		q, ok := Lookup(name)
		if !ok {
			continue
		}
		db.CapACLs.Upsert(d, &db.CapACL{Capability: q.Name, Tag: q.Short, ListID: listID})
	}
	return nil
}

// NewBootstrappedDB is a convenience for tests and tools: a fresh
// database with Bootstrap applied. It panics on bootstrap failure, which
// can only be a programming error. clk may be nil for the system clock.
func NewBootstrappedDB(clk clock.Clock) *db.DB {
	d := db.New(clk)
	if err := Bootstrap(d); err != nil {
		panic("queries: bootstrap failed: " + err.Error())
	}
	return d
}
