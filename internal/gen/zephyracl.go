package gen

import (
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/extract"
)

var zephyrTables = []string{
	db.TZephyr, db.TList, db.TMembers, db.TUsers, db.TStrings,
}

// ZephyrIncremental generates the access control list files for
// controlled zephyr classes (section 5.8.2, service ZEPHYR): for each
// existing ACE (even if it is empty) the membership is output, one entry
// per line, with recursive lists expanded. All zephyr servers receive
// the same tar. The key space is simply "class:<class>": each class owns
// its (up to four) ACL files outright.
var ZephyrIncremental = &Incremental{
	TablesList: zephyrTables,
	BuildFn:    zephyrBuild,
	DepsFn:     zephyrDeps,
	EmitFn:     zephyrEmit,
}

// zephyrBuild enumerates the whole key domain and emits each key.
func zephyrBuild(d *db.DB) (*extract.Model, error) {
	m := extract.NewModel()
	d.EachZephyr(func(z *db.ZephyrClass) bool {
		zephyrEmit(d, m, "class:"+z.Class)
		return true
	})
	return m, nil
}

// zephyrEmit renders one class's ACL files into the model.
func zephyrEmit(d *db.DB, m *extract.Model, key string) {
	_, name, ok := strings.Cut(key, ":")
	if !ok {
		return
	}
	z, ok := d.ZephyrByClass(name)
	if !ok {
		return
	}
	renderACE := func(aceType string, aceID int) ([]byte, bool) {
		switch aceType {
		case db.ACEUser:
			if u, ok := d.UserByID(aceID); ok {
				return []byte(u.Login + "\n"), true
			}
			return []byte{}, true
		case db.ACEList:
			var b strings.Builder
			for _, mem := range acl.ExpandMembers(d, aceID) {
				switch mem.MemberType {
				case db.ACEUser:
					if u, ok := d.UserByID(mem.MemberID); ok {
						b.WriteString(u.Login + "\n")
					}
				case db.ACEString:
					if s, ok := d.StringByID(mem.MemberID); ok {
						b.WriteString(s.String + "\n")
					}
				}
			}
			return []byte(b.String()), true
		default:
			return nil, false // NONE: no ACL file, function unrestricted
		}
	}
	for _, fn := range []struct {
		suffix string
		typ    string
		id     int
	}{
		{"xmt", z.XmtType, z.XmtID},
		{"sub", z.SubType, z.SubID},
		{"iws", z.IwsType, z.IwsID},
		{"iui", z.IuiType, z.IuiID},
	} {
		if data, ok := renderACE(fn.typ, fn.id); ok {
			m.Emit(z.Class+"."+fn.suffix+".acl", "", key, data)
		}
	}
}

// zephyrClassKeysForLists returns the keys of classes whose ACEs name
// any list in the given id set.
func zephyrClassKeysForLists(d *db.DB, ids map[int]bool) []string {
	var keys []string
	d.EachZephyr(func(z *db.ZephyrClass) bool {
		for _, ace := range [][2]any{
			{z.XmtType, z.XmtID}, {z.SubType, z.SubID},
			{z.IwsType, z.IwsID}, {z.IuiType, z.IuiID},
		} {
			if ace[0].(string) == db.ACEList && ids[ace[1].(int)] {
				keys = append(keys, "class:"+z.Class)
				break
			}
		}
		return true
	})
	return keys
}

// zephyrDeps maps one journal record to the zephyr keys it dirties.
func zephyrDeps(d *db.DB, rec *db.JournalRecord) ([]string, bool) {
	a := rec.Args
	switch rec.Query {
	case "add_zephyr_class", "delete_zephyr_class":
		return []string{"class:" + a[0]}, true
	case "update_zephyr_class":
		return []string{"class:" + a[0], "class:" + a[1]}, true

	case "update_user":
		if a[0] == a[1] {
			// ACL files render logins only; nothing else matters.
			return nil, true
		}
		u, ok := d.UserByLogin(a[1])
		if !ok {
			return nil, true
		}
		lists := upLists(d, db.ACEUser, u.UsersID)
		keys := zephyrClassKeysForLists(d, lists)
		d.EachZephyr(func(z *db.ZephyrClass) bool {
			for _, ace := range [][2]any{
				{z.XmtType, z.XmtID}, {z.SubType, z.SubID},
				{z.IwsType, z.IwsID}, {z.IuiType, z.IuiID},
			} {
				if ace[0].(string) == db.ACEUser && ace[1].(int) == u.UsersID {
					keys = append(keys, "class:"+z.Class)
					break
				}
			}
			return true
		})
		return keys, true

	case "add_member_to_list", "delete_member_from_list":
		l, ok := d.ListByName(a[0])
		if !ok {
			return nil, true
		}
		ids := upLists(d, db.ACEList, l.ListID)
		ids[l.ListID] = true
		return zephyrClassKeysForLists(d, ids), true

	case "add_user", "register_user", "update_user_shell", "update_user_status",
		"update_finger_by_login", "set_pobox", "set_pobox_pop", "delete_pobox",
		"delete_user",
		"add_list", "update_list", "delete_list",
		"add_machine", "update_machine", "delete_machine",
		"add_cluster", "update_cluster", "delete_cluster",
		"add_machine_to_cluster", "delete_machine_from_cluster",
		"add_cluster_data", "delete_cluster_data",
		"add_filesys", "update_filesys", "delete_filesys",
		"add_nfsphys", "update_nfsphys", "delete_nfsphys", "adjust_nfsphys_allocation",
		"add_nfs_quota", "update_nfs_quota", "delete_nfs_quota",
		"add_service", "delete_service", "add_printcap", "delete_printcap",
		"add_alias", "delete_alias",
		"add_server_host_access", "update_server_host_access", "delete_server_host_access",
		"add_server_info", "update_server_info", "delete_server_info",
		"reset_server_error", "set_server_internal_flags",
		"add_server_host_info", "update_server_host_info", "delete_server_host_info",
		"reset_server_host_error", "set_server_host_override", "set_server_host_internal",
		"add_value", "update_value", "delete_value":
		return nil, true
	}
	return nil, false
}

// ZephyrInstallScript extracts every ACL file and reloads the server.
// The member list is derived from the bundle on the agent side via the
// registered reload command, so the script stays fixed.
func ZephyrInstallScript(target, destDir string, aclFiles []string) []string {
	var script []string
	for _, f := range aclFiles {
		script = append(script,
			"extract "+f+" "+destDir+"/"+f,
			"install "+destDir+"/"+f,
		)
	}
	script = append(script, "exec reload_zephyr_acls "+destDir)
	return script
}
