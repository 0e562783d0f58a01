package gen

import (
	"fmt"
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/extract"
)

var mailTables = []string{
	db.TUsers, db.TList, db.TMembers, db.TStrings, db.TMachine,
}

// localPO converts a post office machine name to the .LOCAL form the
// aliases file uses: ATHENA-PO-2.MIT.EDU -> ATHENA-PO-2.LOCAL.
func localPO(machine string) string {
	if i := strings.IndexByte(machine, '.'); i >= 0 {
		machine = machine[:i]
	}
	return machine + ".LOCAL"
}

// MailIncremental generates the mailhub files (section 5.8.2, service
// Mail): the /usr/lib/aliases file holding mailing lists and post office
// boxes, and a complete /etc/passwd so the mailhub's finger server knows
// everybody. The key space: "static" (file presence), "list:<name>" (one
// maillist's alias block), "user:<login>" (pobox alias line plus passwd
// line).
var MailIncremental = &Incremental{
	TablesList: mailTables,
	BuildFn:    mailBuild,
	DepsFn:     mailDeps,
	EmitFn:     mailEmit,
}

// mailBuild enumerates the whole key domain and emits each key.
func mailBuild(d *db.DB) (*extract.Model, error) {
	m := extract.NewModel()
	mailEmit(d, m, "static")
	d.EachList(func(l *db.List) bool {
		if l.Active && l.Maillist {
			mailEmit(d, m, "list:"+l.Name)
		}
		return true
	})
	d.EachUser(func(u *db.User) bool {
		mailEmit(d, m, "user:"+u.Login)
		return true
	})
	return m, nil
}

// mailMemberAddr renders one alias-file address for a member row.
func mailMemberAddr(d *db.DB, mem db.Member) string {
	switch mem.MemberType {
	case db.ACEUser:
		if u, ok := d.UserByID(mem.MemberID); ok {
			return u.Login
		}
	case db.ACEList:
		if l, ok := d.ListByID(mem.MemberID); ok {
			return l.Name
		}
	case db.ACEString:
		if s, ok := d.StringByID(mem.MemberID); ok {
			return s.String
		}
	}
	return ""
}

// mailEmit renders one logical key into the model.
func mailEmit(d *db.DB, m *extract.Model, key string) {
	kind, name, _ := strings.Cut(key, ":")
	switch kind {
	case "static":
		m.Emit("aliases", "", key, nil)
		m.Emit("passwd", "", key, nil)

	case "list":
		// One maillist's alias block: comment, owner alias, member
		// line. Sublists are named, not expanded — sendmail chases them
		// through their own alias lines; sublists that are not
		// themselves maillists are expanded.
		l, ok := d.ListByName(name)
		if !ok || !l.Active || !l.Maillist {
			return
		}
		var b strings.Builder
		fmt.Fprintf(&b, "# %s\n", l.Desc)
		switch l.ACLType {
		case db.ACEUser:
			if u, ok := d.UserByID(l.ACLID); ok {
				fmt.Fprintf(&b, "owner-%s: %s\n", l.Name, u.Login)
			}
		case db.ACEList:
			if owner, ok := d.ListByID(l.ACLID); ok && owner.ListID != l.ListID {
				fmt.Fprintf(&b, "owner-%s: %s\n", l.Name, owner.Name)
			}
		}
		var addrs []string
		for _, mem := range d.MembersOf(l.ListID) {
			if mem.MemberType == db.ACEList {
				if sub, ok := d.ListByID(mem.MemberID); ok && !(sub.Active && sub.Maillist) {
					// Flatten a non-maillist sublist.
					for _, em := range acl.ExpandMembers(d, sub.ListID) {
						if a := mailMemberAddr(d, em); a != "" {
							addrs = append(addrs, a)
						}
					}
					continue
				}
			}
			if a := mailMemberAddr(d, mem); a != "" {
				addrs = append(addrs, a)
			}
		}
		fmt.Fprintf(&b, "%s: %s\n", l.Name, strings.Join(addrs, ", "))
		m.Emit("aliases", extract.K(0, l.ListID), key, []byte(b.String()))

	case "user":
		u, ok := d.UserByLogin(name)
		if !ok || u.Status != db.UserActive {
			return
		}
		switch u.PoType {
		case db.PoboxPOP:
			if mach, ok := d.MachineByID(u.PopID); ok {
				line := fmt.Sprintf("%s: %s@%s\n", u.Login, u.Login, localPO(mach.Name))
				m.Emit("aliases", extract.K(1, u.UsersID), key, []byte(line))
			}
		case db.PoboxSMTP:
			if s, ok := d.StringByID(u.BoxID); ok {
				line := fmt.Sprintf("%s: %s\n", u.Login, s.String)
				m.Emit("aliases", extract.K(1, u.UsersID), key, []byte(line))
			}
		}
		line := fmt.Sprintf("%s:*:%d:101:%s,,,:/mit/%s:%s\n",
			u.Login, u.UID, u.Fullname, u.Login, u.Shell)
		m.Emit("passwd", extract.K(u.UsersID), key, []byte(line))
	}
}

// mailListKeysReferencing returns the keys of maillists that render the
// given user by name: lists containing it (directly or through flattened
// sublists) and lists owned by it.
func mailListKeysReferencing(d *db.DB, u *db.User) []string {
	keys := upListKeys(d, db.ACEUser, u.UsersID)
	d.EachList(func(l *db.List) bool {
		if l.ACLType == db.ACEUser && l.ACLID == u.UsersID {
			keys = append(keys, "list:"+l.Name)
		}
		return true
	})
	return keys
}

// mailDeps maps one journal record to the mail keys it dirties.
func mailDeps(d *db.DB, rec *db.JournalRecord) ([]string, bool) {
	a := rec.Args
	switch rec.Query {
	case "add_user", "update_user_status", "delete_user",
		"update_user_shell", "update_finger_by_login",
		"set_pobox", "set_pobox_pop", "delete_pobox":
		return []string{"user:" + a[0]}, true
	case "update_user":
		keys := []string{"user:" + a[0], "user:" + a[1]}
		if a[0] != a[1] {
			// A rename changes the login rendered inside alias blocks.
			if u, ok := d.UserByLogin(a[1]); ok {
				keys = append(keys, mailListKeysReferencing(d, u)...)
			}
		}
		return keys, true
	case "register_user":
		return []string{"user:" + a[1], "list:" + a[1]}, true
	case "delete_user_by_uid":
		return nil, false

	case "add_list", "delete_list":
		return []string{"list:" + a[0]}, true
	case "update_list":
		keys := []string{"list:" + a[0], "list:" + a[1]}
		if l, ok := d.ListByName(a[1]); ok {
			// Parents flatten non-maillist sublists and name maillist
			// ones; flag or name changes reach every ancestor.
			keys = append(keys, upListKeys(d, db.ACEList, l.ListID)...)
			d.EachList(func(o *db.List) bool {
				if o.ACLType == db.ACEList && o.ACLID == l.ListID {
					keys = append(keys, "list:"+o.Name)
				}
				return true
			})
		}
		return keys, true
	case "add_member_to_list", "delete_member_from_list":
		keys := []string{"list:" + a[0]}
		if l, ok := d.ListByName(a[0]); ok {
			keys = append(keys, upListKeys(d, db.ACEList, l.ListID)...)
		}
		return keys, true

	case "add_machine":
		return nil, true
	case "update_machine", "delete_machine":
		// Pobox lines render the machine name.
		return nil, false

	case "add_cluster", "update_cluster", "delete_cluster",
		"add_machine_to_cluster", "delete_machine_from_cluster",
		"add_cluster_data", "delete_cluster_data",
		"add_filesys", "update_filesys", "delete_filesys",
		"add_nfsphys", "update_nfsphys", "delete_nfsphys", "adjust_nfsphys_allocation",
		"add_nfs_quota", "update_nfs_quota", "delete_nfs_quota",
		"add_service", "delete_service", "add_printcap", "delete_printcap",
		"add_alias", "delete_alias",
		"add_zephyr_class", "update_zephyr_class", "delete_zephyr_class",
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

// MailInstallScript installs the aliases and passwd files on the
// mailhub. The aliases file is deliberately staged, not swapped in
// automatically — "the mail spool must be disabled during the
// switchover" — so the final activation is a registered command the
// hub's operators control.
func MailInstallScript(target, destDir string) []string {
	return []string{
		"extract aliases " + destDir + "/aliases",
		"extract passwd " + destDir + "/passwd",
		"install " + destDir + "/passwd",
		"exec stage_aliases " + destDir,
	}
}
