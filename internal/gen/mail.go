package gen

import (
	"fmt"
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/extract"
)

// mailReads are the relations feeding the mail extract, the columns it
// reads and the keys a changed row dirties.
var mailReads = []extract.Read{
	on(db.TUsers, func(u *db.User) db.User {
		return db.User{Login: u.Login, Status: u.Status, PoType: u.PoType, PopID: u.PopID, BoxID: u.BoxID,
			UID: u.UID, Fullname: u.Fullname, Shell: u.Shell}
	}, func(_ *db.DB, u *db.User, add func(string)) { add("user:" + u.Login) }),
	// Alias blocks render a user by login.
	on(db.TUsers, func(u *db.User) string { return u.Login }, func(d *db.DB, u *db.User, add func(string)) {
		listsNaming(d, db.ACEUser, u.UsersID, add)
	}),
	on(db.TList, func(l *db.List) db.List {
		return db.List{Name: l.Name, Desc: l.Desc, Active: l.Active, Maillist: l.Maillist, ACLType: l.ACLType, ACLID: l.ACLID}
	}, func(d *db.DB, l *db.List, add func(string)) {
		add("list:" + l.Name)
		listsNaming(d, db.ACEList, l.ListID, add)
	}),
	// A parent names a maillist member and flattens any other list.
	on(db.TMembers, whole[db.Member], func(d *db.DB, m *db.Member, add func(string)) {
		if l, ok := db.Lists.ByID(d, m.ListID); ok {
			add("list:" + l.Name)
		}
		upListKeys(d, db.ACEList, m.ListID, add)
	}),
	on(db.TStrings, whole[db.StringRec], func(d *db.DB, s *db.StringRec, add func(string)) {
		upListKeys(d, db.ACEString, s.StringID, add)
		d.EachUser(func(u *db.User) bool {
			if u.BoxID == s.StringID {
				add("user:" + u.Login)
			}
			return true
		})
	}),
	// Pobox lines render the post office's name.
	on(db.TMachine, machineName, func(d *db.DB, mach *db.Machine, add func(string)) { popUsers(d, mach.MachID, add) }),
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
	ReadList: mailReads,
	BuildFn:  mailBuild,
	EmitFn:   mailEmit,
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
		if u, ok := db.Users.ByID(d, mem.MemberID); ok {
			return u.Login
		}
	case db.ACEList:
		if l, ok := db.Lists.ByID(d, mem.MemberID); ok {
			return l.Name
		}
	case db.ACEString:
		if s, ok := db.Strings.ByID(d, mem.MemberID); ok {
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
			if u, ok := db.Users.ByID(d, l.ACLID); ok {
				fmt.Fprintf(&b, "owner-%s: %s\n", l.Name, u.Login)
			}
		case db.ACEList:
			if owner, ok := db.Lists.ByID(d, l.ACLID); ok && owner.ListID != l.ListID {
				fmt.Fprintf(&b, "owner-%s: %s\n", l.Name, owner.Name)
			}
		}
		var addrs []string
		for _, mem := range d.MembersOf(l.ListID) {
			if mem.MemberType == db.ACEList {
				if sub, ok := db.Lists.ByID(d, mem.MemberID); ok && !(sub.Active && sub.Maillist) {
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
			if mach, ok := db.Machines.ByID(d, u.PopID); ok {
				line := fmt.Sprintf("%s: %s@%s\n", u.Login, u.Login, localPO(mach.Name))
				m.Emit("aliases", extract.K(1, u.UsersID), key, []byte(line))
			}
		case db.PoboxSMTP:
			if s, ok := db.Strings.ByID(d, u.BoxID); ok {
				line := fmt.Sprintf("%s: %s\n", u.Login, s.String)
				m.Emit("aliases", extract.K(1, u.UsersID), key, []byte(line))
			}
		}
		line := fmt.Sprintf("%s:*:%d:101:%s,,,:/mit/%s:%s\n",
			u.Login, u.UID, u.Fullname, u.Login, u.Shell)
		m.Emit("passwd", extract.K(u.UsersID), key, []byte(line))
	}
}

// listsNaming adds the keys of the maillists whose alias blocks render
// the user or list (mtype, id) by name: the lists containing it, directly
// or through flattened sublists, and the lists it owns.
func listsNaming(d *db.DB, mtype string, id int, add func(string)) {
	upListKeys(d, mtype, id, add)
	d.EachList(func(l *db.List) bool {
		if l.ACLType == mtype && l.ACLID == id {
			add("list:" + l.Name)
		}
		return true
	})
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
