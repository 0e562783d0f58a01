package queries

// Queries over users, finger records, and post office boxes (section
// 7.0.1).

import (
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

// Sentinels from <moira.h>: passing UNIQUE_UID as a uid or UNIQUE_LOGIN
// as a login asks the server to allocate.
const (
	UniqueUID   = "-1"
	UniqueLogin = "#"
)

func userSummary(u *db.User) []string {
	return []string{u.Login, i2s(u.UID), u.Shell, u.Last, u.First, u.Middle}
}

func userFull(u *db.User) []string {
	return []string{
		u.Login, i2s(u.UID), u.Shell, u.Last, u.First, u.Middle,
		i2s(u.Status), u.MITID, u.MITYear,
		i642s(u.Mod.Time), u.Mod.By, u.Mod.With,
	}
}

// matchUsers collects users whose login matches the (possibly
// wildcarded) pattern, via the login indexes — a hash probe for exact
// patterns, an ordered-index range scan for wildcards.
func matchUsers(d *db.DB, pattern string) []*db.User {
	return d.UsersMatchingLogin(pattern)
}

// oneUser resolves an argument that "must match exactly one user".
func oneUser(d *db.DB, login string) (*db.User, error) {
	us := matchUsers(d, login)
	switch len(us) {
	case 0:
		return nil, mrerr.MrUser
	case 1:
		return us[0], nil
	default:
		return nil, mrerr.MrNotUnique
	}
}

// emitUsersSelfRestricted implements the shared rule of the get_user_by_*
// family: callers not on the query ACL may only retrieve themselves.
func emitUsersSelfRestricted(cx *Context, queryName string, users []*db.User, emit EmitFunc) error {
	if len(users) == 0 {
		return mrerr.MrNoMatch
	}
	if !cx.onACL(queryName) {
		for _, u := range users {
			if u.UsersID != cx.UserID || cx.UserID == 0 {
				return mrerr.MrPerm
			}
		}
	}
	var tuples [][]string
	for _, u := range users {
		tuples = append(tuples, userFull(u))
	}
	return emitSorted(tuples, emit)
}

// userACEUses returns descriptions of every object whose ACE is this
// user; non-empty means the user may not be deleted.
func userACEUses(d *db.DB, usersID int) [][]string {
	return aceUses(d, db.ACEUser, usersID)
}

// aceUses finds references to an ACE across all object types, as
// get_ace_use does non-recursively.
func aceUses(d *db.DB, aceType string, aceID int) [][]string {
	var out [][]string
	d.EachList(func(l *db.List) bool {
		if l.ACLType == aceType && l.ACLID == aceID {
			out = append(out, []string{"LIST", l.Name})
		}
		return true
	})
	d.EachServer(func(s *db.Server) bool {
		if s.ACLType == aceType && s.ACLID == aceID {
			out = append(out, []string{"SERVICE", s.Name})
		}
		return true
	})
	d.EachFilesys(func(f *db.Filesys) bool {
		if (aceType == db.ACEUser && f.Owner == aceID) ||
			(aceType == db.ACEList && f.Owners == aceID) {
			out = append(out, []string{"FILESYS", f.Label})
		}
		return true
	})
	d.EachCapACL(func(c *db.CapACL) bool {
		if aceType == db.ACEList && c.ListID == aceID {
			out = append(out, []string{"QUERY", c.Capability})
		}
		return true
	})
	d.EachHostAccess(func(h *db.HostAccess) bool {
		if h.ACLType == aceType && h.ACLID == aceID {
			if m, ok := d.MachineByID(h.MachID); ok {
				out = append(out, []string{"HOSTACCESS", m.Name})
			}
		}
		return true
	})
	d.EachZephyr(func(z *db.ZephyrClass) bool {
		hit := (z.XmtType == aceType && z.XmtID == aceID) ||
			(z.SubType == aceType && z.SubID == aceID) ||
			(z.IwsType == aceType && z.IwsID == aceID) ||
			(z.IuiType == aceType && z.IuiID == aceID)
		if hit {
			out = append(out, []string{"ZEPHYR", z.Class})
		}
		return true
	})
	return out
}

// poboxString renders the "box" return field for a user.
func poboxString(d *db.DB, u *db.User) string {
	switch u.PoType {
	case db.PoboxPOP:
		if m, ok := d.MachineByID(u.PopID); ok {
			return m.Name
		}
		return "???"
	case db.PoboxSMTP:
		if s, ok := d.StringByID(u.BoxID); ok {
			return s.String
		}
		return "???"
	default:
		return db.PoboxNone
	}
}

// selfOrACL builds an access policy granting the query ACL or the target
// user named by argument argIdx.
func selfOrACL(queryName string, argIdx int) AccessFunc {
	return func(cx *Context, args []string) error {
		if cx.onACL(queryName) {
			return nil
		}
		if cx.Principal != "" && argIdx < len(args) && args[argIdx] == cx.Principal {
			return nil
		}
		return mrerr.MrPerm
	}
}

func init() {
	register(&Query{
		Name: "get_all_logins", Short: "galo", Kind: Retrieve,
		Returns: []string{"login", "uid", "shell", "last", "first", "middle"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			c := &countingEmit{emit: emit}
			cx.DB.EachUser(func(u *db.User) bool {
				return c.fn(userSummary(u)) == nil
			})
			return c.result()
		},
	})

	register(&Query{
		Name: "get_all_active_logins", Short: "gaal", Kind: Retrieve,
		Returns: []string{"login", "uid", "shell", "last", "first", "middle"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			c := &countingEmit{emit: emit}
			cx.DB.EachUser(func(u *db.User) bool {
				if u.Status == 0 {
					return true
				}
				return c.fn(userSummary(u)) == nil
			})
			return c.result()
		},
	})

	register(&Query{
		Name: "get_user_by_login", Short: "gubl", Kind: Retrieve,
		Args:    []string{"login"},
		Returns: []string{"login", "uid", "shell", "last", "first", "middle", "state", "mitid", "class", "modtime", "modby", "modwith"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			return emitUsersSelfRestricted(cx, "get_user_by_login", matchUsers(cx.DB, args[0]), emit)
		},
	})

	register(&Query{
		Name: "get_user_by_uid", Short: "gubu", Kind: Retrieve,
		Args:    []string{"uid"},
		Returns: []string{"login", "uid", "shell", "last", "first", "middle", "state", "mitid", "class", "modtime", "modby", "modwith"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			uid, err := parseInt(args[0])
			if err != nil {
				return err
			}
			return emitUsersSelfRestricted(cx, "get_user_by_uid", cx.DB.UsersByUID(uid), emit)
		},
	})

	register(&Query{
		Name: "get_user_by_name", Short: "gubn", Kind: Retrieve,
		Args:    []string{"first", "last"},
		Returns: []string{"login", "uid", "shell", "last", "first", "middle", "state", "mitid", "class", "modtime", "modby", "modwith"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			var matches []*db.User
			cx.DB.EachUser(func(u *db.User) bool {
				if wildcard.Match(args[0], u.First) && wildcard.Match(args[1], u.Last) {
					matches = append(matches, u)
				}
				return true
			})
			return emitUsersSelfRestricted(cx, "get_user_by_name", matches, emit)
		},
	})

	register(&Query{
		Name: "get_user_by_class", Short: "gubc", Kind: Retrieve,
		Args:    []string{"class"},
		Returns: []string{"login", "uid", "shell", "last", "first", "middle", "state", "mitid", "class", "modtime", "modby", "modwith"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			var matches []*db.User
			cx.DB.EachUser(func(u *db.User) bool {
				if wildcard.Match(args[0], u.MITYear) {
					matches = append(matches, u)
				}
				return true
			})
			return emitUsersSelfRestricted(cx, "get_user_by_class", matches, emit)
		},
	})

	register(&Query{
		Name: "get_user_by_mitid", Short: "gubm", Kind: Retrieve,
		Args:    []string{"mitid"},
		Returns: []string{"login", "uid", "shell", "last", "first", "middle", "state", "mitid", "class", "modtime", "modby", "modwith"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			var matches []*db.User
			cx.DB.EachUser(func(u *db.User) bool {
				if wildcard.Match(args[0], u.MITID) {
					matches = append(matches, u)
				}
				return true
			})
			return emitUsersSelfRestricted(cx, "get_user_by_mitid", matches, emit)
		},
	})

	register(&Query{
		Name: "add_user", Short: "ausr", Kind: Append,
		Args: []string{"login", "uid", "shell", "last", "first", "middle", "state", "mitid", "class"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			login, uidArg := args[0], args[1]
			state, err := parseInt(args[6])
			if err != nil {
				return err
			}
			class := args[8]
			if !d.IsValidType("class", class) {
				return mrerr.MrBadClass
			}
			uid := 0
			if uidArg == UniqueUID {
				if uid, err = d.AllocID("uid"); err != nil {
					return err
				}
			} else if uid, err = parseInt(uidArg); err != nil {
				return err
			}
			if login == UniqueLogin {
				login = "#" + i2s(uid)
			} else if err := checkNameChars(login); err != nil {
				return err
			}
			if _, dup := d.UserByLogin(login); dup {
				return mrerr.MrNotUnique
			}
			id, err := d.AllocID("users_id")
			if err != nil {
				return err
			}
			mod := cx.modInfo()
			u := &db.User{
				UsersID: id, Login: login, UID: uid, Shell: args[2],
				Last: args[3], First: args[4], Middle: args[5],
				Status: state, MITID: args[7], MITYear: class,
				Mod: mod,
				// The finger record is initialized with just the full name.
				Fullname: args[4] + " " + args[3], FMod: mod,
				PoType: db.PoboxNone, PMod: mod,
			}
			return d.InsertUser(u)
		},
	})

	register(&Query{
		Name: "register_user", Short: "rusr", Kind: Update,
		Args:    []string{"uid", "login", "fstype"},
		Handler: registerUserHandler,
	})

	register(&Query{
		Name: "update_user", Short: "uusr", Kind: Update,
		Args: []string{"login", "newlogin", "uid", "shell", "last", "first", "middle", "state", "mitid", "class"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			u, err := oneUser(d, args[0])
			if err != nil {
				if err == mrerr.MrNoMatch || err == mrerr.MrUser {
					return mrerr.MrUser
				}
				return err
			}
			newlogin := args[1]
			if newlogin != u.Login {
				if err := checkNameChars(newlogin); err != nil {
					return err
				}
				if _, dup := d.UserByLogin(newlogin); dup {
					return mrerr.MrNotUnique
				}
			}
			uid, err := parseInt(args[2])
			if err != nil {
				return err
			}
			state, err := parseInt(args[7])
			if err != nil {
				return err
			}
			if !d.IsValidType("class", args[9]) {
				return mrerr.MrBadClass
			}
			if newlogin != u.Login {
				d.RenameUser(u, newlogin)
			}
			d.SetUserUID(u, uid)
			u.Shell = args[3]
			u.Last, u.First, u.Middle = args[4], args[5], args[6]
			u.Status = state
			u.MITID = args[8]
			u.MITYear = args[9]
			u.Mod = cx.modInfo()
			d.NoteUpdate(u)
			return nil
		},
	})

	register(&Query{
		Name: "update_user_shell", Short: "uush", Kind: Update,
		Args:   []string{"login", "shell"},
		Access: selfOrACL("update_user_shell", 0),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			u, err := oneUser(cx.DB, args[0])
			if err != nil {
				return mrerr.MrUser
			}
			u.Shell = args[1]
			u.Mod = cx.modInfo()
			cx.DB.NoteUpdate(u)
			return nil
		},
	})

	register(&Query{
		Name: "update_user_status", Short: "uust", Kind: Update,
		Args: []string{"login", "status"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			u, err := oneUser(cx.DB, args[0])
			if err != nil {
				return mrerr.MrUser
			}
			status, err := parseInt(args[1])
			if err != nil {
				return err
			}
			u.Status = status
			u.Mod = cx.modInfo()
			cx.DB.NoteUpdate(u)
			return nil
		},
	})

	register(&Query{
		Name: "delete_user", Short: "dusr", Kind: Delete,
		Args: []string{"login"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			u, err := oneUser(cx.DB, args[0])
			if err != nil {
				return mrerr.MrUser
			}
			return deleteUser(cx, u, true)
		},
	})

	register(&Query{
		Name: "delete_user_by_uid", Short: "dubu", Kind: Delete,
		Args: []string{"uid"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			uid, err := parseInt(args[0])
			if err != nil {
				return err
			}
			us := cx.DB.UsersByUID(uid)
			if len(us) == 0 {
				return mrerr.MrUser
			}
			if len(us) > 1 {
				return mrerr.MrNotUnique
			}
			return deleteUser(cx, us[0], false)
		},
	})

	register(&Query{
		Name: "get_finger_by_login", Short: "gfbl", Kind: Retrieve,
		Args: []string{"login"},
		Returns: []string{"login", "fullname", "nickname", "home_addr", "home_phone",
			"office_addr", "office_phone", "department", "affiliation",
			"modtime", "modby", "modwith"},
		Access: accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			u, err := oneUser(cx.DB, args[0])
			if err != nil {
				return mrerr.MrUser
			}
			return emit([]string{
				u.Login, u.Fullname, u.Nickname, u.HomeAddr, u.HomePhone,
				u.OfficeAddr, u.OfficePhone, u.MITDept, u.MITAffil,
				i642s(u.FMod.Time), u.FMod.By, u.FMod.With,
			})
		},
	})

	register(&Query{
		Name: "update_finger_by_login", Short: "ufbl", Kind: Update,
		Args: []string{"login", "fullname", "nickname", "home_addr", "home_phone",
			"office_addr", "office_phone", "department", "affiliation"},
		Access: selfOrACL("update_finger_by_login", 0),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			u, err := oneUser(cx.DB, args[0])
			if err != nil {
				return mrerr.MrUser
			}
			u.Fullname, u.Nickname = args[1], args[2]
			u.HomeAddr, u.HomePhone = args[3], args[4]
			u.OfficeAddr, u.OfficePhone = args[5], args[6]
			u.MITDept, u.MITAffil = args[7], args[8]
			u.FMod = cx.modInfo()
			cx.DB.NoteUpdate(u)
			return nil
		},
	})

	register(&Query{
		Name: "get_pobox", Short: "gpob", Kind: Retrieve,
		Args:    []string{"login"},
		Returns: []string{"login", "type", "box", "modtime", "modby", "modwith"},
		Access:  selfOrACL("get_pobox", 0),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			u, err := oneUser(cx.DB, args[0])
			if err != nil {
				return mrerr.MrUser
			}
			return emit([]string{u.Login, u.PoType, poboxString(cx.DB, u),
				i642s(u.PMod.Time), u.PMod.By, u.PMod.With})
		},
	})

	register(&Query{
		Name: "get_all_poboxes", Short: "gapo", Kind: Retrieve,
		Returns: []string{"login", "type", "box"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			c := &countingEmit{emit: emit}
			cx.DB.EachUser(func(u *db.User) bool {
				return c.fn([]string{u.Login, u.PoType, poboxString(cx.DB, u)}) == nil
			})
			return c.result()
		},
	})

	register(&Query{
		Name: "get_poboxes_pop", Short: "gpop", Kind: Retrieve,
		Returns: []string{"login", "type", "machine"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			c := &countingEmit{emit: emit}
			cx.DB.EachUser(func(u *db.User) bool {
				if u.PoType != db.PoboxPOP {
					return true
				}
				return c.fn([]string{u.Login, u.PoType, poboxString(cx.DB, u)}) == nil
			})
			return c.result()
		},
	})

	register(&Query{
		Name: "get_poboxes_smtp", Short: "gpos", Kind: Retrieve,
		Returns: []string{"login", "type", "box"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			c := &countingEmit{emit: emit}
			cx.DB.EachUser(func(u *db.User) bool {
				if u.PoType != db.PoboxSMTP {
					return true
				}
				return c.fn([]string{u.Login, u.PoType, poboxString(cx.DB, u)}) == nil
			})
			return c.result()
		},
	})

	register(&Query{
		Name: "set_pobox", Short: "spob", Kind: Update,
		Args:   []string{"login", "type", "box"},
		Access: selfOrACL("set_pobox", 0),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			u, err := oneUser(d, args[0])
			if err != nil {
				return mrerr.MrUser
			}
			typ := args[1]
			if !d.IsValidType("pobox", typ) {
				return mrerr.MrType
			}
			switch typ {
			case db.PoboxPOP:
				m, ok := d.MachineByName(args[2])
				if !ok {
					return mrerr.MrMachine
				}
				u.PoType, u.PopID = db.PoboxPOP, m.MachID
			case db.PoboxSMTP:
				id, err := d.InternString(args[2])
				if err != nil {
					return err
				}
				u.PoType, u.BoxID = db.PoboxSMTP, id
			case db.PoboxNone:
				u.PoType = db.PoboxNone
			default:
				return mrerr.MrType
			}
			u.PMod = cx.modInfo()
			d.NoteUpdate(u)
			return nil
		},
	})

	register(&Query{
		Name: "set_pobox_pop", Short: "spop", Kind: Update,
		Args:   []string{"login"},
		Access: selfOrACL("set_pobox_pop", 0),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			u, err := oneUser(cx.DB, args[0])
			if err != nil {
				return mrerr.MrUser
			}
			if u.PoType == db.PoboxPOP {
				return nil
			}
			if u.PopID == 0 {
				return mrerr.MrMachine
			}
			if _, ok := cx.DB.MachineByID(u.PopID); !ok {
				return mrerr.MrMachine
			}
			u.PoType = db.PoboxPOP
			u.PMod = cx.modInfo()
			cx.DB.NoteUpdate(u)
			return nil
		},
	})

	register(&Query{
		Name: "delete_pobox", Short: "dpob", Kind: Update,
		Args:   []string{"login"},
		Access: selfOrACL("delete_pobox", 0),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			u, err := oneUser(cx.DB, args[0])
			if err != nil {
				return mrerr.MrUser
			}
			u.PoType = db.PoboxNone
			u.PMod = cx.modInfo()
			cx.DB.NoteUpdate(u)
			return nil
		},
	})
}

// deleteUser implements delete_user / delete_user_by_uid. requireStatus0
// distinguishes the two (only delete_user documents the status check).
func deleteUser(cx *Context, u *db.User, requireStatus0 bool) error {
	d := cx.DB
	if requireStatus0 && u.Status != 0 {
		return mrerr.MrInUse
	}
	if len(d.ListsContaining(db.ACEUser, u.UsersID)) > 0 {
		return mrerr.MrInUse
	}
	if len(userACEUses(d, u.UsersID)) > 0 {
		return mrerr.MrInUse
	}
	if requireStatus0 && len(d.QuotasOfUser(u.UsersID)) > 0 {
		return mrerr.MrInUse
	}
	// delete_user_by_uid deletes associated quotas silently.
	for _, q := range d.QuotasOfUser(u.UsersID) {
		if p, ok := d.NFSPhysByID(q.PhysID); ok {
			p.Allocated -= q.Quota
			d.NoteUpdate(p)
		}
		if err := d.DeleteQuota(q.UsersID, q.FilsysID); err != nil {
			return mrerr.MrInternal
		}
	}
	d.DeleteUser(u)
	return nil
}

// registerUserHandler implements register_user (section 7.0.1): assign
// the login, create a pobox on the least loaded post office, a group
// list, a filesystem on the least loaded fileserver of the right type,
// and a default quota. The user ends up half-registered (status 2).
func registerUserHandler(cx *Context, args []string, emit EmitFunc) error {
	d := cx.DB
	uid, err := parseInt(args[0])
	if err != nil {
		return err
	}
	login := args[1]
	fstype, err := parseInt(args[2])
	if err != nil {
		return err
	}
	us := d.UsersByUID(uid)
	if len(us) == 0 {
		return mrerr.MrNoMatch
	}
	if len(us) > 1 {
		return mrerr.MrNotUnique
	}
	u := us[0]
	if u.Status != db.UserRegisterable {
		return mrerr.MrInUse
	}
	if err := checkNameChars(login); err != nil {
		return err
	}
	if _, taken := d.UserByLogin(login); taken && login != u.Login {
		return mrerr.MrInUse
	}
	if _, taken := d.ListByName(login); taken {
		return mrerr.MrInUse
	}

	// Least-loaded POP server: smallest value1 (box count) among POP
	// serverhosts with headroom (value2 is the maximum, 0 = unlimited).
	var po *db.ServerHost
	for _, sh := range d.ServerHostsOf("POP") {
		if !sh.Enable {
			continue
		}
		if sh.Value2 > 0 && sh.Value1 >= sh.Value2 {
			continue
		}
		if po == nil || sh.Value1 < po.Value1 {
			po = sh
		}
	}
	if po == nil {
		return mrerr.MrMachine
	}

	// Least-loaded fileserver partition supporting fstype: most free
	// quota units among partitions with the right status bit.
	defQuota, err := d.GetValue("def_quota")
	if err != nil {
		return mrerr.MrNoFilesys
	}
	var part *db.NFSPhys
	d.EachNFSPhys(func(p *db.NFSPhys) bool {
		if p.Status&fstype == 0 {
			return true
		}
		if p.Allocated+defQuota > p.Size {
			return true
		}
		if part == nil || p.Size-p.Allocated > part.Size-part.Allocated {
			part = p
		}
		return true
	})
	if part == nil {
		return mrerr.MrNoFilesys
	}

	mod := cx.modInfo()

	// Group list named after the user, with a fresh GID; the user is both
	// the ACE and the first member.
	gid, err := d.AllocID("gid")
	if err != nil {
		return err
	}
	lid, err := d.AllocID("list_id")
	if err != nil {
		return err
	}
	group := &db.List{
		ListID: lid, Name: login, Active: true, Group: true, GID: gid,
		Desc: "group of user " + login, ACLType: db.ACEUser, ACLID: u.UsersID,
		Mod: mod,
	}
	if err := d.InsertList(group); err != nil {
		return err
	}
	if err := d.AddMember(lid, db.ACEUser, u.UsersID); err != nil {
		return err
	}

	// Home filesystem on the chosen partition.
	fid, err := d.AllocID("filsys_id")
	if err != nil {
		return err
	}
	fs := &db.Filesys{
		FilsysID: fid, Label: login, PhysID: part.NFSPhysID, Type: db.FSTypeNFS,
		MachID: part.MachID, Name: part.Dir + "/" + login, Mount: "/mit/" + login,
		Access: "w", Owner: u.UsersID, Owners: lid, CreateFlg: true,
		LockerType: db.LockerHomedir, Mod: mod,
	}
	if err := d.InsertFilesys(fs); err != nil {
		return err
	}
	if err := d.InsertQuota(&db.NFSQuota{
		UsersID: u.UsersID, FilsysID: fid, PhysID: part.NFSPhysID,
		Quota: defQuota, Mod: mod,
	}); err != nil {
		return err
	}
	part.Allocated += defQuota
	d.NoteUpdate(part)

	// Pobox and account state.
	if login != u.Login {
		d.RenameUser(u, login)
	}
	u.PoType = db.PoboxPOP
	u.PopID = po.MachID
	u.PMod = mod
	u.Status = db.UserHalfRegistered
	u.Mod = mod
	po.Value1++
	d.NoteUpdate(po)
	d.NoteUpdate(u)
	return nil
}
