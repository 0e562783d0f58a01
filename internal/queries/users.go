package queries

// Queries over users, finger records, and post office boxes (section
// 7.0.1).

import (
	"strconv"
	"strings"

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

var (
	userSummary = Columns("login uid:int shell last first middle")
	userFull    = Columns("login uid:int shell last first middle state:int mitid class modtime:time modby modwith")
	fingerRow   = Columns("login fullname nickname home_addr home_phone office_addr office_phone department affiliation modtime:time modby modwith")
	poboxRow    = Columns("login type box modtime:time modby modwith")
	poboxes     = Columns("login type box")
)

// user adds u's full row. A self-restricted read (the get_user_by_*
// family) by a caller off the query ACL may return only the caller.
func (r *Req) user(u *db.User) {
	if r.self && (u.UsersID != r.UserID || r.UserID == 0) {
		r.err = mrerr.MrPerm
	}
	r.Row(txt(u.Login), dec(u.UID), txt(u.Shell), txt(u.Last), txt(u.First), txt(u.Middle),
		dec(u.Status), txt(u.MITID), txt(u.MITYear), dec(u.Mod.Time), txt(u.Mod.By), txt(u.Mod.With))
}

// users adds the full row of every user keep accepts.
func (r *Req) users(keep func(u *db.User) bool) {
	r.DB.EachUser(func(u *db.User) bool {
		if keep(u) {
			r.user(u)
		}
		return true
	})
}

// pobox adds the users whose pobox type keep accepts ("" keeps all).
func (r *Req) pobox(keep string) {
	r.DB.EachUser(func(u *db.User) bool {
		if keep == "" || u.PoType == keep {
			r.Row(txt(u.Login), txt(u.PoType), txt(poboxString(r.DB, u)))
		}
		return true
	})
}

// login is the usual "must match exactly one user" argument.
func login() Arg { return one("login", db.Users, mrerr.MrUser) }

func init() {
	register([]Query{
		{Name: "get_all_logins", Short: "galo", Rows: userSummary, IndexOrder: true, Access: Anyone,
			Do: func(r *Req) error {
				r.DB.EachUser(func(u *db.User) bool {
					r.Row(txt(u.Login), dec(u.UID), txt(u.Shell), txt(u.Last), txt(u.First), txt(u.Middle))
					return true
				})
				return nil
			}},
		{Name: "get_all_active_logins", Short: "gaal", Rows: userSummary, IndexOrder: true, Access: Anyone,
			Do: func(r *Req) error {
				r.DB.EachUser(func(u *db.User) bool {
					if u.Status != 0 {
						r.Row(txt(u.Login), dec(u.UID), txt(u.Shell), txt(u.Last), txt(u.First), txt(u.Middle))
					}
					return true
				})
				return nil
			}},
		{Name: "get_user_by_login", Short: "gubl", In: []Arg{arg("login")}, Rows: userFull, IndexOrder: true, Access: selfRows,
			Do: func(r *Req) error {
				db.Users.Match(r.DB, r.s[0], func(u *db.User) bool {
					r.user(u)
					return true
				})
				return nil
			}},
		{Name: "get_user_by_uid", Short: "gubu", In: []Arg{num("uid")}, Rows: userFull, Access: selfRows,
			Do: func(r *Req) error {
				db.UsersByUID.Each(r.DB, r.n[0], func(u *db.User) bool {
					r.user(u)
					return true
				})
				return nil
			}},
		{Name: "get_user_by_name", Short: "gubn", In: []Arg{arg("first"), arg("last")}, Rows: userFull, Access: selfRows,
			Do: func(r *Req) error {
				r.users(func(u *db.User) bool { return wildcard.Match(r.s[0], u.First) && wildcard.Match(r.s[1], u.Last) })
				return nil
			}},
		{Name: "get_user_by_class", Short: "gubc", In: []Arg{arg("class")}, Rows: userFull, Access: selfRows,
			Do: func(r *Req) error {
				r.users(func(u *db.User) bool { return wildcard.Match(r.s[0], u.MITYear) })
				return nil
			}},
		{Name: "get_user_by_mitid", Short: "gubm", In: []Arg{arg("mitid")}, Rows: userFull, Access: selfRows,
			Do: func(r *Req) error {
				r.users(func(u *db.User) bool { return wildcard.Match(r.s[0], u.MITID) })
				return nil
			}},
		{Name: "add_user", Short: "ausr", Kind: Append,
			In: []Arg{arg("login"), arg("uid"), arg("shell"), arg("last"), arg("first"), arg("middle"),
				num("state"), arg("mitid"), typed("class", "class", mrerr.MrBadClass)},
			Do: addUser},
		{Name: "register_user", Short: "rusr", Kind: Update,
			In: []Arg{num("uid"), arg("login"), num("fstype")}, Do: registerUser},
		{Name: "update_user", Short: "uusr", Kind: Update,
			In: []Arg{one("login", db.Users, nil), rename("newlogin", db.Users), num("uid"), arg("shell"),
				arg("last"), arg("first"), arg("middle"), num("state"), arg("mitid"),
				typed("class", "class", mrerr.MrBadClass)},
			Do: func(r *Req) error {
				u := db.Edit(r.DB, db.Users, obj[db.User](r, 0))
				if r.s[1] != u.Login {
					db.SetKey(r.DB, db.Users, u, &u.Login, r.s[1])
				}
				db.SetKey(r.DB, db.Users, u, &u.UID, r.n[2])
				u.Shell, u.Last, u.First, u.Middle = r.s[3], r.s[4], r.s[5], r.s[6]
				u.Status, u.MITID, u.MITYear = r.n[7], r.s[8], r.s[9]
				u.Mod = r.modInfo()
				r.DB.NoteUpdate(u)
				return nil
			}},
		{Name: "update_user_shell", Short: "uush", Kind: Update, In: []Arg{login(), arg("shell")}, Access: self(0),
			Do: func(r *Req) error {
				u := db.Edit(r.DB, db.Users, obj[db.User](r, 0))
				u.Shell, u.Mod = r.s[1], r.modInfo()
				r.DB.NoteUpdate(u)
				return nil
			}},
		{Name: "update_user_status", Short: "uust", Kind: Update, In: []Arg{login(), num("status")},
			Do: func(r *Req) error {
				u := db.Edit(r.DB, db.Users, obj[db.User](r, 0))
				u.Status, u.Mod = r.n[1], r.modInfo()
				r.DB.NoteUpdate(u)
				return nil
			}},
		{Name: "delete_user", Short: "dusr", Kind: Delete, In: []Arg{login()},
			Do: func(r *Req) error { return deleteUser(r, obj[db.User](r, 0), true) }},
		{Name: "delete_user_by_uid", Short: "dubu", Kind: Delete, In: []Arg{num("uid")},
			Do: func(r *Req) error {
				u, n := byUID(r.DB, r.n[0])
				if n != 1 {
					return (&Arg{Rel: db.Users}).fail(n)
				}
				return deleteUser(r, u, false)
			}},
		{Name: "get_finger_by_login", Short: "gfbl", In: []Arg{login()}, Rows: fingerRow, Access: Anyone,
			Do: func(r *Req) error {
				u := obj[db.User](r, 0)
				r.Row(txt(u.Login), txt(u.Fullname), txt(u.Nickname), txt(u.HomeAddr), txt(u.HomePhone), txt(u.OfficeAddr),
					txt(u.OfficePhone), txt(u.MITDept), txt(u.MITAffil), dec(u.FMod.Time), txt(u.FMod.By), txt(u.FMod.With))
				return nil
			}},
		{Name: "update_finger_by_login", Short: "ufbl", Kind: Update, Access: self(0),
			In: []Arg{login(), arg("fullname"), arg("nickname"), arg("home_addr"), arg("home_phone"),
				arg("office_addr"), arg("office_phone"), arg("department"), arg("affiliation")},
			Do: func(r *Req) error {
				u := db.Edit(r.DB, db.Users, obj[db.User](r, 0))
				u.Fullname, u.Nickname = r.s[1], r.s[2]
				u.HomeAddr, u.HomePhone = r.s[3], r.s[4]
				u.OfficeAddr, u.OfficePhone = r.s[5], r.s[6]
				u.MITDept, u.MITAffil = r.s[7], r.s[8]
				u.FMod = r.modInfo()
				r.DB.NoteUpdate(u)
				return nil
			}},
		{Name: "get_pobox", Short: "gpob", In: []Arg{login()}, Rows: poboxRow, Access: self(0),
			Do: func(r *Req) error {
				u := obj[db.User](r, 0)
				r.Row(txt(u.Login), txt(u.PoType), txt(poboxString(r.DB, u)), dec(u.PMod.Time), txt(u.PMod.By), txt(u.PMod.With))
				return nil
			}},
		{Name: "get_all_poboxes", Short: "gapo", Rows: poboxes, IndexOrder: true, Access: Anyone,
			Do: func(r *Req) error { r.pobox(""); return nil }},
		{Name: "get_poboxes_pop", Short: "gpop", Rows: Columns("login type machine"), IndexOrder: true, Access: Anyone,
			Do: func(r *Req) error { r.pobox(db.PoboxPOP); return nil }},
		{Name: "get_poboxes_smtp", Short: "gpos", Rows: poboxes, IndexOrder: true, Access: Anyone,
			Do: func(r *Req) error { r.pobox(db.PoboxSMTP); return nil }},
		{Name: "set_pobox", Short: "spob", Kind: Update, Access: self(0),
			In: []Arg{login(), typed("type", "pobox", mrerr.MrType), arg("box")}, Do: setPobox},
		{Name: "set_pobox_pop", Short: "spop", Kind: Update, In: []Arg{login()}, Access: self(0),
			Do: func(r *Req) error {
				u := obj[db.User](r, 0)
				if u.PoType == db.PoboxPOP {
					return nil
				}
				if _, ok := db.Machines.ByID(r.DB, u.PopID); !ok || u.PopID == 0 {
					return mrerr.MrMachine
				}
				u = db.Edit(r.DB, db.Users, u)
				u.PoType, u.PMod = db.PoboxPOP, r.modInfo()
				r.DB.NoteUpdate(u)
				return nil
			}},
		{Name: "delete_pobox", Short: "dpob", Kind: Update, In: []Arg{login()}, Access: self(0),
			Do: func(r *Req) error {
				u := db.Edit(r.DB, db.Users, obj[db.User](r, 0))
				u.PoType, u.PMod = db.PoboxNone, r.modInfo()
				r.DB.NoteUpdate(u)
				return nil
			}},
	})
}

// poboxString renders the "box" return field for a user.
func poboxString(d *db.DB, u *db.User) string {
	switch u.PoType {
	case db.PoboxPOP:
		if m, ok := db.Machines.ByID(d, u.PopID); ok {
			return m.Name
		}
		return "???"
	case db.PoboxSMTP:
		if s, ok := db.Strings.ByID(d, u.BoxID); ok {
			return s.String
		}
		return "???"
	default:
		return db.PoboxNone
	}
}

// setPobox is set_pobox's hook: a POP box names a machine, an SMTP box
// interns its address.
func setPobox(r *Req) error {
	d, u := r.DB, obj[db.User](r, 0)
	switch r.s[1] {
	case db.PoboxPOP:
		m, ok := db.Machines.Get(d, r.s[2])
		if !ok {
			return mrerr.MrMachine
		}
		u = db.Edit(d, db.Users, u)
		u.PoType, u.PopID = db.PoboxPOP, m.MachID
	case db.PoboxSMTP:
		id, err := d.InternString(r.s[2])
		if err != nil {
			return err
		}
		u = db.Edit(d, db.Users, u)
		u.PoType, u.BoxID = db.PoboxSMTP, id
	case db.PoboxNone:
		u = db.Edit(d, db.Users, u)
		u.PoType = db.PoboxNone
	default:
		return mrerr.MrType
	}
	u.PMod = r.modInfo()
	d.NoteUpdate(u)
	return nil
}

// addUser is add_user's hook: the UNIQUE_UID and UNIQUE_LOGIN
// allocations, in the paper's order (uid first, so "#uid" can name the
// login).
func addUser(r *Req) error {
	d := r.DB
	uid, err := 0, error(nil)
	if r.s[1] == UniqueUID {
		if uid, err = d.AllocID("uid"); err != nil {
			return err
		}
	} else if uid, err = strconv.Atoi(strings.TrimSpace(r.s[1])); err != nil {
		return mrerr.MrInteger
	}
	login := r.s[0]
	if login == UniqueLogin {
		login = "#" + strconv.Itoa(uid)
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
	mod := r.modInfo()
	return db.Users.Insert(d, &db.User{
		UsersID: id, Login: login, UID: uid, Shell: r.s[2],
		Last: r.s[3], First: r.s[4], Middle: r.s[5],
		Status: r.n[6], MITID: r.s[7], MITYear: r.s[8], Mod: mod,
		// The finger record is initialized with just the full name.
		Fullname: r.s[4] + " " + r.s[3], FMod: mod,
		PoType: db.PoboxNone, PMod: mod,
	})
}

// deleteUser implements delete_user / delete_user_by_uid: the in-use
// checks and the quota cascade. requireStatus0 distinguishes the two
// (only delete_user documents the status check).
func deleteUser(r *Req, u *db.User, requireStatus0 bool) error {
	d := r.DB
	if requireStatus0 && u.Status != 0 {
		return mrerr.MrInUse
	}
	if len(d.ListsContaining(db.ACEUser, u.UsersID)) > 0 {
		return mrerr.MrInUse
	}
	if len(aceUses(d, db.ACEUser, u.UsersID)) > 0 {
		return mrerr.MrInUse
	}
	var quotas []*db.NFSQuota
	db.QuotasByUser.Each(d, u.UsersID, func(q *db.NFSQuota) bool {
		quotas = append(quotas, q)
		return !requireStatus0
	})
	if requireStatus0 && len(quotas) > 0 {
		return mrerr.MrInUse
	}
	// delete_user_by_uid deletes associated quotas silently.
	for _, q := range quotas {
		if p, ok := db.Partitions.ByID(d, q.PhysID); ok {
			p = db.Edit(d, db.Partitions, p)
			p.Allocated -= q.Quota
			d.NoteUpdate(p)
		}
		db.Quotas.Delete(d, q)
	}
	db.Users.Delete(d, u)
	return nil
}

// aceUses finds references to an ACE across all object types, as
// get_ace_use does non-recursively; non-empty means the ACE's object
// may not be deleted.
func aceUses(d *db.DB, aceType string, aceID int) [][]string {
	var out [][]string
	d.EachList(func(l *db.List) bool {
		if l.ACLType == aceType && l.ACLID == aceID {
			out = append(out, []string{"LIST", l.Name})
		}
		return true
	})
	db.Servers.Each(d, func(s *db.Server) bool {
		if s.ACLType == aceType && s.ACLID == aceID {
			out = append(out, []string{"SERVICE", s.Name})
		}
		return true
	})
	db.Filesystems.Each(d, func(f *db.Filesys) bool {
		if (aceType == db.ACEUser && f.Owner == aceID) ||
			(aceType == db.ACEList && f.Owners == aceID) {
			out = append(out, []string{"FILESYS", f.Label})
		}
		return true
	})
	db.CapACLs.Each(d, func(c *db.CapACL) bool {
		if aceType == db.ACEList && c.ListID == aceID {
			out = append(out, []string{"QUERY", c.Capability})
		}
		return true
	})
	db.HostAccesses.Each(d, func(h *db.HostAccess) bool {
		if h.ACLType == aceType && h.ACLID == aceID {
			if m, ok := db.Machines.ByID(d, h.MachID); ok {
				out = append(out, []string{"HOSTACCESS", m.Name})
			}
		}
		return true
	})
	db.ZephyrClasses.Each(d, func(z *db.ZephyrClass) bool {
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

// byUID returns the first user with the uid and how many there are,
// stopping at the second.
func byUID(d *db.DB, uid int) (u *db.User, n int) {
	db.UsersByUID.Each(d, uid, func(x *db.User) bool {
		if n == 0 {
			u = x
		}
		n++
		return n < 2
	})
	return u, n
}

// registerUser implements register_user (section 7.0.1): assign the
// login, create a pobox on the least loaded post office, a group list,
// a filesystem on the least loaded fileserver of the right type, and a
// default quota. The user ends up half-registered (status 2).
func registerUser(r *Req) error {
	d, login, fstype := r.DB, r.s[1], r.n[2]
	u, n := byUID(d, r.n[0])
	if n == 0 {
		return mrerr.MrNoMatch
	}
	if n > 1 {
		return mrerr.MrNotUnique
	}
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
	db.ServerHosts.Under(d, "POP", func(sh *db.ServerHost) bool {
		if sh.Enable && (sh.Value2 == 0 || sh.Value1 < sh.Value2) && (po == nil || sh.Value1 < po.Value1) {
			po = sh
		}
		return true
	})
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
	db.Partitions.Each(d, func(p *db.NFSPhys) bool {
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

	mod := r.modInfo()

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
	if err := db.Lists.Insert(d, group); err != nil {
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
	if err := db.Filesystems.Insert(d, fs); err != nil {
		return err
	}
	if err := db.Quotas.Insert(d, &db.NFSQuota{
		UsersID: u.UsersID, FilsysID: fid, PhysID: part.NFSPhysID,
		Quota: defQuota, Mod: mod,
	}); err != nil {
		return err
	}
	part = db.Edit(d, db.Partitions, part)
	part.Allocated += defQuota
	d.NoteUpdate(part)

	// Pobox and account state.
	u, po = db.Edit(d, db.Users, u), db.Edit(d, db.ServerHosts, po)
	if login != u.Login {
		db.SetKey(d, db.Users, u, &u.Login, login)
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
