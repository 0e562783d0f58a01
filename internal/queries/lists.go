package queries

// Queries over lists and membership (section 7.0.3).

import (
	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

// UniqueGID is the <mr.h> sentinel asking for a fresh group ID.
const UniqueGID = "-1"

var (
	listInfo  = Columns("list active:bool public:bool hidden:bool maillist:bool group:bool gid:int ace_type ace_name description modtime:time modby modwith")
	listNames = Columns("list")
)

// listFlags are add_list's and update_list's five flags, the gid (which
// UNIQUE_GID allocates when group is set) and the ACE pair (which may
// name the list itself), starting at argument i; the list's name is
// argument name.
func listFlags(i, name int) []Arg {
	return []Arg{flag("active"), flag("public"), flag("hidden"), flag("maillist"), flag("group"),
		{Name: "gid", Kind: aGID, Ref: i + 4}, {Name: "ace_type", Kind: aListACE, Ref: name},
		arg("ace_name"), arg("description")}
}

func member(intern bool) []Arg {
	if intern {
		return []Arg{{Name: "type", Kind: aNewMember}, arg("member")}
	}
	return []Arg{{Name: "type", Kind: aMember}, arg("member")}
}

func init() {
	list := one("list", db.Lists, nil)
	register([]Query{
		{Name: "get_list_info", Short: "glin", In: []Arg{arg("list")}, Rows: listInfo, Access: Anyone,
			Do: func(r *Req) error {
				onQueryACL := r.onACL(r.q.Name)
				if wildcard.HasWildcards(r.s[0]) && !onQueryACL {
					return mrerr.MrPerm
				}
				found := false
				db.Lists.Match(r.DB, r.s[0], func(l *db.List) bool {
					found = true
					if !l.Hidden || onQueryACL || onListACE(r.Context, l) {
						r.Row(txt(l.Name), bit(l.Active), bit(l.Public), bit(l.Hidden), bit(l.Maillist),
							bit(l.Group), dec(l.GID), txt(l.ACLType), txt(acl.NameOfACE(r.DB, l.ACLType, l.ACLID)),
							txt(l.Desc), dec(l.Mod.Time), txt(l.Mod.By), txt(l.Mod.With))
					}
					return true
				})
				if !found {
					return mrerr.MrNoMatch
				}
				if len(r.buf) == 0 {
					return mrerr.MrPerm
				}
				return nil
			}},
		{Name: "expand_list_names", Short: "exln", In: []Arg{arg("list")}, Rows: listNames, Access: Anyone,
			Do: func(r *Req) error {
				db.Lists.Match(r.DB, r.s[0], func(l *db.List) bool {
					if !l.Hidden || r.onACL(r.q.Name) || onListACE(r.Context, l) {
						r.Row(txt(l.Name))
					}
					return true
				})
				return nil
			}},
		{Name: "add_list", Short: "alis", Kind: Append,
			In: append([]Arg{fresh("list", db.Lists, mrerr.MrExists)}, listFlags(1, 0)...),
			Do: func(r *Req) error {
				id, err := r.DB.AllocID("list_id")
				if err != nil {
					return err
				}
				aceID := r.n[7]
				if aceID < 0 {
					aceID = id
				}
				return db.Lists.Insert(r.DB, &db.List{
					ListID: id, Name: r.s[0], Active: r.flag(1), Public: r.flag(2),
					Hidden: r.flag(3), Maillist: r.flag(4), Group: r.flag(5), GID: r.n[6],
					Desc: r.s[9], ACLType: r.s[7], ACLID: aceID, Mod: r.modInfo(),
				})
			}},
		{Name: "update_list", Short: "ulis", Kind: Update, Access: listACE(0),
			In: append([]Arg{list, rename("newname", db.Lists)}, listFlags(2, 1)...),
			Do: func(r *Req) error {
				l := db.Edit(r.DB, db.Lists, obj[db.List](r, 0))
				aceID := r.n[8]
				if aceID < 0 {
					aceID = l.ListID
				}
				if r.s[1] != l.Name {
					db.SetKey(r.DB, db.Lists, l, &l.Name, r.s[1])
				}
				l.Active, l.Public, l.Hidden = r.flag(2), r.flag(3), r.flag(4)
				l.Maillist, l.Group, l.GID = r.flag(5), r.flag(6), r.n[7]
				l.ACLType, l.ACLID, l.Desc = r.s[8], aceID, r.s[10]
				l.Mod = r.modInfo()
				r.DB.NoteUpdate(l)
				return nil
			}},
		{Name: "delete_list", Short: "dlis", Kind: Delete, In: []Arg{list}, Access: listACE(0),
			Do: func(r *Req) error {
				d, l := r.DB, obj[db.List](r, 0)
				if len(d.MembersOf(l.ListID)) > 0 || len(d.ListsContaining(db.ACEList, l.ListID)) > 0 {
					return mrerr.MrInUse
				}
				// A self-referential ACE does not block deletion.
				for _, use := range aceUses(d, db.ACEList, l.ListID) {
					if use[0] != "LIST" || use[1] != l.Name {
						return mrerr.MrInUse
					}
				}
				d.DeleteList(l)
				return nil
			}},
		{Name: "add_member_to_list", Short: "amtl", Kind: Append, In: append([]Arg{list}, member(true)...), Access: selfAdd(0),
			Do: func(r *Req) error {
				l := obj[db.List](r, 0)
				if err := r.DB.AddMember(l.ListID, r.s[1], r.n[1]); err != nil {
					return err
				}
				l = db.Edit(r.DB, db.Lists, l)
				l.Mod = r.modInfo()
				r.DB.NoteUpdate(l)
				return nil
			}},
		{Name: "delete_member_from_list", Short: "dmfl", Kind: Delete, In: append([]Arg{list}, member(false)...), Access: selfAdd(0),
			Do: func(r *Req) error {
				l := obj[db.List](r, 0)
				if err := r.DB.DeleteMember(l.ListID, r.s[1], r.n[1]); err != nil {
					return err
				}
				l = db.Edit(r.DB, db.Lists, l)
				l.Mod = r.modInfo()
				r.DB.NoteUpdate(l)
				return nil
			}},
		{Name: "get_ace_use", Short: "gaus", In: []Arg{arg("ace_type"), arg("ace_name")},
			Rows: Columns("object_type object_name"), Access: custom(aceUseAccess), Do: getAceUse},
		{Name: "qualified_get_lists", Short: "qgli", Rows: listNames, Access: custom(qgliAccess),
			In: []Arg{tri("active"), tri("public"), tri("hidden"), tri("maillist"), tri("group")},
			Do: func(r *Req) error {
				r.DB.EachList(func(l *db.List) bool {
					if r.match(0, l.Active) && r.match(1, l.Public) && r.match(2, l.Hidden) &&
						r.match(3, l.Maillist) && r.match(4, l.Group) {
						r.Row(txt(l.Name))
					}
					return true
				})
				return nil
			}},
		{Name: "get_members_of_list", Short: "gmol", In: []Arg{list}, Rows: Columns("type value"), Access: listRead(0),
			Do: func(r *Req) error {
				for _, m := range r.DB.MembersOf(obj[db.List](r, 0).ListID) {
					r.Row(txt(m.MemberType), txt(memberName(r.DB, m.MemberType, m.MemberID)))
				}
				return nil
			}},
		{Name: "get_lists_of_member", Short: "glom", In: []Arg{arg("type"), arg("member")},
			Rows:   Columns("list active:bool public:bool hidden:bool maillist:bool group:bool"),
			Access: custom(aceUseAccess), Do: listsOfMember},
		{Name: "count_members_of_list", Short: "cmol", In: []Arg{list}, Rows: Columns("count:int"), Access: listRead(0),
			Do: func(r *Req) error {
				r.Row(dec(len(r.DB.MembersOf(obj[db.List](r, 0).ListID))))
				return nil
			}},
	})
}

// aceUseAccess is get_ace_use's and get_lists_of_member's rule: the
// query ACL, the user asking about themselves, or the ACE of the list
// asked about.
func aceUseAccess(r *Req) error {
	if r.onACL(r.q.Name) {
		return nil
	}
	switch r.Args[0] {
	case db.ACEUser, db.ACERUser:
		if r.Principal != "" && r.Args[1] == r.Principal {
			return nil
		}
	case db.ACEList, db.ACERList:
		if l, ok := r.DB.ListByName(r.Args[1]); ok && onListACE(r.Context, l) {
			return nil
		}
	}
	return mrerr.MrPerm
}

// qgliAccess is qualified_get_lists' rule: the query ACL, or anyone
// asking for active, non-hidden lists.
func qgliAccess(r *Req) error {
	if r.onACL(r.q.Name) {
		return nil
	}
	a, ok1 := parseTri(r.Args[0])
	h, ok2 := parseTri(r.Args[2])
	if ok1 && ok2 && a == triTrue && h == triFalse {
		return nil
	}
	return mrerr.MrPerm
}

// memberResolve turns a (type, name) pair into a member id. When intern
// is true a STRING member is created if absent; otherwise an unknown
// string is MR_NO_MATCH.
func memberResolve(d *db.DB, mtype, name string, intern bool) (int, error) {
	switch mtype {
	case db.ACEUser:
		u, ok := d.UserByLogin(name)
		if !ok {
			return 0, mrerr.MrNoMatch
		}
		return u.UsersID, nil
	case db.ACEList:
		l, ok := d.ListByName(name)
		if !ok {
			return 0, mrerr.MrNoMatch
		}
		return l.ListID, nil
	case db.ACEString:
		if s, ok := db.Strings.Get(d, name); ok {
			return s.StringID, nil
		}
		if !intern {
			return 0, mrerr.MrNoMatch
		}
		return d.InternString(name)
	default:
		return 0, mrerr.MrType
	}
}

// memberName renders a member id back to its name.
func memberName(d *db.DB, mtype string, id int) string {
	switch mtype {
	case db.ACEUser:
		if u, ok := db.Users.ByID(d, id); ok {
			return u.Login
		}
	case db.ACEList:
		if l, ok := db.Lists.ByID(d, id); ok {
			return l.Name
		}
	case db.ACEString:
		if s, ok := db.Strings.ByID(d, id); ok {
			return s.String
		}
	}
	return "???"
}

// getAceUse is get_ace_use's hook: the objects an ACE controls, and for
// RUSER/RLIST also those of every list containing it, recursively.
func getAceUse(r *Req) error {
	d := r.DB
	var uses [][]string
	switch r.s[0] {
	case db.ACEUser, db.ACERUser:
		u, ok := d.UserByLogin(r.s[1])
		if !ok {
			return mrerr.MrNoMatch
		}
		uses = aceUses(d, db.ACEUser, u.UsersID)
		if r.s[0] == db.ACERUser {
			// Recursively: every list the user is in may itself be an ACE.
			d.EachList(func(l *db.List) bool {
				if acl.IsUserInList(d, l.ListID, u.UsersID) {
					uses = append(uses, aceUses(d, db.ACEList, l.ListID)...)
				}
				return true
			})
		}
	case db.ACEList, db.ACERList:
		l, ok := d.ListByName(r.s[1])
		if !ok {
			return mrerr.MrNoMatch
		}
		uses = aceUses(d, db.ACEList, l.ListID)
		if r.s[0] == db.ACERList {
			d.EachList(func(outer *db.List) bool {
				if acl.IsListInList(d, outer.ListID, l.ListID) {
					uses = append(uses, aceUses(d, db.ACEList, outer.ListID)...)
				}
				return true
			})
		}
	default:
		return mrerr.MrType
	}
	// Deduplicate (recursive expansion can hit an object twice).
	seen := map[string]bool{}
	for _, t := range uses {
		if k := t[0] + "\x00" + t[1]; !seen[k] {
			seen[k] = true
			r.Row(txt(t[0]), txt(t[1]))
		}
	}
	return nil
}

// listsOfMember is get_lists_of_member's hook: the lists containing a
// member, and for the R* types the lists containing those, recursively.
func listsOfMember(r *Req) error {
	d := r.DB
	typ, recursive := r.s[0], true
	switch typ {
	case db.ACERUser:
		typ = db.ACEUser
	case db.ACERList:
		typ = db.ACEList
	case db.ACERStr:
		typ = db.ACEString
	case db.ACEUser, db.ACEList, db.ACEString:
		recursive = false
	default:
		return mrerr.MrType
	}
	id, err := memberResolve(d, typ, r.s[1], false)
	if err != nil {
		return err
	}
	if !recursive {
		// AddMember refuses duplicates: each list appears once.
		for _, lid := range d.ListsContaining(typ, id) {
			r.listFlags(lid)
		}
		return nil
	}
	// Also lists that contain (as sublists) a list the target is a member
	// of, transitively.
	frontier := d.ListsContaining(typ, id)
	seen := map[int]bool{}
	for _, lid := range frontier {
		seen[lid] = true
	}
	for len(frontier) > 0 {
		lid := frontier[0]
		frontier = frontier[1:]
		for _, outer := range d.ListsContaining(db.ACEList, lid) {
			if !seen[outer] {
				seen[outer] = true
				frontier = append(frontier, outer)
			}
		}
	}
	for lid := range seen {
		r.listFlags(lid)
	}
	return nil
}

// listFlags adds list lid's get_lists_of_member row.
func (r *Req) listFlags(lid int) {
	if l, ok := db.Lists.ByID(r.DB, lid); ok {
		r.Row(txt(l.Name), bit(l.Active), bit(l.Public), bit(l.Hidden), bit(l.Maillist), bit(l.Group))
	}
}
