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

func matchLists(d *db.DB, pattern string) []*db.List {
	return d.ListsMatchingName(pattern)
}

func oneList(d *db.DB, name string) (*db.List, error) {
	ls := matchLists(d, name)
	switch len(ls) {
	case 0:
		return nil, mrerr.MrList
	case 1:
		return ls[0], nil
	default:
		return nil, mrerr.MrNotUnique
	}
}

// onListACE reports whether the caller satisfies the list's ACE.
func onListACE(cx *Context, l *db.List) bool {
	if cx.Privileged {
		return true
	}
	return acl.CheckACE(cx.DB, l.ACLType, l.ACLID, cx.UserID)
}

// listTuple renders the get_list_info return row.
func listTuple(d *db.DB, l *db.List) []string {
	return []string{
		l.Name, b2s(l.Active), b2s(l.Public), b2s(l.Hidden), b2s(l.Maillist),
		b2s(l.Group), i2s(l.GID), l.ACLType, acl.NameOfACE(d, l.ACLType, l.ACLID),
		l.Desc, i642s(l.Mod.Time), l.Mod.By, l.Mod.With,
	}
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
		if id, ok := d.StringID(name); ok {
			return id, nil
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
		if u, ok := d.UserByID(id); ok {
			return u.Login
		}
	case db.ACEList:
		if l, ok := d.ListByID(id); ok {
			return l.Name
		}
	case db.ACEString:
		if s, ok := d.StringByID(id); ok {
			return s.String
		}
	}
	return "???"
}

// resolveListACEArgs validates the (ace_type, ace_name) argument pair of
// add_list/update_list, allowing the self-referential case where the
// access list is the list being created or renamed.
func resolveListACEArgs(d *db.DB, aceType, aceName, selfName string) (string, int, bool, error) {
	if aceType == db.ACEList && aceName == selfName {
		return db.ACEList, 0, true, nil // self-referential; fix up after insert
	}
	typ, id, err := acl.ResolveACE(d, aceType, aceName)
	return typ, id, false, err
}

func init() {
	register(&Query{
		Name: "get_list_info", Short: "glin", Kind: Retrieve,
		Args: []string{"list"},
		Returns: []string{"list", "active", "public", "hidden", "maillist", "group",
			"gid", "ace_type", "ace_name", "description", "modtime", "modby", "modwith"},
		Access: accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			onQueryACL := cx.onACL("get_list_info")
			if wildcard.HasWildcards(args[0]) && !onQueryACL {
				return mrerr.MrPerm
			}
			ls := matchLists(cx.DB, args[0])
			if len(ls) == 0 {
				return mrerr.MrNoMatch
			}
			var tuples [][]string
			for _, l := range ls {
				if l.Hidden && !onQueryACL && !onListACE(cx, l) {
					continue
				}
				tuples = append(tuples, listTuple(cx.DB, l))
			}
			if len(tuples) == 0 {
				return mrerr.MrPerm
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "expand_list_names", Short: "exln", Kind: Retrieve,
		Args:    []string{"list"},
		Returns: []string{"list"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			var tuples [][]string
			for _, l := range matchLists(cx.DB, args[0]) {
				if l.Hidden && !cx.onACL("expand_list_names") && !onListACE(cx, l) {
					continue
				}
				tuples = append(tuples, []string{l.Name})
			}
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_list", Short: "alis", Kind: Append,
		Args: []string{"list", "active", "public", "hidden", "maillist", "group",
			"gid", "ace_type", "ace_name", "description"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			name := args[0]
			if err := checkNameChars(name); err != nil {
				return err
			}
			if _, dup := d.ListByName(name); dup {
				return mrerr.MrExists
			}
			active, err := parseBool(args[1])
			if err != nil {
				return err
			}
			public, err := parseBool(args[2])
			if err != nil {
				return err
			}
			hidden, err := parseBool(args[3])
			if err != nil {
				return err
			}
			maillist, err := parseBool(args[4])
			if err != nil {
				return err
			}
			group, err := parseBool(args[5])
			if err != nil {
				return err
			}
			gid, err := parseInt(args[6])
			if err != nil {
				return err
			}
			if group && args[6] == UniqueGID {
				if gid, err = d.AllocID("gid"); err != nil {
					return err
				}
			}
			aceType, aceID, selfRef, err := resolveListACEArgs(d, args[7], args[8], name)
			if err != nil {
				return err
			}
			id, err := d.AllocID("list_id")
			if err != nil {
				return err
			}
			if selfRef {
				aceID = id
			}
			l := &db.List{
				ListID: id, Name: name, Active: active, Public: public,
				Hidden: hidden, Maillist: maillist, Group: group, GID: gid,
				Desc: args[9], ACLType: aceType, ACLID: aceID, Mod: cx.modInfo(),
			}
			return d.InsertList(l)
		},
	})

	register(&Query{
		Name: "update_list", Short: "ulis", Kind: Update,
		Args: []string{"list", "newname", "active", "public", "hidden", "maillist",
			"group", "gid", "ace_type", "ace_name", "description"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("update_list") {
				return nil
			}
			l, err := oneList(cx.DB, args[0])
			if err != nil {
				return err
			}
			if onListACE(cx, l) {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			l, err := oneList(d, args[0])
			if err != nil {
				return err
			}
			newname := args[1]
			if err := checkNameChars(newname); err != nil {
				return err
			}
			if newname != l.Name {
				if _, dup := d.ListByName(newname); dup {
					return mrerr.MrNotUnique
				}
			}
			active, err := parseBool(args[2])
			if err != nil {
				return err
			}
			public, err := parseBool(args[3])
			if err != nil {
				return err
			}
			hidden, err := parseBool(args[4])
			if err != nil {
				return err
			}
			maillist, err := parseBool(args[5])
			if err != nil {
				return err
			}
			group, err := parseBool(args[6])
			if err != nil {
				return err
			}
			gid, err := parseInt(args[7])
			if err != nil {
				return err
			}
			if group && args[7] == UniqueGID {
				if gid, err = d.AllocID("gid"); err != nil {
					return err
				}
			}
			aceType, aceID, selfRef, err := resolveListACEArgs(d, args[8], args[9], newname)
			if err != nil {
				return err
			}
			if selfRef {
				aceID = l.ListID
			}
			if newname != l.Name {
				d.RenameList(l, newname)
			}
			l.Active, l.Public, l.Hidden = active, public, hidden
			l.Maillist, l.Group, l.GID = maillist, group, gid
			l.ACLType, l.ACLID = aceType, aceID
			l.Desc = args[10]
			l.Mod = cx.modInfo()
			d.NoteUpdate(l)
			return nil
		},
	})

	register(&Query{
		Name: "delete_list", Short: "dlis", Kind: Delete,
		Args: []string{"list"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("delete_list") {
				return nil
			}
			l, err := oneList(cx.DB, args[0])
			if err != nil {
				return err
			}
			if onListACE(cx, l) {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			l, err := oneList(d, args[0])
			if err != nil {
				return err
			}
			if len(d.MembersOf(l.ListID)) > 0 {
				return mrerr.MrInUse
			}
			if len(d.ListsContaining(db.ACEList, l.ListID)) > 0 {
				return mrerr.MrInUse
			}
			// A self-referential ACE does not block deletion.
			for _, use := range aceUses(d, db.ACEList, l.ListID) {
				if use[0] == "LIST" && use[1] == l.Name {
					continue
				}
				return mrerr.MrInUse
			}
			d.DeleteList(l)
			return nil
		},
	})

	register(&Query{
		Name: "add_member_to_list", Short: "amtl", Kind: Append,
		Args: []string{"list", "type", "member"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("add_member_to_list") {
				return nil
			}
			l, err := oneList(cx.DB, args[0])
			if err != nil {
				return err
			}
			if onListACE(cx, l) {
				return nil
			}
			// Anyone may add themselves to a public list.
			if l.Public && args[1] == db.ACEUser && args[2] == cx.Principal && cx.UserID != 0 {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			l, err := oneList(d, args[0])
			if err != nil {
				return err
			}
			mtype := args[1]
			id, err := memberResolve(d, mtype, args[2], true)
			if err != nil {
				return err
			}
			if err := d.AddMember(l.ListID, mtype, id); err != nil {
				return err
			}
			l.Mod = cx.modInfo()
			d.NoteUpdate(l)
			return nil
		},
	})

	register(&Query{
		Name: "delete_member_from_list", Short: "dmfl", Kind: Delete,
		Args: []string{"list", "type", "member"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("delete_member_from_list") {
				return nil
			}
			l, err := oneList(cx.DB, args[0])
			if err != nil {
				return err
			}
			if onListACE(cx, l) {
				return nil
			}
			if l.Public && args[1] == db.ACEUser && args[2] == cx.Principal && cx.UserID != 0 {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			l, err := oneList(d, args[0])
			if err != nil {
				return err
			}
			mtype := args[1]
			if mtype != db.ACEUser && mtype != db.ACEList && mtype != db.ACEString {
				return mrerr.MrType
			}
			id, err := memberResolve(d, mtype, args[2], false)
			if err != nil {
				return err
			}
			if err := d.DeleteMember(l.ListID, mtype, id); err != nil {
				return err
			}
			l.Mod = cx.modInfo()
			d.NoteUpdate(l)
			return nil
		},
	})

	register(&Query{
		Name: "get_ace_use", Short: "gaus", Kind: Retrieve,
		Args:    []string{"ace_type", "ace_name"},
		Returns: []string{"object_type", "object_name"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("get_ace_use") {
				return nil
			}
			switch args[0] {
			case db.ACEUser, db.ACERUser:
				if cx.Principal != "" && args[1] == cx.Principal {
					return nil
				}
			case db.ACEList, db.ACERList:
				if l, ok := cx.DB.ListByName(args[1]); ok && onListACE(cx, l) {
					return nil
				}
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			var tuples [][]string
			switch args[0] {
			case db.ACEUser:
				u, ok := d.UserByLogin(args[1])
				if !ok {
					return mrerr.MrNoMatch
				}
				tuples = aceUses(d, db.ACEUser, u.UsersID)
			case db.ACEList:
				l, ok := d.ListByName(args[1])
				if !ok {
					return mrerr.MrNoMatch
				}
				tuples = aceUses(d, db.ACEList, l.ListID)
			case db.ACERUser:
				u, ok := d.UserByLogin(args[1])
				if !ok {
					return mrerr.MrNoMatch
				}
				tuples = aceUses(d, db.ACEUser, u.UsersID)
				// Recursively: every list the user is in may itself be an ACE.
				d.EachList(func(l *db.List) bool {
					if acl.IsUserInList(d, l.ListID, u.UsersID) {
						tuples = append(tuples, aceUses(d, db.ACEList, l.ListID)...)
					}
					return true
				})
			case db.ACERList:
				l, ok := d.ListByName(args[1])
				if !ok {
					return mrerr.MrNoMatch
				}
				tuples = aceUses(d, db.ACEList, l.ListID)
				d.EachList(func(outer *db.List) bool {
					if acl.IsListInList(d, outer.ListID, l.ListID) {
						tuples = append(tuples, aceUses(d, db.ACEList, outer.ListID)...)
					}
					return true
				})
			default:
				return mrerr.MrType
			}
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			// Deduplicate (recursive expansion can hit an object twice).
			seen := map[string]bool{}
			var uniq [][]string
			for _, t := range tuples {
				k := t[0] + "\x00" + t[1]
				if !seen[k] {
					seen[k] = true
					uniq = append(uniq, t)
				}
			}
			return emitSorted(uniq, emit)
		},
	})

	register(&Query{
		Name: "qualified_get_lists", Short: "qgli", Kind: Retrieve,
		Args:    []string{"active", "public", "hidden", "maillist", "group"},
		Returns: []string{"list"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("qualified_get_lists") {
				return nil
			}
			// Any user may run this with active TRUE and hidden FALSE.
			a, err1 := parseTri(args[0])
			h, err2 := parseTri(args[2])
			if err1 == nil && err2 == nil && a == triTrue && h == triFalse {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			var tri [5]triState
			for i := range tri {
				t, err := parseTri(args[i])
				if err != nil {
					return err
				}
				tri[i] = t
			}
			var tuples [][]string
			cx.DB.EachList(func(l *db.List) bool {
				if tri[0].matches(l.Active) && tri[1].matches(l.Public) &&
					tri[2].matches(l.Hidden) && tri[3].matches(l.Maillist) &&
					tri[4].matches(l.Group) {
					tuples = append(tuples, []string{l.Name})
				}
				return true
			})
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "get_members_of_list", Short: "gmol", Kind: Retrieve,
		Args:    []string{"list"},
		Returns: []string{"type", "value"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("get_members_of_list") {
				return nil
			}
			l, err := oneList(cx.DB, args[0])
			if err != nil {
				return err
			}
			if !l.Hidden || onListACE(cx, l) {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			l, err := oneList(d, args[0])
			if err != nil {
				return err
			}
			var tuples [][]string
			for _, m := range d.MembersOf(l.ListID) {
				tuples = append(tuples, []string{m.MemberType, memberName(d, m.MemberType, m.MemberID)})
			}
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "get_lists_of_member", Short: "glom", Kind: Retrieve,
		Args:    []string{"type", "member"},
		Returns: []string{"list", "active", "public", "hidden", "maillist", "group"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("get_lists_of_member") {
				return nil
			}
			switch args[0] {
			case db.ACEUser, db.ACERUser:
				if cx.Principal != "" && args[1] == cx.Principal {
					return nil
				}
			case db.ACEList, db.ACERList:
				if l, ok := cx.DB.ListByName(args[1]); ok && onListACE(cx, l) {
					return nil
				}
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			typ := args[0]
			recursive := false
			switch typ {
			case db.ACERUser:
				typ, recursive = db.ACEUser, true
			case db.ACERList:
				typ, recursive = db.ACEList, true
			case db.ACERStr:
				typ, recursive = db.ACEString, true
			case db.ACEUser, db.ACEList, db.ACEString:
			default:
				return mrerr.MrType
			}
			id, err := memberResolve(d, typ, args[1], false)
			if err != nil {
				return err
			}
			direct := d.ListsContaining(typ, id)
			seen := map[int]bool{}
			for _, lid := range direct {
				seen[lid] = true
			}
			if recursive {
				// Also lists that contain (as sublists) a list the target
				// is a member of, transitively.
				frontier := append([]int(nil), direct...)
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
			}
			var tuples [][]string
			for lid := range seen {
				if l, ok := d.ListByID(lid); ok {
					tuples = append(tuples, []string{
						l.Name, b2s(l.Active), b2s(l.Public), b2s(l.Hidden),
						b2s(l.Maillist), b2s(l.Group),
					})
				}
			}
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "count_members_of_list", Short: "cmol", Kind: Retrieve,
		Args:    []string{"list"},
		Returns: []string{"count"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("count_members_of_list") {
				return nil
			}
			l, err := oneList(cx.DB, args[0])
			if err != nil {
				return err
			}
			if !l.Hidden || onListACE(cx, l) {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			l, err := oneList(cx.DB, args[0])
			if err != nil {
				return err
			}
			return emit([]string{i2s(len(cx.DB.MembersOf(l.ListID)))})
		},
	})
}
