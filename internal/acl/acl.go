// Package acl implements Moira's access control: access control entities
// (ACEs) of type USER, LIST, or NONE attached to objects, recursive list
// membership, and the CAPACLS relation that maps each predefined query to
// the list of principals allowed to execute it (section 5.5 and the
// CAPACLS table of section 6).
//
// All functions take the database with the caller already holding at
// least a shared lock, consistent with the rest of the query layer.
package acl

import (
	"moira/internal/db"
	"moira/internal/mrerr"
)

// IsUserInList reports whether the user is a member of the list, directly
// or through recursively expanded sublists. Cycles in list membership are
// tolerated (each list is visited once).
func IsUserInList(d *db.DB, listID, usersID int) bool {
	visited := make(map[int]bool)
	return userInList(d, listID, usersID, visited)
}

func userInList(d *db.DB, listID, usersID int, visited map[int]bool) bool {
	if visited[listID] {
		return false
	}
	visited[listID] = true
	for _, m := range d.MembersOf(listID) {
		switch m.MemberType {
		case db.ACEUser:
			if m.MemberID == usersID {
				return true
			}
		case db.ACEList:
			if userInList(d, m.MemberID, usersID, visited) {
				return true
			}
		}
	}
	return false
}

// IsListInList reports whether inner appears as a member of outer,
// directly or through recursively expanded sublists.
func IsListInList(d *db.DB, outerID, innerID int) bool {
	visited := make(map[int]bool)
	return listInList(d, outerID, innerID, visited)
}

func listInList(d *db.DB, outerID, innerID int, visited map[int]bool) bool {
	if visited[outerID] {
		return false
	}
	visited[outerID] = true
	for _, m := range d.MembersOf(outerID) {
		if m.MemberType != db.ACEList {
			continue
		}
		if m.MemberID == innerID || listInList(d, m.MemberID, innerID, visited) {
			return true
		}
	}
	return false
}

// CheckACE reports whether the user satisfies the ACE: for USER the ids
// must match, for LIST the user must be a (recursive) member, and NONE
// never grants access.
func CheckACE(d *db.DB, aceType string, aceID, usersID int) bool {
	switch aceType {
	case db.ACEUser:
		return aceID == usersID && usersID != 0
	case db.ACEList:
		return IsUserInList(d, aceID, usersID)
	default:
		return false
	}
}

// ResolveACE validates an (ace_type, ace_name) pair from a client and
// returns the canonical type and the resolved id. It fails with MR_ACE
// when the type is not USER/LIST/NONE or the name cannot be resolved.
func ResolveACE(d *db.DB, aceType, aceName string) (string, int, error) {
	switch aceType {
	case db.ACEUser:
		u, ok := d.UserByLogin(aceName)
		if !ok {
			return "", 0, mrerr.MrACE
		}
		return db.ACEUser, u.UsersID, nil
	case db.ACEList:
		l, ok := d.ListByName(aceName)
		if !ok {
			return "", 0, mrerr.MrACE
		}
		return db.ACEList, l.ListID, nil
	case db.ACENone:
		return db.ACENone, 0, nil
	default:
		return "", 0, mrerr.MrACE
	}
}

// NameOfACE renders an ACE back to the name form returned by queries:
// the login name, the list name, or "NONE". Dangling ids render as "???".
func NameOfACE(d *db.DB, aceType string, aceID int) string {
	switch aceType {
	case db.ACEUser:
		if u, ok := db.Users.ByID(d, aceID); ok {
			return u.Login
		}
		return "???"
	case db.ACEList:
		if l, ok := db.Lists.ByID(d, aceID); ok {
			return l.Name
		}
		return "???"
	default:
		return db.ACENone
	}
}

// CheckCapability reports whether the user may exercise the named
// capability according to the CAPACLS relation. A capability with no
// CAPACLS row grants no one (write queries are installed with explicit
// rows at bootstrap; read-only queries typically skip this check).
func CheckCapability(d *db.DB, capability string, usersID int) bool {
	c, ok := db.CapACLs.Get(d, capability)
	if !ok {
		return false
	}
	return IsUserInList(d, c.ListID, usersID)
}

// ExpandMembers flattens a list recursively into its USER and STRING
// members, the expansion used when generating zephyr ACL files and
// mailing lists ("Recursive lists will be expanded"). The result
// preserves first-encounter order; each member appears once.
func ExpandMembers(d *db.DB, listID int) []db.Member {
	var out []db.Member
	seen := make(map[db.Member]bool)
	visited := make(map[int]bool)
	var walk func(id int)
	walk = func(id int) {
		if visited[id] {
			return
		}
		visited[id] = true
		for _, m := range d.MembersOf(id) {
			if m.MemberType == db.ACEList {
				walk(m.MemberID)
				continue
			}
			key := db.Member{MemberType: m.MemberType, MemberID: m.MemberID}
			if !seen[key] {
				seen[key] = true
				out = append(out, m)
			}
		}
	}
	walk(listID)
	return out
}
