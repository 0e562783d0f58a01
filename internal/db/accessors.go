package db

import (
	"slices"

	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

// The operations of the relation handles (Relation, Index), one per kind
// of access, run on the declarations in relation.go. Each read states its
// shape in the lookup tallies once: a probe of an index (by name, by id,
// by secondary key) is a point, a wildcard pattern a range of the ordered
// name index, a walk of every row a scan. Insert and Upsert tally the
// lookup that checks for the row; Delete, Edit, SetKey and NoteUpdate are
// handed their rows and read nothing. Every operation assumes the caller holds
// the database lock: shared for reads, exclusive for mutations. The query
// layer (internal/queries) takes it per query.

// Get returns the row filed under name (the first, in the relation's
// order, when names are not unique).
func (rel *Relation[R]) Get(d *DB, name string) (*R, bool) {
	d.NotePoint()
	return rel.of(&d.relations).byKey(name)
}

// ByID returns the row filed under id.
func (rel *Relation[R]) ByID(d *DB, id int) (*R, bool) {
	d.NotePoint()
	return rel.of(&d.relations).rows.get(id)
}

// Under calls fn for every row filed under name, in the relation's order
// (a label's filesystems by their order, a service's hosts by machine
// id), until fn returns false.
func (rel *Relation[R]) Under(d *DB, name string, fn func(*R) bool) {
	d.NotePoint()
	rel.of(&d.relations).eachRow(name, fn)
}

// Find returns the first row filed under name that p accepts.
func (rel *Relation[R]) Find(d *DB, name string, p func(*R) bool) (*R, bool) {
	var found *R
	rel.Under(d, name, func(r *R) bool {
		if p(r) {
			found = r
		}
		return found == nil
	})
	return found, found != nil
}

// Match calls fn for every row whose name matches pattern, in name order,
// until fn returns false: an exact name is a probe of the name index, a
// wildcard a range scan of the ordered names from the pattern's literal
// prefix instead of a scan of the whole relation.
func (rel *Relation[R]) Match(d *DB, pattern string, fn func(*R) bool) {
	n := rel.of(&d.relations)
	if !wildcard.HasWildcards(pattern) {
		d.NotePoint()
		n.eachRow(pattern, fn)
		return
	}
	d.NoteRange()
	matchNames(n.names(), pattern, func(name string) bool { return n.eachRow(name, fn) })
}

// Each calls fn for every row in the relation's dump order until fn
// returns false. fn must not insert or delete rows.
func (rel *Relation[R]) Each(d *DB, fn func(*R) bool) {
	d.NoteScan()
	rel.each(&d.relations, fn)
}

// First returns the first row in id order that p accepts: a scan that
// stops there, and needs no name order.
func (rel *Relation[R]) First(d *DB, p func(*R) bool) (*R, bool) {
	d.NoteScan()
	var found *R
	rel.of(&d.relations).rows.each(func(r *R) bool {
		if p(r) {
			found = r
		}
		return found == nil
	})
	return found, found != nil
}

// Insert adds row, filed under its id column or the next surrogate id:
// MR_INTERNAL for an id or key no table can hold, MR_EXISTS when its id
// or unique name is taken or the relation holds a row the same rule
// matches with it.
func (rel *Relation[R]) Insert(d *DB, row *R) error {
	if rel.scans() {
		d.NoteScan()
	} else {
		d.NotePoint()
	}
	if !rel.valid(row) {
		return mrerr.MrInternal
	}
	r, id := &d.relations, -1
	n := rel.of(r)
	if rel.id != nil {
		if id = rel.id(row); has(n.rows.get(id)) {
			return mrerr.MrExists
		}
	}
	if rel.unique && has(n.byKey(rel.key(row))) || rel.same != nil && rel.first(r, row, false) >= 0 {
		return mrerr.MrExists
	}
	rel.add(d, id, row)
	return nil
}

func has[R any](_ *R, ok bool) bool { return ok }

// Upsert files row under its name in place of the row that holds it,
// recorded as an update, or adds it, an append. The relation has no
// secondary index.
func (rel *Relation[R]) Upsert(d *DB, row *R) {
	d.NotePoint()
	if rel.of(&d.relations).upsert(row, d.bump()) {
		d.noteUpdate(rel.name)
	} else {
		d.NoteAppend(rel.name)
	}
}

// Delete removes rows, each a row of the relation, from it and every
// index, and records one delete (none for no rows).
func (rel *Relation[R]) Delete(d *DB, rows ...*R) {
	if len(rows) == 0 {
		return
	}
	r, w := &d.relations, d.bump()
	for _, row := range rows {
		rel.drop(r, rel.idOf(r, row), row, w)
	}
	d.NoteDelete(rel.name)
}

// Each calls fn for every row filed under key, in the index's order,
// until fn returns false.
func (x *Index[R, K]) Each(d *DB, key int, fn func(*R) bool) {
	d.NotePoint()
	rows := &x.rel.of(&d.relations).rows
	x.of(&d.relations).under(K(key), func(id int) bool {
		r, ok := rows.get(id)
		return !ok || fn(r)
	})
}

// Find returns the first row filed under key that p accepts.
func (x *Index[R, K]) Find(d *DB, key int, p func(*R) bool) (*R, bool) {
	var found *R
	x.Each(d, key, func(r *R) bool {
		if p(r) {
			found = r
		}
		return found == nil
	})
	return found, found != nil
}

// --- what the query layer resolves arguments through ---

// Resolve finds the rows a query argument names: a pattern (Match) when
// pattern is set and the relation's names are unique, else the rows filed
// under the exact name (Under); a label, a name that is not unique, is
// never a pattern. It returns the first row and how many it found,
// stopping at the second.
func (rel *Relation[R]) Resolve(d *DB, name string, pattern bool) (row any, n int) {
	count := func(r *R) bool {
		if n == 0 {
			row = r
		}
		n++
		return n < 2
	}
	if pattern && rel.unique {
		rel.Match(d, name, count)
	} else {
		rel.Under(d, name, count)
	}
	return row, n
}

// NameOf returns the name column of row, a *R.
func (rel *Relation[R]) NameOf(row any) string { return rel.key(row.(*R)) }

// Missing is the code a query returns for a name no row has.
func (rel *Relation[R]) Missing() error {
	if rel.missing == nil {
		return mrerr.MrNoMatch
	}
	return rel.missing
}

// --- the database's own accessors ---

// UserByLogin finds a user by exact login name.
func (d *DB) UserByLogin(login string) (*User, bool) { return Users.Get(d, login) }

// ListByName finds a list by exact name.
func (d *DB) ListByName(name string) (*List, bool) { return Lists.Get(d, name) }

// EachUser calls fn for every user in users_id order (Users.Each).
func (d *DB) EachUser(fn func(*User) bool) { Users.Each(d, fn) }

// EachList calls fn for every list in list_id order (Lists.Each).
func (d *DB) EachList(fn func(*List) bool) { Lists.Each(d, fn) }

// IsValidType reports whether value is registered as a TYPE alias
// translation for the named type-checked field: a probe of the aliases'
// name index.
func (d *DB) IsValidType(field, value string) bool {
	_, found := Aliases.Find(d, field, func(a *Alias) bool { return a.Type == "TYPE" && a.Trans == value })
	return found
}

// InternString returns the id for s, creating a row if needed. Exclusive
// lock required when the string may be new.
func (d *DB) InternString(s string) (int, error) {
	if str, ok := Strings.Get(d, s); ok {
		return str.StringID, nil
	}
	id, err := d.AllocID("strings_id")
	if err != nil {
		return 0, err
	}
	return id, Strings.Insert(d, &StringRec{StringID: id, String: s})
}

// --- members ---

// The members relation files a slice of membership rows per list, so it
// keeps its own operations.

// MembersOf returns the membership rows of a list (read-only).
func (d *DB) MembersOf(listID int) []Member {
	if ms, ok := d.members.get(listID); ok {
		return *ms
	}
	return nil
}

// ListsContaining returns ids of lists that directly contain the
// member, in list_id order — an inverted-index probe, not a scan over
// every membership row.
func (d *DB) ListsContaining(mtype string, mid int) []int {
	if t := memberType(mtype); t >= 0 && validRowID(mid) {
		return d.memberOf[t].ids(idKey(mid)) // in list_id order
	}
	return nil
}

// AddMember inserts a membership row; MR_EXISTS on duplicates.
func (d *DB) AddMember(listID int, mtype string, mid int) error {
	if !validRowID(listID) || !validRowID(mid) {
		return mrerr.MrInternal
	}
	m := Member{ListID: listID, MemberType: mtype, MemberID: mid}
	if slices.Contains(d.MembersOf(listID), m) {
		return mrerr.MrExists
	}
	w := d.bump()
	push(&d.members, listID, m, w)
	if t := memberType(mtype); t >= 0 {
		d.memberOf[t].add(idKey(mid), listID, nil, w)
	}
	d.NoteAppend(TMembers)
	return nil
}

// DeleteMember removes a membership row; MR_NO_MATCH if absent.
func (d *DB) DeleteMember(listID int, mtype string, mid int) error {
	m := Member{ListID: listID, MemberType: mtype, MemberID: mid}
	if !slices.Contains(d.MembersOf(listID), m) {
		return mrerr.MrNoMatch
	}
	w := d.bump()
	pull(&d.members, listID, func(x Member) bool { return x == m }, w)
	d.dropMembership(m, w)
	d.NoteDelete(TMembers)
	return nil
}

// DeleteList removes a list row and its membership rows.
func (d *DB) DeleteList(l *List) {
	w := d.bump()
	for _, m := range d.MembersOf(l.ListID) {
		d.dropMembership(m, w)
	}
	d.members.del(l.ListID, w)
	Lists.Delete(d, l)
}

// dropMembership removes one membership row from the member index.
func (d *DB) dropMembership(m Member, w stamp) {
	if t := memberType(m.MemberType); t >= 0 {
		d.memberOf[t].remove(idKey(m.MemberID), m.ListID, w)
	}
}
