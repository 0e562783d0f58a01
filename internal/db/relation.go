package db

import (
	"bufio"
	"cmp"
	"fmt"
	"slices"

	"moira/internal/mrerr"
)

// Every relation is declared once, in relationList: its table name,
// where its tables live, its columns (the row type's columns method,
// records.go), its id and name columns, its secondary indexes, its dump
// order, its uniqueness rule and its load rule. Creating the empty
// relations, freezing a snapshot, deriving the indexes, fsck's page and
// index audits, the dump and the restore all iterate that list, so
// adding a relation is one declaration plus its row type's columns
// method. The declarations are also the exported handles (Users,
// UsersByUID, ...) through which every lookup, walk and mutation runs
// (accessors.go); only this file and index.go change a relation's rows.

// relation is one entry of relationList. freeze sets the relation's
// tables in f to frozen copies of r's that share with prev every page not
// stamped after since; diff walks the
// rows that differ between two frozen generations (Diff); rebuild moves
// the tables into epoch and derives the indexes; load installs one dump
// line's row, maintaining only the indexes the load itself needs.
type relation interface {
	tableName() string
	init(r *relations) // install the empty tables
	freeze(f, r, prev *relations, since int64)
	diff(a, b *relations, fn func(o, n any) bool) int
	rebuild(r *relations, w stamp)
	audit(r *relations, add finding)
	dump(d *DB, f *fields, w *bufio.Writer) error
	load(d *DB, f *fields, line []byte) error
}

// finding is fsck's report callback.
type finding = func(table, item, format string, args ...any)

// loadRule is how a load files a relation's rows.
type loadRule int

const (
	ownID     loadRule = iota // under the id column; a later row replaces one with its id
	surrogate                 // under the next surrogate id, so id order is dump order
	upsert                    // under the name; a later row replaces one with its name
)

// Relation is the handle of a relation of single rows, stored in a
// rowset: its declaration, and the operations every such relation
// offers (accessors.go). The handles are the package's exported
// variables (Users, Machines, ...).
type Relation[R comparable] struct {
	name string
	of   func(*relations) *rowset[R]
	cols func(*R, *fields)
	id   func(*R) int // the id column; nil: surrogate ids
	// key is the name index's column (nil: none), order sorts the rows
	// sharing a name (nil: by id), and unique says a name is filed under
	// one row at most.
	key    func(*R) string
	order  func(a, b *R) int
	unique bool
	// same says two rows may not both be filed, beyond their id and
	// unique name (nil: no such rule). For a relation with neither, it
	// is what makes a row the same row.
	same    func(a, b *R) bool
	missing error // a query's code for a name no row has; nil: MR_NO_MATCH
	loadBy  loadRule
	// The dump order, which Each walks too: id order, unless byName (name
	// order) or byKey (the order of that index, key by key).
	byName  bool
	byKey   func(*relations) *hashIndex[idKey]
	indexes []secondary[R]
}

// secondary is a single-key secondary index (Index) as its relation's
// maintenance, freeze, rebuild and audit see it.
type secondary[R any] interface {
	key(row *R) int
	valid(key int) bool // the key can be filed (hashKey.valid)
	add(r *relations, key, id int, w stamp)
	remove(r *relations, key, id int, w stamp)
	move(r *relations, from, to, id int, w stamp)
	// first returns the id of the first row under row's key that is row
	// (live) or that the relation's same rule matches with row, -1 when
	// there is none.
	first(r *relations, row *R, live bool) int
	freeze(f, r, prev *relations, since int64)
	rebuild(r *relations, w stamp)
	audit(r *relations, add finding)
}

// maxSecondary is the most secondary indexes a relation declares.
const maxSecondary = 2

// Index is the handle of a secondary index on the column col: it files
// each row's id under its key, the rows under one key in order (nil: id
// order). Its operations are in accessors.go.
type Index[R comparable, K indexKey] struct {
	rel   *Relation[R]
	what  string // the column, as fsck names it
	of    func(*relations) *hashIndex[K]
	col   func(*R) K
	order func(a, b *R) int
}

// indexKey is the key type of a secondary index: an id or a uid.
type indexKey interface {
	hashKey
	~int
}

// index declares a secondary index of rel and adds it to rel's indexes.
func index[R comparable, K indexKey](rel *Relation[R], what string, of func(*relations) *hashIndex[K], col func(*R) K, order func(a, b *R) int) *Index[R, K] {
	x := &Index[R, K]{rel, what, of, col, order}
	rel.indexes = append(rel.indexes, x)
	return x
}

// equal is the same rule of a relation whose rows are whole values.
func equal[R comparable](a, b *R) bool { return *a == *b }

// The relations and their secondary indexes. Each index is declared right
// after its relation, so that it is added to the relation's indexes
// before anything reads them.
var (
	Users = &Relation[User]{
		name: TUsers, of: func(r *relations) *rowset[User] { return &r.users }, cols: (*User).columns,
		id: func(u *User) int { return u.UsersID }, key: func(u *User) string { return u.Login }, unique: true,
		missing: mrerr.MrUser,
	}
	UsersByUID = index(Users, "uid", func(r *relations) *hashIndex[uidKey] { return &r.uids },
		func(u *User) uidKey { return uidKey(u.UID) }, nil)
	Machines = &Relation[Machine]{
		name: TMachine, of: func(r *relations) *rowset[Machine] { return &r.machines }, cols: (*Machine).columns,
		id: func(m *Machine) int { return m.MachID }, key: func(m *Machine) string { return m.Name }, unique: true,
		missing: mrerr.MrMachine,
	}
	Clusters = &Relation[Cluster]{
		name: TCluster, of: func(r *relations) *rowset[Cluster] { return &r.clusters }, cols: (*Cluster).columns,
		id: func(c *Cluster) int { return c.CluID }, key: func(c *Cluster) string { return c.Name }, unique: true,
		missing: mrerr.MrCluster,
	}
	MCMaps = &Relation[MCMap]{
		name: TMCMap, of: func(r *relations) *rowset[MCMap] { return &r.mcmap }, cols: (*MCMap).columns,
		same: equal[MCMap], loadBy: surrogate,
	}
	MCMapsByMachine = index(MCMaps, "machine", func(r *relations) *hashIndex[idKey] { return &r.mcOfMach },
		func(m *MCMap) idKey { return idKey(m.MachID) }, func(a, b *MCMap) int { return cmp.Compare(a.CluID, b.CluID) })
	MCMapsByCluster = index(MCMaps, "cluster", func(r *relations) *hashIndex[idKey] { return &r.mcOfClu },
		func(m *MCMap) idKey { return idKey(m.CluID) }, func(a, b *MCMap) int { return cmp.Compare(a.MachID, b.MachID) })
	Svc = &Relation[SvcData]{
		name: TSvc, of: func(r *relations) *rowset[SvcData] { return &r.svc }, cols: (*SvcData).columns,
		same: equal[SvcData], loadBy: surrogate,
	}
	Lists = &Relation[List]{
		name: TList, of: func(r *relations) *rowset[List] { return &r.lists }, cols: (*List).columns,
		id: func(l *List) int { return l.ListID }, key: func(l *List) string { return l.Name }, unique: true,
		missing: mrerr.MrList,
	}
	Servers = &Relation[Server]{
		name: TServers, of: func(r *relations) *rowset[Server] { return &r.servers }, cols: (*Server).columns,
		key: func(s *Server) string { return s.Name }, unique: true, missing: mrerr.MrService,
		loadBy: upsert, byName: true,
	}
	ServerHosts = &Relation[ServerHost]{
		name: TServerHosts, of: func(r *relations) *rowset[ServerHost] { return &r.serverHosts }, cols: (*ServerHost).columns,
		key: func(sh *ServerHost) string { return sh.Service }, order: func(a, b *ServerHost) int { return cmp.Compare(a.MachID, b.MachID) },
		same:   func(a, b *ServerHost) bool { return a.Service == b.Service && a.MachID == b.MachID },
		loadBy: surrogate, byName: true,
	}
	Filesystems = &Relation[Filesys]{
		name: TFilesys, of: func(r *relations) *rowset[Filesys] { return &r.filesys }, cols: (*Filesys).columns,
		id: func(f *Filesys) int { return f.FilsysID }, key: func(f *Filesys) string { return f.Label },
		order:   func(a, b *Filesys) int { return cmp.Compare(a.Order, b.Order) },
		same:    func(a, b *Filesys) bool { return a.Label == b.Label && a.Order == b.Order },
		missing: mrerr.MrFilesys,
	}
	Partitions = &Relation[NFSPhys]{
		name: TNFSPhys, of: func(r *relations) *rowset[NFSPhys] { return &r.nfsphys }, cols: (*NFSPhys).columns,
		id:   func(p *NFSPhys) int { return p.NFSPhysID },
		same: func(a, b *NFSPhys) bool { return a.MachID == b.MachID && a.Dir == b.Dir },
	}
	Quotas = &Relation[NFSQuota]{
		name: TNFSQuota, of: func(r *relations) *rowset[NFSQuota] { return &r.quotas }, cols: (*NFSQuota).columns,
		same:   func(a, b *NFSQuota) bool { return a.FilsysID == b.FilsysID && a.UsersID == b.UsersID },
		loadBy: surrogate, byKey: func(r *relations) *hashIndex[idKey] { return &r.quotasOnFS },
	}
	QuotasByFilesys = index(Quotas, "filesys", func(r *relations) *hashIndex[idKey] { return &r.quotasOnFS },
		func(q *NFSQuota) idKey { return idKey(q.FilsysID) }, func(a, b *NFSQuota) int { return cmp.Compare(a.UsersID, b.UsersID) })
	QuotasByUser = index(Quotas, "user", func(r *relations) *hashIndex[idKey] { return &r.quotasOfUser },
		func(q *NFSQuota) idKey { return idKey(q.UsersID) }, func(a, b *NFSQuota) int { return cmp.Compare(a.FilsysID, b.FilsysID) })
	ZephyrClasses = &Relation[ZephyrClass]{
		name: TZephyr, of: func(r *relations) *rowset[ZephyrClass] { return &r.zephyr }, cols: (*ZephyrClass).columns,
		key: func(z *ZephyrClass) string { return z.Class }, unique: true, loadBy: upsert, byName: true,
	}
	HostAccesses = &Relation[HostAccess]{
		name: THostAccess, of: func(r *relations) *rowset[HostAccess] { return &r.hostaccess }, cols: (*HostAccess).columns,
		id: func(h *HostAccess) int { return h.MachID },
	}
	Strings = &Relation[StringRec]{
		name: TStrings, of: func(r *relations) *rowset[StringRec] { return &r.strings }, cols: (*StringRec).columns,
		id: func(s *StringRec) int { return s.StringID }, key: func(s *StringRec) string { return s.String }, unique: true,
	}
	Services = &Relation[Service]{
		name: TServices, of: func(r *relations) *rowset[Service] { return &r.services }, cols: (*Service).columns,
		key: func(s *Service) string { return s.Name }, unique: true, loadBy: upsert, byName: true,
	}
	Printcaps = &Relation[Printcap]{
		name: TPrintcap, of: func(r *relations) *rowset[Printcap] { return &r.printcaps }, cols: (*Printcap).columns,
		key: func(p *Printcap) string { return p.Name }, unique: true, loadBy: upsert, byName: true,
	}
	CapACLs = &Relation[CapACL]{
		name: TCapACLs, of: func(r *relations) *rowset[CapACL] { return &r.capacls }, cols: (*CapACL).columns,
		key: func(c *CapACL) string { return c.Capability }, unique: true, loadBy: upsert, byName: true,
	}
	Aliases = &Relation[Alias]{
		name: TAlias, of: func(r *relations) *rowset[Alias] { return &r.aliases }, cols: (*Alias).columns,
		key: func(a *Alias) string { return a.Name }, same: equal[Alias], loadBy: surrogate,
	}
	valuesRel = &Relation[value]{
		name: TValues, of: func(r *relations) *rowset[value] { return &r.values }, cols: (*value).columns,
		key: func(v *value) string { return v.Name }, unique: true, loadBy: upsert, byName: true,
	}
	statsRel = &Relation[TblStat]{
		name: TTblStats, of: func(r *relations) *rowset[TblStat] { return &r.stats }, cols: (*TblStat).columns,
		key: func(s *TblStat) string { return s.Table }, unique: true, loadBy: upsert, byName: true,
	}
)

// relationList is every relation, in backup order.
var relationList = []relation{
	Users, Machines, Clusters, MCMaps, Svc, Lists, memberRelation{},
	Servers, ServerHosts, Filesystems, Partitions, Quotas, ZephyrClasses,
	HostAccesses, Strings, Services, Printcaps, CapACLs, Aliases,
	valuesRel, statsRel,
}

// tableNames lists the relations' names in backup order.
func tableNames() (names []string) {
	for _, rel := range relationList {
		names = append(names, rel.tableName())
	}
	return names
}

// --- Relation ---

func (rel *Relation[R]) tableName() string { return rel.name }

func (rel *Relation[R]) init(r *relations) { *rel.of(r) = newRowset(rel.key, rel.order) }

func (rel *Relation[R]) freeze(f, r, prev *relations, since int64) {
	*rel.of(f) = rel.of(r).freeze(rel.of(prev), since)
	for _, x := range rel.indexes {
		x.freeze(f, r, prev, since)
	}
}

// diff yields each row whose value differs, boxed as *R.
func (rel *Relation[R]) diff(a, b *relations, fn func(o, n any) bool) int {
	return rel.of(a).rows.diff(&rel.of(b).rows, func(o, n *R) bool {
		if o != nil && n != nil && *o == *n {
			return true
		}
		return fn(boxed(o), boxed(n))
	})
}

// boxed returns r as an interface, nil for a nil r.
func boxed[R any](r *R) any {
	if r == nil {
		return nil
	}
	return r
}

func (rel *Relation[R]) rebuild(r *relations, w stamp) {
	rel.of(r).rebuild(w)
	for _, x := range rel.indexes {
		x.rebuild(r, w)
	}
}

// audit checks the pages (against the id column, when the rows carry
// their id), the name index, and the secondary indexes; for a relation of
// unique names, a name filed under more than one row is a finding too: a
// probe by that name reaches only the first.
func (rel *Relation[R]) audit(r *relations, add finding) {
	n := rel.of(r)
	n.rows.audit(rel.name, rel.id, add)
	if rel.key != nil {
		auditIndex(add, rel.name, "name", &n.byName, &n.rows, func(row *R) strKey { return strKey(rel.key(row)) })
	}
	if rel.unique {
		n.byName.each(func(b *[]entry[strKey]) bool {
			for i := 1; i < len(*b); i++ {
				if e := (*b)[i]; e.key == (*b)[i-1].key {
					add(rel.name, string(e.key), "name is filed under more than one row (ids %d and %d)", (*b)[i-1].id, e.id)
				}
			}
			return true
		})
	}
	for _, x := range rel.indexes {
		x.audit(r, add)
	}
}

func (rel *Relation[R]) dump(d *DB, f *fields, w *bufio.Writer) error {
	var err error
	rel.each(&d.relations, func(row *R) bool {
		f.encode()
		rel.cols(row, f)
		err = f.write(w)
		return err == nil
	})
	return err
}

// each calls fn for every row in dump order until fn returns false: id
// order, name order (byName), or key by key of the byKey index.
func (rel *Relation[R]) each(r *relations, fn func(*R) bool) {
	n := rel.of(r)
	switch {
	case rel.byName:
		n.eachByName(fn)
	case rel.byKey != nil:
		rel.byKey(r).each(func(b *[]entry[idKey]) bool {
			for _, e := range *b {
				if row, ok := n.rows.get(e.id); ok && !fn(row) {
					return false
				}
			}
			return true
		})
	default:
		n.rows.each(fn)
	}
}

func (rel *Relation[R]) load(d *DB, f *fields, line []byte) error {
	row := new(R)
	f.decodeLine(line)
	rel.cols(row, f)
	if err := f.done(); err != nil {
		return err
	}
	if !rel.valid(row) {
		return fmt.Errorf("db: row id out of range")
	}
	n, w := rel.of(&d.relations), d.bump()
	switch rel.loadBy {
	case ownID:
		n.rows.put(rel.id(row), row, w)
	case surrogate:
		n.rows.put(n.rows.nextID(), row, w)
	case upsert:
		n.upsert(row, w)
	}
	return nil
}

// valid reports whether row's id column, if it has one, and every
// secondary key of row can be filed.
func (rel *Relation[R]) valid(row *R) bool {
	if rel.id != nil && !validRowID(rel.id(row)) {
		return false
	}
	return !slices.ContainsFunc(rel.indexes, func(x secondary[R]) bool { return !x.valid(x.key(row)) })
}

// first returns the id of the first row filed beside row that is row
// itself (live) or that the same rule matches with row (not live), -1
// when there is none. It looks under row's name, else under its key in
// the first secondary index, else through every row.
func (rel *Relation[R]) first(r *relations, row *R, live bool) int {
	n := rel.of(r)
	switch {
	case rel.key != nil:
		return n.byName.find(strKey(rel.key(row)), func(id int) bool { o, _ := n.rows.get(id); return rel.matches(o, row, live) })
	case len(rel.indexes) > 0:
		return rel.indexes[0].first(r, row, live)
	}
	found := -1
	n.rows.eachID(func(id int, o *R) bool {
		if rel.matches(o, row, live) {
			found = id
		}
		return found < 0
	})
	return found
}

// matches reports whether o is row (live) or the same rule matches them.
func (rel *Relation[R]) matches(o, row *R, live bool) bool {
	if live {
		return o == row
	}
	return rel.same(o, row)
}

// scans reports whether the same rule finds its rows by a scan: the
// relation has neither a name nor a secondary index to look under.
func (rel *Relation[R]) scans() bool {
	return rel.same != nil && rel.key == nil && len(rel.indexes) == 0
}

// idOf returns the id row, which must be a row of the relation, is filed
// under.
func (rel *Relation[R]) idOf(r *relations, row *R) int {
	if rel.id != nil {
		return rel.id(row)
	}
	if id := rel.first(r, row, true); id >= 0 {
		return id
	}
	panic("db: row is not in its relation")
}

// touch stamps the page of row, which must be the live row itself and
// private to it (Edit), with w's epoch and returns the relation's name.
func (rel *Relation[R]) touch(d *DB, row *R, w stamp) string {
	r := &d.relations
	rel.of(r).rows.touch(rel.idOf(r, row), row, w)
	return rel.name
}

// Edit returns row, a live row of rel, ready to be written in place: row
// itself when no snapshot shares it, else a copy that takes its place in
// the live relation. Every in-place mutation starts here, before its
// first write, and goes on with the returned row; NoteUpdate,
// NoteUpdateInternal and SetKey panic on a row a snapshot still shares.
// Exclusive lock.
func Edit[R comparable](d *DB, rel *Relation[R], row *R) *R {
	r := &d.relations
	return rel.of(r).rows.edit(rel.idOf(r, row), row, d.bump())
}

// add files row under id (-1: the next surrogate id) in the relation and
// every index, and records the append.
func (rel *Relation[R]) add(d *DB, id int, row *R) {
	r, w := &d.relations, d.bump()
	n := rel.of(r)
	if id < 0 {
		id = n.rows.nextID()
	}
	n.insert(id, row, w)
	for _, x := range rel.indexes {
		x.add(r, x.key(row), id, w)
	}
	d.NoteAppend(rel.name)
}

// drop removes the row filed under id from the relation and every index.
func (rel *Relation[R]) drop(r *relations, id int, row *R, w stamp) {
	for _, x := range rel.indexes {
		x.remove(r, x.key(row), id, w)
	}
	rel.of(r).remove(id, row, w)
}

// SetKey sets the column of row at field, which must be its name or a
// secondary key, to v in place, and refiles the row under every key that
// changed. row must be private to the live relation (Edit); the caller
// has checked that a unique name is free, and records the update
// (NoteUpdate).
func SetKey[R, T comparable](d *DB, rel *Relation[R], row *R, field *T, v T) {
	r := &d.relations
	n, id := rel.of(r), rel.idOf(r, row)
	var name string
	if rel.key != nil {
		name = rel.key(row)
	}
	var keys [maxSecondary]int
	for i, x := range rel.indexes {
		keys[i] = x.key(row)
	}
	w := d.bump()
	n.rows.touch(id, row, w) // before the write: it panics on a shared row
	*field = v
	if rel.key != nil && rel.key(row) != name {
		n.byName.move(strKey(name), strKey(rel.key(row)), id, n.less, w)
	}
	for i, x := range rel.indexes {
		if k := x.key(row); k != keys[i] {
			x.move(r, keys[i], k, id, w)
		}
	}
}

// --- Index ---

func (x *Index[R, K]) key(row *R) int { return int(x.col(row)) }

func (x *Index[R, K]) valid(key int) bool { return K(key).valid() }

func (x *Index[R, K]) add(r *relations, key, id int, w stamp) {
	rows := &x.rel.of(r).rows
	x.of(r).add(K(key), id, func(a, b int) bool { return before(rows, x.order, a, b) }, w)
}

func (x *Index[R, K]) remove(r *relations, key, id int, w stamp) { x.of(r).remove(K(key), id, w) }

func (x *Index[R, K]) move(r *relations, from, to, id int, w stamp) {
	rows := &x.rel.of(r).rows
	x.of(r).move(K(from), K(to), id, func(a, b int) bool { return before(rows, x.order, a, b) }, w)
}

func (x *Index[R, K]) first(r *relations, row *R, live bool) int {
	rows := &x.rel.of(r).rows
	return x.of(r).find(x.col(row), func(id int) bool { o, _ := rows.get(id); return x.rel.matches(o, row, live) })
}

func (x *Index[R, K]) freeze(f, r, prev *relations, since int64) {
	*x.of(f) = x.of(r).freeze(x.of(prev), since)
}

func (x *Index[R, K]) rebuild(r *relations, w stamp) {
	idx, rows := x.of(r), &x.rel.of(r).rows
	*idx = hashIndex[K]{}
	rows.eachID(func(id int, row *R) bool {
		idx.add(x.col(row), id, func(a, b int) bool { return before(rows, x.order, a, b) }, w)
		return true
	})
	idx.restamp(w.epoch)
}

func (x *Index[R, K]) audit(r *relations, add finding) {
	auditIndex(add, x.rel.name, x.what, x.of(r), &x.rel.of(r).rows, x.col)
}

// --- members ---

// memberRelation declares the members relation: its rows are filed per
// list, a slice of membership rows under the list id, and its index
// files list ids under each member of a known type (memberOf).
type memberRelation struct{}

func (memberRelation) tableName() string { return TMembers }

func (memberRelation) init(*relations) {}

func (memberRelation) freeze(f, r, prev *relations, since int64) {
	f.members = r.members.freeze(&prev.members, since)
	for i := range r.memberOf {
		f.memberOf[i] = r.memberOf[i].freeze(&prev.memberOf[i], since)
	}
}

// diff yields each membership added or removed, boxed as *Member, with
// the other side nil. A list's rows change only by push (appends past
// the end) and pull (drops one row, keeping the order), so one in-order
// walk of the two slices finds the difference: an old row the new slice
// does not continue with was removed, and the new rows past the old
// slice's end were added. Rows out of that order show up as a removal
// and an addition of the same membership.
func (memberRelation) diff(a, b *relations, fn func(o, n any) bool) int {
	return a.members.diff(&b.members, func(o, n *[]Member) bool {
		var os, ns []Member
		if o != nil {
			os = *o
		}
		if n != nil {
			ns = *n
		}
		j := 0
		for i := range os {
			if j < len(ns) && os[i] == ns[j] {
				j++
			} else if !fn(&os[i], nil) {
				return false
			}
		}
		for ; j < len(ns); j++ {
			if !fn(nil, &ns[j]) {
				return false
			}
		}
		return true
	})
}

func (memberRelation) rebuild(r *relations, w stamp) {
	r.members.restamp(w.epoch)
	r.memberOf = [len(memberTypes)]hashIndex[idKey]{}
	r.members.eachID(func(listID int, ms *[]Member) bool {
		for _, m := range *ms {
			if t := memberType(m.MemberType); t >= 0 {
				r.memberOf[t].add(idKey(m.MemberID), listID, nil, w)
			}
		}
		return true
	})
	for i := range r.memberOf {
		r.memberOf[i].restamp(w.epoch)
	}
}

// audit checks the pages, and that the member index files list ids, not
// membership rows, under each member: every membership of a known type
// is filed, and every list filed under a member has the membership.
func (memberRelation) audit(r *relations, add finding) {
	r.members.audit(TMembers, nil, add)
	indexable := 0
	r.members.eachID(func(listID int, ms *[]Member) bool {
		for _, m := range *ms {
			item := fmt.Sprintf("list %d member %s %d", listID, m.MemberType, m.MemberID)
			if m.ListID != listID {
				add(TMembers, item, "row of list %d filed under list %d", m.ListID, listID)
			}
			if t := memberType(m.MemberType); t >= 0 {
				indexable++
				if r.memberOf[t].find(idKey(m.MemberID), func(id int) bool { return id == listID }) < 0 {
					add(TMembers, item, "row missing from member index")
				}
			}
		}
		return true
	})
	indexed := 0
	for t := range r.memberOf {
		r.memberOf[t].audit(TMembers, memberTypes[t]+" member", add)
		r.memberOf[t].eachID(func(mid int, b *[]entry[idKey]) bool {
			for _, e := range *b {
				indexed++
				ms, _ := r.members.get(e.id)
				if ms == nil || !slices.Contains(*ms, Member{e.id, memberTypes[t], mid}) {
					add(TMembers, fmt.Sprintf("%s %d", memberTypes[t], mid), "member index claims membership in list %d which has no such row", e.id)
				}
			}
			return true
		})
	}
	if indexed != indexable {
		add(TMembers, "member index", "index covers %d rows, relation has %d", indexed, indexable)
	}
}

func (memberRelation) dump(d *DB, f *fields, w *bufio.Writer) error {
	var err error
	d.members.each(func(ms *[]Member) bool {
		for i := range *ms {
			f.encode()
			(*ms)[i].columns(f)
			if err = f.write(w); err != nil {
				return false
			}
		}
		return true
	})
	return err
}

func (memberRelation) load(d *DB, f *fields, line []byte) error {
	var m Member
	f.decodeLine(line)
	m.columns(f)
	if err := f.done(); err != nil {
		return err
	}
	if !validRowID(m.ListID) || !validRowID(m.MemberID) {
		return fmt.Errorf("db: row id out of range")
	}
	push(&d.members, m.ListID, m, d.bump())
	return nil
}
