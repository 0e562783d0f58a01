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
// order and its load rule. Creating the empty relations, freezing a
// snapshot, deriving the indexes, fsck's page and index audits, the dump
// and the restore all iterate that list, so adding a relation is one
// declaration plus its row type's columns method.

// relation is one entry of relationList. freeze sets the relation's
// tables in f to frozen copies of r's that share with prev every page not
// stamped after since, and returns the rows it copied; diff walks the
// rows that differ between two frozen generations (Diff); rebuild moves
// the tables into epoch and derives the indexes; load installs one dump
// line's row, maintaining only the indexes the load itself needs.
type relation interface {
	tableName() string
	init(r *relations) // install the empty tables
	freeze(f, r, prev *relations, since int64) int
	diff(a, b *relations, fn func(o, n any) bool) int
	rebuild(r *relations, epoch int64)
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

// rowRelation declares a relation of single rows, stored in a rowset.
type rowRelation[R comparable] struct {
	name string
	of   func(*relations) *rowset[R]
	cols func(*R, *fields)
	id   func(*R) int // the id column; nil: surrogate ids
	// key is the name index's column (nil: none), order sorts the rows
	// sharing a name (nil: by id), and unique says a name is filed under
	// one row at most.
	key     func(*R) string
	order   func(a, b *R) int
	unique  bool
	loadBy  loadRule
	walk    func(*DB, *rowset[R], func(*R) bool) // dump order; nil: id order
	indexes []secondary[R]
}

// secondary is a single-key secondary index: it files each row's id
// under an integer column.
type secondary[R any] interface {
	key(row *R) int
	valid(key int) bool // the key can be filed (hashKey.valid)
	add(r *relations, key, id int, epoch int64)
	remove(r *relations, key, id int, epoch int64)
	move(r *relations, from, to, id int, epoch int64)
	freeze(f, r, prev *relations, since int64) int
	rebuild(r *relations, rows *table[R], epoch int64)
	audit(r *relations, table string, rows *table[R], add finding)
}

// maxSecondary is the most secondary indexes a relation declares.
const maxSecondary = 2

// keyIndex is a secondary index on the column col.
type keyIndex[R any, K interface {
	hashKey
	~int
}] struct {
	what string // the column, as fsck names it
	of   func(*relations) *hashIndex[K]
	col  func(*R) K
}

// byName is the walk in name order (rowset.eachByName).
func byName[R any](_ *DB, n *rowset[R], fn func(*R) bool) { n.eachByName(fn) }

var (
	usersRel = &rowRelation[User]{
		name: TUsers, of: func(r *relations) *rowset[User] { return &r.users }, cols: (*User).columns,
		id: func(u *User) int { return u.UsersID }, key: func(u *User) string { return u.Login }, unique: true,
		indexes: []secondary[User]{
			keyIndex[User, uidKey]{"uid", func(r *relations) *hashIndex[uidKey] { return &r.uids }, func(u *User) uidKey { return uidKey(u.UID) }},
		},
	}
	machinesRel = &rowRelation[Machine]{
		name: TMachine, of: func(r *relations) *rowset[Machine] { return &r.machines }, cols: (*Machine).columns,
		id: func(m *Machine) int { return m.MachID }, key: func(m *Machine) string { return m.Name }, unique: true,
	}
	clustersRel = &rowRelation[Cluster]{
		name: TCluster, of: func(r *relations) *rowset[Cluster] { return &r.clusters }, cols: (*Cluster).columns,
		id: func(c *Cluster) int { return c.CluID }, key: func(c *Cluster) string { return c.Name }, unique: true,
	}
	mcmapRel = &rowRelation[MCMap]{
		name: TMCMap, of: func(r *relations) *rowset[MCMap] { return &r.mcmap }, cols: (*MCMap).columns,
		loadBy: surrogate,
		indexes: []secondary[MCMap]{
			keyIndex[MCMap, idKey]{"machine", func(r *relations) *hashIndex[idKey] { return &r.mcOfMach }, func(m *MCMap) idKey { return idKey(m.MachID) }},
			keyIndex[MCMap, idKey]{"cluster", func(r *relations) *hashIndex[idKey] { return &r.mcOfClu }, func(m *MCMap) idKey { return idKey(m.CluID) }},
		},
	}
	svcRel = &rowRelation[SvcData]{
		name: TSvc, of: func(r *relations) *rowset[SvcData] { return &r.svc }, cols: (*SvcData).columns,
		loadBy: surrogate,
	}
	listsRel = &rowRelation[List]{
		name: TList, of: func(r *relations) *rowset[List] { return &r.lists }, cols: (*List).columns,
		id: func(l *List) int { return l.ListID }, key: func(l *List) string { return l.Name }, unique: true,
	}
	serversRel = &rowRelation[Server]{
		name: TServers, of: func(r *relations) *rowset[Server] { return &r.servers }, cols: (*Server).columns,
		key: func(s *Server) string { return s.Name }, unique: true, loadBy: upsert, walk: byName[Server],
	}
	serverHostsRel = &rowRelation[ServerHost]{
		name: TServerHosts, of: func(r *relations) *rowset[ServerHost] { return &r.serverHosts }, cols: (*ServerHost).columns,
		key: func(sh *ServerHost) string { return sh.Service }, order: func(a, b *ServerHost) int { return cmp.Compare(a.MachID, b.MachID) },
		loadBy: surrogate, walk: byName[ServerHost],
	}
	filesysRel = &rowRelation[Filesys]{
		name: TFilesys, of: func(r *relations) *rowset[Filesys] { return &r.filesys }, cols: (*Filesys).columns,
		id: func(f *Filesys) int { return f.FilsysID }, key: func(f *Filesys) string { return f.Label },
		order: func(a, b *Filesys) int { return cmp.Compare(a.Order, b.Order) },
	}
	nfsphysRel = &rowRelation[NFSPhys]{
		name: TNFSPhys, of: func(r *relations) *rowset[NFSPhys] { return &r.nfsphys }, cols: (*NFSPhys).columns,
		id: func(p *NFSPhys) int { return p.NFSPhysID },
	}
	quotasRel = &rowRelation[NFSQuota]{
		name: TNFSQuota, of: func(r *relations) *rowset[NFSQuota] { return &r.quotas }, cols: (*NFSQuota).columns,
		loadBy: surrogate, walk: quotaOrder,
		indexes: []secondary[NFSQuota]{
			keyIndex[NFSQuota, idKey]{"filesys", func(r *relations) *hashIndex[idKey] { return &r.quotasOnFS }, func(q *NFSQuota) idKey { return idKey(q.FilsysID) }},
			keyIndex[NFSQuota, idKey]{"user", func(r *relations) *hashIndex[idKey] { return &r.quotasOfUser }, func(q *NFSQuota) idKey { return idKey(q.UsersID) }},
		},
	}
	zephyrRel = &rowRelation[ZephyrClass]{
		name: TZephyr, of: func(r *relations) *rowset[ZephyrClass] { return &r.zephyr }, cols: (*ZephyrClass).columns,
		key: func(z *ZephyrClass) string { return z.Class }, unique: true, loadBy: upsert, walk: byName[ZephyrClass],
	}
	hostAccessRel = &rowRelation[HostAccess]{
		name: THostAccess, of: func(r *relations) *rowset[HostAccess] { return &r.hostaccess }, cols: (*HostAccess).columns,
		id: func(h *HostAccess) int { return h.MachID },
	}
	stringsRel = &rowRelation[StringRec]{
		name: TStrings, of: func(r *relations) *rowset[StringRec] { return &r.strings }, cols: (*StringRec).columns,
		id: func(s *StringRec) int { return s.StringID }, key: func(s *StringRec) string { return s.String }, unique: true,
	}
	servicesRel = &rowRelation[Service]{
		name: TServices, of: func(r *relations) *rowset[Service] { return &r.services }, cols: (*Service).columns,
		key: func(s *Service) string { return s.Name }, unique: true, loadBy: upsert, walk: byName[Service],
	}
	printcapsRel = &rowRelation[Printcap]{
		name: TPrintcap, of: func(r *relations) *rowset[Printcap] { return &r.printcaps }, cols: (*Printcap).columns,
		key: func(p *Printcap) string { return p.Name }, unique: true, loadBy: upsert, walk: byName[Printcap],
	}
	capACLsRel = &rowRelation[CapACL]{
		name: TCapACLs, of: func(r *relations) *rowset[CapACL] { return &r.capacls }, cols: (*CapACL).columns,
		key: func(c *CapACL) string { return c.Capability }, unique: true, loadBy: upsert, walk: byName[CapACL],
	}
	aliasesRel = &rowRelation[Alias]{
		name: TAlias, of: func(r *relations) *rowset[Alias] { return &r.aliases }, cols: (*Alias).columns,
		loadBy: surrogate,
	}
	valuesRel = &rowRelation[value]{
		name: TValues, of: func(r *relations) *rowset[value] { return &r.values }, cols: (*value).columns,
		key: func(v *value) string { return v.Name }, unique: true, loadBy: upsert, walk: byName[value],
	}
	statsRel = &rowRelation[TblStat]{
		name: TTblStats, of: func(r *relations) *rowset[TblStat] { return &r.stats }, cols: (*TblStat).columns,
		key: func(s *TblStat) string { return s.Table }, unique: true, loadBy: upsert, walk: byName[TblStat],
	}
)

// relationList is every relation, in backup order.
var relationList = []relation{
	usersRel, machinesRel, clustersRel, mcmapRel, svcRel, listsRel, memberRelation{},
	serversRel, serverHostsRel, filesysRel, nfsphysRel, quotasRel, zephyrRel,
	hostAccessRel, stringsRel, servicesRel, printcapsRel, capACLsRel, aliasesRel,
	valuesRel, statsRel,
}

// tableNames lists the relations' names in backup order.
func tableNames() (names []string) {
	for _, rel := range relationList {
		names = append(names, rel.tableName())
	}
	return names
}

// --- rowRelation ---

func (rel *rowRelation[R]) tableName() string { return rel.name }

func (rel *rowRelation[R]) init(r *relations) { *rel.of(r) = newRowset(rel.key, rel.order) }

func (rel *rowRelation[R]) freeze(f, r, prev *relations, since int64) int {
	copied := 0
	*rel.of(f) = rel.of(r).freeze(rel.of(prev), since, &copied)
	for _, x := range rel.indexes {
		copied += x.freeze(f, r, prev, since)
	}
	return copied
}

// diff yields each row whose value differs, boxed as *R.
func (rel *rowRelation[R]) diff(a, b *relations, fn func(o, n any) bool) int {
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

func (rel *rowRelation[R]) rebuild(r *relations, epoch int64) {
	n := rel.of(r)
	n.rebuild(epoch)
	for _, x := range rel.indexes {
		x.rebuild(r, &n.rows, epoch)
	}
}

// audit checks the pages (against the id column, when the rows carry
// their id), the name index, and the secondary indexes; for a relation of
// unique names, a name filed under more than one row is a finding too: a
// probe by that name reaches only the first.
func (rel *rowRelation[R]) audit(r *relations, add finding) {
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
		x.audit(r, rel.name, &n.rows, add)
	}
}

func (rel *rowRelation[R]) dump(d *DB, f *fields, w *bufio.Writer) error {
	var err error
	write := func(row *R) bool {
		f.encode()
		rel.cols(row, f)
		err = f.write(w)
		return err == nil
	}
	if n := rel.of(&d.relations); rel.walk != nil {
		rel.walk(d, n, write)
	} else {
		n.rows.each(write)
	}
	return err
}

func (rel *rowRelation[R]) load(d *DB, f *fields, line []byte) error {
	row := new(R)
	f.decodeLine(line)
	rel.cols(row, f)
	if err := f.done(); err != nil {
		return err
	}
	if !rel.valid(row) {
		return fmt.Errorf("db: row id out of range")
	}
	n, e := rel.of(&d.relations), d.bump()
	switch rel.loadBy {
	case ownID:
		n.rows.put(rel.id(row), row, e)
	case surrogate:
		n.rows.put(n.rows.nextID(), row, e)
	case upsert:
		n.upsert(row, e)
	}
	return nil
}

// valid reports whether row's id column, if it has one, and every
// secondary key of row can be filed.
func (rel *rowRelation[R]) valid(row *R) bool {
	if rel.id != nil && !validRowID(rel.id(row)) {
		return false
	}
	return !slices.ContainsFunc(rel.indexes, func(x secondary[R]) bool { return !x.valid(x.key(row)) })
}

// idOf returns the id row is filed under: its id column, or for a
// surrogate id, its entry in the name index.
func (rel *rowRelation[R]) idOf(d *DB, row *R) int {
	if rel.id != nil {
		return rel.id(row)
	}
	return rel.of(&d.relations).idOf(row)
}

// touch stamps the page of row, which must be the live row itself, with
// epoch and returns the relation's name.
func (rel *rowRelation[R]) touch(d *DB, row *R, epoch int64) string {
	rel.of(&d.relations).rows.touch(rel.idOf(d, row), row, epoch)
	return rel.name
}

// add files row under id (-1: the next surrogate id) in the relation and
// every index, and records the append.
func (rel *rowRelation[R]) add(d *DB, id int, row *R) {
	n, e := rel.of(&d.relations), d.bump()
	if id < 0 {
		id = n.rows.nextID()
	}
	n.insert(id, row, e)
	for _, x := range rel.indexes {
		x.add(&d.relations, x.key(row), id, e)
	}
	d.NoteAppend(rel.name)
}

// drop removes the row filed under id from the relation and every index,
// and records the delete.
func (rel *rowRelation[R]) drop(d *DB, id int, row *R) {
	n, e := rel.of(&d.relations), d.bump()
	for _, x := range rel.indexes {
		x.remove(&d.relations, x.key(row), id, e)
	}
	n.remove(id, row, e)
	d.NoteDelete(rel.name)
}

// setKey sets the column of row at field, which must be its name or a
// secondary key, to v in place, and refiles the row under every key that
// changed. The caller records the update.
func setKey[R, T comparable](d *DB, rel *rowRelation[R], row *R, field *T, v T) {
	n, id := rel.of(&d.relations), rel.idOf(d, row)
	var name string
	if rel.key != nil {
		name = rel.key(row)
	}
	var keys [maxSecondary]int
	for i, x := range rel.indexes {
		keys[i] = x.key(row)
	}
	*field = v
	e := d.bump()
	n.rows.touch(id, row, e)
	if rel.key != nil && rel.key(row) != name {
		n.byName.move(strKey(name), strKey(rel.key(row)), id, n.less(), e)
	}
	for i, x := range rel.indexes {
		if k := x.key(row); k != keys[i] {
			x.move(&d.relations, keys[i], k, id, e)
		}
	}
}

// insert adds row, filed under its id column or the next surrogate id:
// MR_INTERNAL for an id or key no table can hold, MR_EXISTS when the id
// or a unique name is taken.
func (rel *rowRelation[R]) insert(d *DB, row *R) error {
	if !rel.valid(row) {
		return mrerr.MrInternal
	}
	n, id := rel.of(&d.relations), -1
	if rel.id != nil {
		id = rel.id(row)
		if _, dup := n.rows.get(id); dup {
			return mrerr.MrExists
		}
	}
	if rel.unique {
		if _, dup := n.byKey(rel.key(row)); dup {
			return mrerr.MrExists
		}
	}
	rel.add(d, id, row)
	return nil
}

// --- keyIndex ---

func (x keyIndex[R, K]) key(row *R) int { return int(x.col(row)) }

func (x keyIndex[R, K]) valid(key int) bool { return K(key).valid() }

func (x keyIndex[R, K]) add(r *relations, key, id int, e int64)    { x.of(r).add(K(key), id, nil, e) }
func (x keyIndex[R, K]) remove(r *relations, key, id int, e int64) { x.of(r).remove(K(key), id, e) }

func (x keyIndex[R, K]) move(r *relations, from, to, id int, e int64) {
	x.of(r).move(K(from), K(to), id, nil, e)
}

func (x keyIndex[R, K]) freeze(f, r, prev *relations, since int64) int {
	copied := 0
	*x.of(f) = x.of(r).freeze(x.of(prev), since, &copied)
	return copied
}

func (x keyIndex[R, K]) rebuild(r *relations, rows *table[R], epoch int64) {
	idx := x.of(r)
	*idx = hashIndex[K]{}
	rows.eachID(func(id int, row *R) bool {
		idx.add(x.col(row), id, nil, epoch)
		return true
	})
	idx.restamp(epoch)
}

func (x keyIndex[R, K]) audit(r *relations, table string, rows *table[R], add finding) {
	auditIndex(add, table, x.what, x.of(r), rows, x.col)
}

// --- members ---

// memberRelation declares the members relation: its rows are filed per
// list, a slice of membership rows under the list id, and its index
// files list ids under each member of a known type (memberOf).
type memberRelation struct{}

func (memberRelation) tableName() string { return TMembers }

func (memberRelation) init(*relations) {}

func (memberRelation) freeze(f, r, prev *relations, since int64) int {
	copied := 0
	f.members = r.members.freeze(&prev.members, since, &copied)
	for i := range r.memberOf {
		f.memberOf[i] = r.memberOf[i].freeze(&prev.memberOf[i], since, &copied)
	}
	return copied
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

func (memberRelation) rebuild(r *relations, epoch int64) {
	r.members.restamp(epoch)
	r.memberOf = [len(memberTypes)]hashIndex[idKey]{}
	r.members.eachID(func(listID int, ms *[]Member) bool {
		for _, m := range *ms {
			if t := memberType(m.MemberType); t >= 0 {
				r.memberOf[t].add(idKey(m.MemberID), listID, nil, epoch)
			}
		}
		return true
	})
	for i := range r.memberOf {
		r.memberOf[i].restamp(epoch)
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
