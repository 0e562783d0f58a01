package db

import (
	"cmp"
	"slices"
	"sort"

	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

// All accessor methods in this file assume the caller holds the database
// lock: shared for reads, exclusive for mutations. The query layer
// (internal/queries) is responsible for taking it per query.

// matching resolves a name pattern, with or without wildcards, in id
// order: an exact name is a probe of the name index, a wildcard a range
// scan of the ordered name index from the pattern's literal prefix
// instead of a scan of the whole relation.
func matching[R any](d *DB, n *rowset[R], pattern string) []*R {
	if !wildcard.HasWildcards(pattern) {
		d.NotePoint()
		if r, ok := n.byKey(pattern); ok {
			return []*R{r}
		}
		return nil
	}
	d.NoteRange()
	var ids []int
	matchNames(n.names(), pattern, func(name string) bool {
		ids = n.byName.appendIDs(ids, strKey(name))
		return true
	})
	sort.Ints(ids)
	out := make([]*R, 0, len(ids))
	for _, id := range ids {
		if r, ok := n.rows.get(id); ok {
			out = append(out, r)
		}
	}
	return out
}

// Relations of plain values (mcmap, svc, alias) compare rows whole and
// file them under surrogate ids.

// rowID returns the id of the row equal to v, -1 if there is none.
func rowID[R comparable](t *table[R], v R) int {
	found := -1
	t.eachID(func(id int, r *R) bool {
		if *r == v {
			found = id
		}
		return found < 0
	})
	return found
}

// addRow inserts v and records the append; MR_EXISTS on an equal row.
func addRow[R comparable](d *DB, rel *rowRelation[R], v R) error {
	if rowID(&rel.of(&d.relations).rows, v) >= 0 {
		return mrerr.MrExists
	}
	rel.add(d, -1, &v)
	return nil
}

// deleteRow removes the row equal to v and records the delete;
// MR_NO_MATCH if there is none.
func deleteRow[R comparable](d *DB, rel *rowRelation[R], v R) error {
	rows := &rel.of(&d.relations).rows
	id := rowID(rows, v)
	if id < 0 {
		return mrerr.MrNoMatch
	}
	r, _ := rows.get(id)
	rel.drop(d, id, r)
	return nil
}

// scanRows calls fn for every row of n in id order, tallied as one
// full-relation scan; fn must not insert or delete rows.
func scanRows[R any](d *DB, n *rowset[R], fn func(*R) bool) {
	d.NoteScan()
	n.rows.each(fn)
}

// scanByName is scanRows in name order.
func scanByName[R any](d *DB, n *rowset[R], fn func(*R) bool) {
	d.NoteScan()
	n.eachByName(fn)
}

// walkRows is scanRows with every row passed by value.
func walkRows[R any](d *DB, n *rowset[R], fn func(R) bool) {
	scanRows(d, n, func(r *R) bool { return fn(*r) })
}

// --- Users ---

// UserByLogin finds a user by exact login name.
func (d *DB) UserByLogin(login string) (*User, bool) {
	d.NotePoint()
	return d.users.byKey(login)
}

// UserByID finds a user by users_id.
func (d *DB) UserByID(id int) (*User, bool) { return d.users.rows.get(id) }

// UsersByUID returns all users with the given unix uid (normally one)
// in users_id order. A uid hash-index probe, not a table scan.
func (d *DB) UsersByUID(uid int) []*User {
	d.NotePoint()
	var out []*User
	d.uids.under(uidKey(uid), func(id int) bool { // in users_id order
		if u, ok := d.users.rows.get(id); ok {
			out = append(out, u)
		}
		return true
	})
	return out
}

// EachUser calls fn for every user in users_id order. The ordering is a
// contract — backup dumps and paged retrievals depend on it — and it
// comes from the paged table's layout, not a per-call sort. fn must not
// insert or delete users (it iterates the live table).
func (d *DB) EachUser(fn func(*User) bool) { scanRows(d, &d.users, fn) }

// UsersMatchingLogin resolves a login pattern, with or without
// wildcards, in users_id order (see matching).
func (d *DB) UsersMatchingLogin(pattern string) []*User { return matching(d, &d.users, pattern) }

// EachUserMatchingLogin calls fn for every user whose login matches the
// pattern, with or without wildcards, in login order: the range scan of
// UsersMatchingLogin without its result slice. fn returning false stops
// the walk.
func (d *DB) EachUserMatchingLogin(pattern string, fn func(*User) bool) {
	if !wildcard.HasWildcards(pattern) {
		if u, ok := d.UserByLogin(pattern); ok {
			fn(u)
		}
		return
	}
	d.NoteRange()
	matchNames(d.users.names(), pattern, func(login string) bool { return d.users.eachRow(login, fn) })
}

// NumUsers reports the row count of the users relation.
func (d *DB) NumUsers() int { return d.users.rows.len() }

// InsertUser adds a fully formed user row; the caller has already
// allocated IDs and checked uniqueness. MR_EXISTS on duplicate login or
// users_id.
func (d *DB) InsertUser(u *User) error { return usersRel.insert(d, u) }

// RenameUser changes a user's login, maintaining the indexes. The
// caller has verified the new login is free (and records the update).
func (d *DB) RenameUser(u *User, newLogin string) { setKey(d, usersRel, u, &u.Login, newLogin) }

// SetUserUID changes a user's unix uid, maintaining the uid index. The
// caller records the update.
func (d *DB) SetUserUID(u *User, uid int) { setKey(d, usersRel, u, &u.UID, uid) }

// DeleteUser removes a user row.
func (d *DB) DeleteUser(u *User) { usersRel.drop(d, u.UsersID, u) }

// --- Machines ---

// MachineByName finds a machine by canonical name.
func (d *DB) MachineByName(name string) (*Machine, bool) {
	d.NotePoint()
	return d.machines.byKey(name)
}

// MachineByID finds a machine by mach_id.
func (d *DB) MachineByID(id int) (*Machine, bool) {
	d.NotePoint()
	return d.machines.rows.get(id)
}

// EachMachine calls fn for every machine in mach_id order (fn must not
// insert or delete machines).
func (d *DB) EachMachine(fn func(*Machine) bool) { scanRows(d, &d.machines, fn) }

// MachinesMatchingName resolves a canonical-name pattern, with or
// without wildcards, in mach_id order (see matching).
func (d *DB) MachinesMatchingName(pattern string) []*Machine {
	return matching(d, &d.machines, pattern)
}

// InsertMachine adds a machine row; MR_EXISTS on duplicates.
func (d *DB) InsertMachine(m *Machine) error { return machinesRel.insert(d, m) }

// RenameMachine changes a machine's name, maintaining the indexes.
func (d *DB) RenameMachine(m *Machine, newName string) { setKey(d, machinesRel, m, &m.Name, newName) }

// DeleteMachine removes a machine row.
func (d *DB) DeleteMachine(m *Machine) { machinesRel.drop(d, m.MachID, m) }

// --- Clusters ---

// ClusterByName finds a cluster by name (case sensitive).
func (d *DB) ClusterByName(name string) (*Cluster, bool) { return d.clusters.byKey(name) }

// ClusterByID finds a cluster by clu_id.
func (d *DB) ClusterByID(id int) (*Cluster, bool) { return d.clusters.rows.get(id) }

// EachCluster calls fn for every cluster in clu_id order (fn must not
// insert or delete clusters).
func (d *DB) EachCluster(fn func(*Cluster) bool) { scanRows(d, &d.clusters, fn) }

// ClustersMatchingName resolves a name pattern, with or without
// wildcards, in clu_id order (see matching).
func (d *DB) ClustersMatchingName(pattern string) []*Cluster {
	return matching(d, &d.clusters, pattern)
}

// InsertCluster adds a cluster row; MR_EXISTS on duplicates.
func (d *DB) InsertCluster(c *Cluster) error { return clustersRel.insert(d, c) }

// RenameCluster changes a cluster's name, maintaining the indexes.
func (d *DB) RenameCluster(c *Cluster, newName string) { setKey(d, clustersRel, c, &c.Name, newName) }

// DeleteCluster removes a cluster row.
func (d *DB) DeleteCluster(c *Cluster) { clustersRel.drop(d, c.CluID, c) }

// --- Machine/cluster map and service clusters ---

// EachMCMap calls fn for every machine-cluster assignment in the order
// they were made.
func (d *DB) EachMCMap(fn func(MCMap) bool) { walkRows(d, &d.mcmap, fn) }

// mcID returns the id of the (machine, cluster) row, -1 if there is none.
func (d *DB) mcID(machID, cluID int) int {
	return d.mcOfMach.find(idKey(machID), func(id int) bool {
		mc, ok := d.mcmap.rows.get(id)
		return ok && mc.CluID == cluID
	})
}

// HasMCMap reports whether the (machine, cluster) pair exists — a probe
// of the machine's assignments.
func (d *DB) HasMCMap(machID, cluID int) bool { return d.mcID(machID, cluID) >= 0 }

// AddMCMap inserts an assignment; MR_EXISTS on duplicates.
func (d *DB) AddMCMap(machID, cluID int) error {
	if d.HasMCMap(machID, cluID) {
		return mrerr.MrExists
	}
	return mcmapRel.insert(d, &MCMap{MachID: machID, CluID: cluID})
}

// DeleteMCMap removes an assignment; MR_NO_MATCH if absent.
func (d *DB) DeleteMCMap(machID, cluID int) error {
	id := d.mcID(machID, cluID)
	if id < 0 {
		return mrerr.MrNoMatch
	}
	mc, _ := d.mcmap.rows.get(id)
	mcmapRel.drop(d, id, mc)
	return nil
}

// ClustersOfMachine returns the ids of the clusters a machine belongs
// to, in order — a probe of the machine's assignments.
func (d *DB) ClustersOfMachine(machID int) []int {
	d.NotePoint()
	return d.mcOther(&d.mcOfMach, machID, func(mc *MCMap) int { return mc.CluID })
}

// MachinesOfCluster returns the ids of a cluster's machines, in order —
// a probe of the cluster's assignments.
func (d *DB) MachinesOfCluster(cluID int) []int {
	d.NotePoint()
	return d.mcOther(&d.mcOfClu, cluID, func(mc *MCMap) int { return mc.MachID })
}

// mcOther returns the other end of the assignments idx files under id,
// sorted.
func (d *DB) mcOther(idx *hashIndex[idKey], id int, end func(*MCMap) int) []int {
	var out []int
	idx.under(idKey(id), func(mcID int) bool {
		if mc, ok := d.mcmap.rows.get(mcID); ok {
			out = append(out, end(mc))
		}
		return true
	})
	sort.Ints(out)
	return out
}

// EachSvc calls fn for every service-cluster datum in the order they
// were added.
func (d *DB) EachSvc(fn func(SvcData) bool) { walkRows(d, &d.svc, fn) }

// AddSvc inserts a service-cluster datum; MR_EXISTS on exact duplicates.
func (d *DB) AddSvc(row SvcData) error { return addRow(d, svcRel, row) }

// DeleteSvc removes an exactly matching service-cluster datum.
func (d *DB) DeleteSvc(row SvcData) error { return deleteRow(d, svcRel, row) }

// DeleteSvcOfCluster removes all service data for a cluster (used when
// deleting the cluster itself).
func (d *DB) DeleteSvcOfCluster(cluID int) {
	var drop []int
	d.svc.rows.eachID(func(id int, s *SvcData) bool {
		if s.CluID == cluID {
			drop = append(drop, id)
		}
		return true
	})
	if len(drop) == 0 {
		return
	}
	e := d.bump()
	for _, id := range drop {
		d.svc.rows.del(id, e)
	}
	d.NoteDelete(TSvc)
}

// --- Lists and members ---

// ListByName finds a list by exact name.
func (d *DB) ListByName(name string) (*List, bool) { return d.lists.byKey(name) }

// ListByID finds a list by list_id.
func (d *DB) ListByID(id int) (*List, bool) { return d.lists.rows.get(id) }

// EachList calls fn for every list in list_id order (fn must not insert
// or delete lists).
func (d *DB) EachList(fn func(*List) bool) { scanRows(d, &d.lists, fn) }

// ListsMatchingName resolves a name pattern, with or without wildcards,
// in list_id order (see matching).
func (d *DB) ListsMatchingName(pattern string) []*List { return matching(d, &d.lists, pattern) }

// InsertList adds a list row; MR_EXISTS on duplicates.
func (d *DB) InsertList(l *List) error { return listsRel.insert(d, l) }

// RenameList changes a list's name, maintaining the indexes.
func (d *DB) RenameList(l *List, newName string) { setKey(d, listsRel, l, &l.Name, newName) }

// DeleteList removes a list row and its membership rows.
func (d *DB) DeleteList(l *List) {
	e := d.bump()
	for _, m := range d.MembersOf(l.ListID) {
		d.dropMembership(m, e)
	}
	d.members.del(l.ListID, e)
	listsRel.drop(d, l.ListID, l)
}

// dropMembership removes one membership row from the member index.
func (d *DB) dropMembership(m Member, epoch int64) {
	if t := memberType(m.MemberType); t >= 0 {
		d.memberOf[t].remove(idKey(m.MemberID), m.ListID, epoch)
	}
}

// MembersOf returns the membership rows of a list (read-only).
func (d *DB) MembersOf(listID int) []Member {
	if ms, ok := d.members.get(listID); ok {
		return *ms
	}
	return nil
}

// HasMember reports whether the exact member row exists.
func (d *DB) HasMember(listID int, mtype string, mid int) bool {
	return slices.Index(d.MembersOf(listID), Member{listID, mtype, mid}) >= 0
}

// AddMember inserts a membership row; MR_EXISTS on duplicates.
func (d *DB) AddMember(listID int, mtype string, mid int) error {
	if !validRowID(listID) || !validRowID(mid) {
		return mrerr.MrInternal
	}
	if d.HasMember(listID, mtype, mid) {
		return mrerr.MrExists
	}
	e := d.bump()
	push(&d.members, listID, Member{ListID: listID, MemberType: mtype, MemberID: mid}, e)
	if t := memberType(mtype); t >= 0 {
		d.memberOf[t].add(idKey(mid), listID, nil, e)
	}
	d.NoteAppend(TMembers)
	return nil
}

// DeleteMember removes a membership row; MR_NO_MATCH if absent.
func (d *DB) DeleteMember(listID int, mtype string, mid int) error {
	m := Member{ListID: listID, MemberType: mtype, MemberID: mid}
	if !d.HasMember(listID, mtype, mid) {
		return mrerr.MrNoMatch
	}
	e := d.bump()
	pull(&d.members, listID, func(x Member) bool { return x == m }, e)
	d.dropMembership(m, e)
	d.NoteDelete(TMembers)
	return nil
}

// EachMembership calls fn for every membership row, ordered by list id.
func (d *DB) EachMembership(fn func(Member) bool) {
	d.NoteScan()
	d.members.each(func(ms *[]Member) bool {
		for _, m := range *ms {
			if !fn(m) {
				return false
			}
		}
		return true
	})
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

// --- Servers and serverhosts ---

// ServerByName finds a service by (upper case) name.
func (d *DB) ServerByName(name string) (*Server, bool) { return d.servers.byKey(name) }

// EachServer calls fn for every service in name order.
func (d *DB) EachServer(fn func(*Server) bool) { scanByName(d, &d.servers, fn) }

// InsertServer adds a service row; MR_EXISTS on duplicates.
func (d *DB) InsertServer(s *Server) error { return serversRel.insert(d, s) }

// DeleteServer removes a service row.
func (d *DB) DeleteServer(s *Server) { serversRel.drop(d, serversRel.idOf(d, s), s) }

// ServerHostsOf returns the host rows for a service, machine-id ordered
// — a probe of the service index.
func (d *DB) ServerHostsOf(service string) []*ServerHost {
	return d.serverHosts.appendRows(nil, service)
}

// serverHost returns the row for (service, machine) and its id.
func (d *DB) serverHost(service string, machID int) (int, *ServerHost) {
	id := d.serverHosts.byName.find(strKey(service), func(id int) bool {
		sh, ok := d.serverHosts.rows.get(id)
		return ok && sh.MachID == machID
	})
	sh, _ := d.serverHosts.rows.get(id)
	return id, sh
}

// ServerHost finds the row for (service, machine).
func (d *DB) ServerHost(service string, machID int) (*ServerHost, bool) {
	_, sh := d.serverHost(service, machID)
	return sh, sh != nil
}

// EachServerHost calls fn for every serverhost row in (service, mach_id)
// order (fn must not insert or delete rows).
func (d *DB) EachServerHost(fn func(*ServerHost) bool) { scanByName(d, &d.serverHosts, fn) }

// InsertServerHost adds a serverhost row; MR_EXISTS on duplicates.
func (d *DB) InsertServerHost(sh *ServerHost) error {
	if _, dup := d.ServerHost(sh.Service, sh.MachID); dup {
		return mrerr.MrExists
	}
	return serverHostsRel.insert(d, sh)
}

// DeleteServerHost removes a serverhost row; MR_NO_MATCH if absent.
func (d *DB) DeleteServerHost(service string, machID int) error {
	id, sh := d.serverHost(service, machID)
	if sh == nil {
		return mrerr.MrNoMatch
	}
	serverHostsRel.drop(d, id, sh)
	return nil
}

// --- Filesystems ---

// FilesysByID finds a filesystem by filsys_id.
func (d *DB) FilesysByID(id int) (*Filesys, bool) { return d.filesys.rows.get(id) }

// FilesysByLabel returns all filesystems with the given label in Order
// order — a label hash-index probe.
func (d *DB) FilesysByLabel(label string) []*Filesys {
	d.NotePoint()
	return d.filesys.appendRows(nil, label)
}

// EachFilesys calls fn for every filesystem in filsys_id order (fn must
// not insert or delete rows).
func (d *DB) EachFilesys(fn func(*Filesys) bool) { scanRows(d, &d.filesys, fn) }

// InsertFilesys adds a filesystem row; MR_EXISTS on duplicate id or
// (label, order) pair. The duplicate check probes the label index
// instead of scanning the relation.
func (d *DB) InsertFilesys(f *Filesys) error {
	if !d.filesys.eachRow(f.Label, func(other *Filesys) bool { return other.Order != f.Order }) {
		return mrerr.MrExists
	}
	return filesysRel.insert(d, f)
}

// DeleteFilesys removes a filesystem row.
func (d *DB) DeleteFilesys(f *Filesys) { filesysRel.drop(d, f.FilsysID, f) }

// SetFilesysLabel changes a filesystem's label, maintaining the label
// index. The caller has checked (label, order) uniqueness and records
// the update.
func (d *DB) SetFilesysLabel(f *Filesys, label string) { setKey(d, filesysRel, f, &f.Label, label) }

// --- NFS physical partitions and quotas ---

// NFSPhysByID finds a partition by nfsphys_id.
func (d *DB) NFSPhysByID(id int) (*NFSPhys, bool) { return d.nfsphys.rows.get(id) }

// NFSPhysByMachDir finds a partition by server machine and directory.
func (d *DB) NFSPhysByMachDir(machID int, dir string) (*NFSPhys, bool) {
	var found *NFSPhys
	d.nfsphys.rows.each(func(p *NFSPhys) bool {
		if p.MachID == machID && p.Dir == dir {
			found = p
		}
		return found == nil
	})
	return found, found != nil
}

// EachNFSPhys calls fn for every partition in nfsphys_id order.
func (d *DB) EachNFSPhys(fn func(*NFSPhys) bool) { scanRows(d, &d.nfsphys, fn) }

// InsertNFSPhys adds a partition row; MR_EXISTS on duplicates.
func (d *DB) InsertNFSPhys(p *NFSPhys) error {
	if _, dup := d.NFSPhysByMachDir(p.MachID, p.Dir); dup {
		return mrerr.MrExists
	}
	return nfsphysRel.insert(d, p)
}

// DeleteNFSPhys removes a partition row.
func (d *DB) DeleteNFSPhys(p *NFSPhys) { nfsphysRel.drop(d, p.NFSPhysID, p) }

// Quota rows sit under surrogate ids, indexed by filesystem and by user.

// quotaID returns the id of the (user, filesystem) quota row, -1 if
// there is none.
func (d *DB) quotaID(usersID, filsysID int) int {
	return d.quotasOnFS.find(idKey(filsysID), func(id int) bool {
		q, ok := d.quotas.rows.get(id)
		return ok && q.UsersID == usersID
	})
}

// quotaRows appends the rows idx files under id to dst, in key order.
func (d *DB) quotaRows(dst []*NFSQuota, idx *hashIndex[idKey], id int, key func(*NFSQuota) int) []*NFSQuota {
	idx.under(idKey(id), func(qid int) bool {
		if q, ok := d.quotas.rows.get(qid); ok {
			dst = append(dst, q)
		}
		return true
	})
	slices.SortFunc(dst, func(a, b *NFSQuota) int { return cmp.Compare(key(a), key(b)) })
	return dst
}

// QuotaOf finds the quota row for (user, filesystem) — a probe of the
// filesystem's quotas.
func (d *DB) QuotaOf(usersID, filsysID int) (*NFSQuota, bool) {
	return d.quotas.rows.get(d.quotaID(usersID, filsysID))
}

// EachQuota calls fn for every quota row in (filsys, user) order (fn
// must not insert or delete rows).
func (d *DB) EachQuota(fn func(*NFSQuota) bool) {
	d.NoteScan()
	quotaOrder(d, &d.quotas, fn)
}

// quotaOrder walks the quota rows in (filsys, user) order: the quota
// relation's dump order.
func quotaOrder(d *DB, _ *rowset[NFSQuota], fn func(*NFSQuota) bool) {
	var rows []*NFSQuota
	d.quotasOnFS.eachID(func(filsysID int, _ *[]entry[idKey]) bool {
		rows = d.quotaRows(rows[:0], &d.quotasOnFS, filsysID, func(q *NFSQuota) int { return q.UsersID })
		for _, q := range rows {
			if !fn(q) {
				return false
			}
		}
		return true
	})
}

// InsertQuota adds a quota row; MR_EXISTS on duplicates.
func (d *DB) InsertQuota(q *NFSQuota) error {
	if d.quotaID(q.UsersID, q.FilsysID) >= 0 {
		return mrerr.MrExists
	}
	return quotasRel.insert(d, q)
}

// DeleteQuota removes a quota row; MR_NO_MATCH if absent.
func (d *DB) DeleteQuota(usersID, filsysID int) error {
	id := d.quotaID(usersID, filsysID)
	if id < 0 {
		return mrerr.MrNoMatch
	}
	q, _ := d.quotas.rows.get(id)
	quotasRel.drop(d, id, q)
	return nil
}

// QuotasOfUser returns all quota rows belonging to a user, in filsys
// order — a probe of the user's quotas.
func (d *DB) QuotasOfUser(usersID int) []*NFSQuota {
	d.NotePoint()
	return d.quotaRows(nil, &d.quotasOfUser, usersID, func(q *NFSQuota) int { return q.FilsysID })
}

// --- Zephyr classes ---

// ZephyrByClass finds a zephyr class row.
func (d *DB) ZephyrByClass(class string) (*ZephyrClass, bool) { return d.zephyr.byKey(class) }

// EachZephyr calls fn for every zephyr class in name order.
func (d *DB) EachZephyr(fn func(*ZephyrClass) bool) { scanByName(d, &d.zephyr, fn) }

// InsertZephyr adds a class row; MR_EXISTS on duplicates.
func (d *DB) InsertZephyr(z *ZephyrClass) error { return zephyrRel.insert(d, z) }

// RenameZephyr changes a class's name.
func (d *DB) RenameZephyr(z *ZephyrClass, newClass string) {
	setKey(d, zephyrRel, z, &z.Class, newClass)
}

// DeleteZephyr removes a class row.
func (d *DB) DeleteZephyr(z *ZephyrClass) { zephyrRel.drop(d, zephyrRel.idOf(d, z), z) }

// --- Host access ---

// HostAccessOf finds the hostaccess row for a machine.
func (d *DB) HostAccessOf(machID int) (*HostAccess, bool) { return d.hostaccess.rows.get(machID) }

// EachHostAccess calls fn for every hostaccess row in mach_id order.
func (d *DB) EachHostAccess(fn func(*HostAccess) bool) { scanRows(d, &d.hostaccess, fn) }

// InsertHostAccess adds a row; MR_EXISTS on duplicates.
func (d *DB) InsertHostAccess(h *HostAccess) error { return hostAccessRel.insert(d, h) }

// DeleteHostAccess removes the row for a machine; MR_NO_MATCH if absent.
func (d *DB) DeleteHostAccess(machID int) error {
	h, ok := d.hostaccess.rows.get(machID)
	if !ok {
		return mrerr.MrNoMatch
	}
	hostAccessRel.drop(d, machID, h)
	return nil
}

// --- Strings ---

// StringByID returns the string with the given id.
func (d *DB) StringByID(id int) (*StringRec, bool) { return d.strings.rows.get(id) }

// StringID returns the id of the given string if it is interned.
func (d *DB) StringID(s string) (int, bool) { return d.strings.byName.lookup(strKey(s)) }

// InternString returns the id for s, creating a row if needed. Exclusive
// lock required when the string may be new.
func (d *DB) InternString(s string) (int, error) {
	if id, ok := d.StringID(s); ok {
		return id, nil
	}
	id, err := d.AllocID("strings_id")
	if err != nil {
		return 0, err
	}
	return id, stringsRel.insert(d, &StringRec{StringID: id, String: s})
}

// EachString calls fn for every string row in id order (fn must not
// intern new strings).
func (d *DB) EachString(fn func(*StringRec) bool) { scanRows(d, &d.strings, fn) }

// --- Network services ---

// ServiceByName finds a service definition.
func (d *DB) ServiceByName(name string) (*Service, bool) { return d.services.byKey(name) }

// EachService calls fn for every service in name order.
func (d *DB) EachService(fn func(*Service) bool) { scanByName(d, &d.services, fn) }

// InsertService adds a service definition; MR_EXISTS on duplicates.
func (d *DB) InsertService(s *Service) error { return servicesRel.insert(d, s) }

// DeleteService removes a service definition.
func (d *DB) DeleteService(s *Service) { servicesRel.drop(d, servicesRel.idOf(d, s), s) }

// --- Printers ---

// PrintcapByName finds a printer.
func (d *DB) PrintcapByName(name string) (*Printcap, bool) { return d.printcaps.byKey(name) }

// EachPrintcap calls fn for every printer in name order.
func (d *DB) EachPrintcap(fn func(*Printcap) bool) { scanByName(d, &d.printcaps, fn) }

// PrintcapOnMachine reports whether any printer spools on the machine:
// a scan in no particular order, which needs no name-order cache.
func (d *DB) PrintcapOnMachine(machID int) bool {
	d.NoteScan()
	found := false
	d.printcaps.rows.each(func(p *Printcap) bool {
		found = p.MachID == machID
		return !found
	})
	return found
}

// InsertPrintcap adds a printer; MR_EXISTS on duplicates.
func (d *DB) InsertPrintcap(p *Printcap) error { return printcapsRel.insert(d, p) }

// DeletePrintcap removes a printer.
func (d *DB) DeletePrintcap(p *Printcap) { printcapsRel.drop(d, printcapsRel.idOf(d, p), p) }

// --- Capability ACLs ---

// CapACLByName finds the ACL row for a capability (query name).
func (d *DB) CapACLByName(capability string) (*CapACL, bool) { return d.capacls.byKey(capability) }

// SetCapACL installs or replaces the ACL for a capability.
func (d *DB) SetCapACL(capability, tag string, listID int) {
	c := &CapACL{Capability: capability, Tag: tag, ListID: listID}
	if id, _, ok := d.capacls.find(capability); ok {
		d.capacls.rows.put(id, c, d.bump())
		d.noteUpdate(TCapACLs)
		return
	}
	capACLsRel.add(d, -1, c)
}

// EachCapACL calls fn for every capability row in name order.
func (d *DB) EachCapACL(fn func(*CapACL) bool) { scanByName(d, &d.capacls, fn) }

// --- Aliases ---

// EachAlias calls fn for every alias row in the order they were added
// (the query layer applies wildcards itself, this is the raw scan).
func (d *DB) EachAlias(fn func(Alias) bool) { walkRows(d, &d.aliases, fn) }

// HasAlias reports whether the exact triple exists.
func (d *DB) HasAlias(name, typ, trans string) bool {
	return rowID(&d.aliases.rows, Alias{Name: name, Type: typ, Trans: trans}) >= 0
}

// AddAlias inserts an alias triple; MR_EXISTS on exact duplicates.
func (d *DB) AddAlias(name, typ, trans string) error {
	return addRow(d, aliasesRel, Alias{Name: name, Type: typ, Trans: trans})
}

// DeleteAlias removes an exactly matching alias triple.
func (d *DB) DeleteAlias(name, typ, trans string) error {
	return deleteRow(d, aliasesRel, Alias{Name: name, Type: typ, Trans: trans})
}

// IsValidType reports whether value is registered as a TYPE alias
// translation for the named type-checked field.
func (d *DB) IsValidType(field, value string) bool { return d.HasAlias(field, "TYPE", value) }
