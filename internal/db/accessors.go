package db

import (
	"sort"

	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

// All accessor methods in this file assume the caller holds the database
// lock: shared for reads, exclusive for mutations. The query layer
// (internal/queries) is responsible for taking it per query.

// rowsOf resolves ids, taken from a secondary index, to their rows.
func rowsOf[R any](rows *table[R], ids []int) []*R {
	out := make([]*R, 0, len(ids))
	for _, id := range ids {
		if r, ok := rows.get(id); ok {
			out = append(out, r)
		}
	}
	return out
}

// eachMatch calls fn, in name order, for every row whose name matches a
// wildcard pattern: one walk over the ordered name index's range for the
// pattern's literal prefix, with no intermediate slice. fn returning
// false stops the walk.
func eachMatch[R any](rows *table[R], byName map[string]int, names *nameCache, pattern string, fn func(*R) bool) {
	matchNames(names.get(sortedKeys(byName)), pattern, func(n string) bool {
		r, ok := rows.get(byName[n])
		return !ok || fn(r)
	})
}

// matchRows resolves a wildcard pattern against a relation's ordered
// name index and returns the matching rows in id order.
func matchRows[R any](rows *table[R], byName map[string]int, names *nameCache, pattern string) []*R {
	var ids []int
	matchNames(names.get(sortedKeys(byName)), pattern, func(n string) bool {
		ids = append(ids, byName[n])
		return true
	})
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	return rowsOf(rows, ids)
}

// --- Users ---

// UserByLogin finds a user by exact login name.
func (d *DB) UserByLogin(login string) (*User, bool) {
	d.NotePoint()
	id, ok := d.userIdx.byLogin[login]
	if !ok {
		return nil, false
	}
	return d.users.get(id)
}

// UserByID finds a user by users_id.
func (d *DB) UserByID(id int) (*User, bool) {
	return d.users.get(id)
}

// UsersByUID returns all users with the given unix uid (normally one)
// in users_id order. A uid hash-index probe, not a table scan.
func (d *DB) UsersByUID(uid int) []*User {
	d.NotePoint()
	ids := d.userIdx.byUID[uid]
	if len(ids) == 0 {
		return nil
	}
	ids = append([]int(nil), ids...)
	sort.Ints(ids)
	return rowsOf(&d.users, ids)
}

// EachUser calls fn for every user in users_id order. The ordering is a
// contract — backup dumps and paged retrievals depend on it — and it
// comes from the paged table's layout, not a per-call sort. fn must not
// insert or delete users (it iterates the live table).
func (d *DB) EachUser(fn func(*User) bool) {
	d.NoteScan()
	d.users.each(fn)
}

// UsersMatchingLogin resolves a login pattern, with or without
// wildcards, in users_id order. Wildcard patterns plan an ordered-index
// range scan from the pattern's literal prefix instead of scanning the
// whole relation.
func (d *DB) UsersMatchingLogin(pattern string) []*User {
	if !wildcard.HasWildcards(pattern) {
		if u, ok := d.UserByLogin(pattern); ok {
			return []*User{u}
		}
		return nil
	}
	d.NoteRange()
	return matchRows(&d.users, d.userIdx.byLogin, d.userIdx.logins, pattern)
}

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
	eachMatch(&d.users, d.userIdx.byLogin, d.userIdx.logins, pattern, fn)
}

// NumUsers reports the row count of the users relation.
func (d *DB) NumUsers() int { return d.users.len() }

// InsertUser adds a fully formed user row; the caller has already
// allocated IDs and checked uniqueness. MR_EXISTS on duplicate login or
// users_id.
func (d *DB) InsertUser(u *User) error {
	if !validRowID(u.UsersID) {
		return mrerr.MrInternal
	}
	if _, dup := d.users.get(u.UsersID); dup {
		return mrerr.MrExists
	}
	if _, dup := d.userIdx.byLogin[u.Login]; dup {
		return mrerr.MrExists
	}
	d.userIdx.epoch = d.bump()
	d.users.put(u.UsersID, u, d.userIdx.epoch)
	d.userIdx.byLogin[u.Login] = u.UsersID
	d.userIdx.byUID[u.UID] = append(d.userIdx.byUID[u.UID], u.UsersID)
	d.userIdx.logins.invalidate()
	d.NoteAppend(TUsers)
	return nil
}

// RenameUser changes a user's login, maintaining the indexes. The
// caller has verified the new login is free (and records the update).
func (d *DB) RenameUser(u *User, newLogin string) {
	d.userIdx.epoch = d.bump()
	d.users.touch(u.UsersID, u, d.userIdx.epoch)
	delete(d.userIdx.byLogin, u.Login)
	u.Login = newLogin
	d.userIdx.byLogin[newLogin] = u.UsersID
	d.userIdx.logins.invalidate()
}

// SetUserUID changes a user's unix uid, maintaining the uid index. The
// caller records the update. Setting the uid a user already has changes
// no key and so leaves the key epoch alone.
func (d *DB) SetUserUID(u *User, uid int) {
	if uid == u.UID {
		return
	}
	d.userIdx.epoch = d.bump()
	d.users.touch(u.UsersID, u, d.userIdx.epoch)
	d.dropUID(u)
	u.UID = uid
	d.userIdx.byUID[uid] = append(d.userIdx.byUID[uid], u.UsersID)
}

// dropUID removes u from the uid index.
func (d *DB) dropUID(u *User) {
	left := removeInt(d.userIdx.byUID[u.UID], u.UsersID)
	if len(left) == 0 {
		delete(d.userIdx.byUID, u.UID)
	} else {
		d.userIdx.byUID[u.UID] = left
	}
}

// DeleteUser removes a user row.
func (d *DB) DeleteUser(u *User) {
	d.userIdx.epoch = d.bump()
	d.users.del(u.UsersID, d.userIdx.epoch)
	delete(d.userIdx.byLogin, u.Login)
	d.dropUID(u)
	d.userIdx.logins.invalidate()
	d.NoteDelete(TUsers)
}

// --- Machines ---

// MachineByName finds a machine by canonical name.
func (d *DB) MachineByName(name string) (*Machine, bool) {
	d.NotePoint()
	id, ok := d.machIdx.byName[name]
	if !ok {
		return nil, false
	}
	return d.machines.get(id)
}

// MachineByID finds a machine by mach_id.
func (d *DB) MachineByID(id int) (*Machine, bool) {
	d.NotePoint()
	return d.machines.get(id)
}

// EachMachine calls fn for every machine in mach_id order (from the
// ordered index; fn must not insert or delete machines).
func (d *DB) EachMachine(fn func(*Machine) bool) {
	d.NoteScan()
	d.machines.each(fn)
}

// MachinesMatchingName resolves a canonical-name pattern, with or
// without wildcards, in mach_id order via the ordered name index.
func (d *DB) MachinesMatchingName(pattern string) []*Machine {
	if !wildcard.HasWildcards(pattern) {
		if m, ok := d.MachineByName(pattern); ok {
			return []*Machine{m}
		}
		return nil
	}
	d.NoteRange()
	return matchRows(&d.machines, d.machIdx.byName, d.machIdx.names, pattern)
}

// InsertMachine adds a machine row; MR_EXISTS on duplicates.
func (d *DB) InsertMachine(m *Machine) error {
	if !validRowID(m.MachID) {
		return mrerr.MrInternal
	}
	if _, dup := d.machines.get(m.MachID); dup {
		return mrerr.MrExists
	}
	if _, dup := d.machIdx.byName[m.Name]; dup {
		return mrerr.MrExists
	}
	d.machIdx.epoch = d.bump()
	d.machines.put(m.MachID, m, d.machIdx.epoch)
	d.machIdx.byName[m.Name] = m.MachID
	d.machIdx.names.invalidate()
	d.NoteAppend(TMachine)
	return nil
}

// RenameMachine changes a machine's name, maintaining the indexes.
func (d *DB) RenameMachine(m *Machine, newName string) {
	d.machIdx.epoch = d.bump()
	d.machines.touch(m.MachID, m, d.machIdx.epoch)
	delete(d.machIdx.byName, m.Name)
	m.Name = newName
	d.machIdx.byName[newName] = m.MachID
	d.machIdx.names.invalidate()
}

// DeleteMachine removes a machine row.
func (d *DB) DeleteMachine(m *Machine) {
	d.machIdx.epoch = d.bump()
	d.machines.del(m.MachID, d.machIdx.epoch)
	delete(d.machIdx.byName, m.Name)
	d.machIdx.names.invalidate()
	d.NoteDelete(TMachine)
}

// --- Clusters ---

// ClusterByName finds a cluster by name (case sensitive).
func (d *DB) ClusterByName(name string) (*Cluster, bool) {
	id, ok := d.cluIdx.byName[name]
	if !ok {
		return nil, false
	}
	return d.clusters.get(id)
}

// ClusterByID finds a cluster by clu_id.
func (d *DB) ClusterByID(id int) (*Cluster, bool) {
	return d.clusters.get(id)
}

// EachCluster calls fn for every cluster in clu_id order (from the
// ordered index; fn must not insert or delete clusters).
func (d *DB) EachCluster(fn func(*Cluster) bool) {
	d.NoteScan()
	d.clusters.each(fn)
}

// ClustersMatchingName resolves a name pattern, with or without
// wildcards, in clu_id order via the ordered name index.
func (d *DB) ClustersMatchingName(pattern string) []*Cluster {
	if !wildcard.HasWildcards(pattern) {
		if c, ok := d.ClusterByName(pattern); ok {
			return []*Cluster{c}
		}
		return nil
	}
	return matchRows(&d.clusters, d.cluIdx.byName, d.cluIdx.names, pattern)
}

// InsertCluster adds a cluster row; MR_EXISTS on duplicates.
func (d *DB) InsertCluster(c *Cluster) error {
	if !validRowID(c.CluID) {
		return mrerr.MrInternal
	}
	if _, dup := d.clusters.get(c.CluID); dup {
		return mrerr.MrExists
	}
	if _, dup := d.cluIdx.byName[c.Name]; dup {
		return mrerr.MrExists
	}
	d.cluIdx.epoch = d.bump()
	d.clusters.put(c.CluID, c, d.cluIdx.epoch)
	d.cluIdx.byName[c.Name] = c.CluID
	d.cluIdx.names.invalidate()
	d.NoteAppend(TCluster)
	return nil
}

// RenameCluster changes a cluster's name, maintaining the indexes.
func (d *DB) RenameCluster(c *Cluster, newName string) {
	d.cluIdx.epoch = d.bump()
	d.clusters.touch(c.CluID, c, d.cluIdx.epoch)
	delete(d.cluIdx.byName, c.Name)
	c.Name = newName
	d.cluIdx.byName[newName] = c.CluID
	d.cluIdx.names.invalidate()
}

// DeleteCluster removes a cluster row.
func (d *DB) DeleteCluster(c *Cluster) {
	d.cluIdx.epoch = d.bump()
	d.clusters.del(c.CluID, d.cluIdx.epoch)
	delete(d.cluIdx.byName, c.Name)
	d.cluIdx.names.invalidate()
	d.NoteDelete(TCluster)
}

// --- Machine/cluster map and service clusters ---

// MCMaps returns the machine-cluster assignments (shared slice; treat as
// read-only under a shared hold).
func (d *DB) MCMaps() []MCMap { return d.mcmap }

// HasMCMap reports whether the (machine, cluster) pair exists — a
// composite-key hash probe.
func (d *DB) HasMCMap(machID, cluID int) bool {
	return d.mcmapIdx[pairKey{machID, cluID}]
}

// AddMCMap inserts an assignment; MR_EXISTS on duplicates.
func (d *DB) AddMCMap(machID, cluID int) error {
	if d.HasMCMap(machID, cluID) {
		return mrerr.MrExists
	}
	d.mcmap = append(d.mcmap, MCMap{MachID: machID, CluID: cluID})
	d.mcmapIdx[pairKey{machID, cluID}] = true
	d.NoteAppend(TMCMap)
	return nil
}

// DeleteMCMap removes an assignment; MR_NO_MATCH if absent.
func (d *DB) DeleteMCMap(machID, cluID int) error {
	if !d.HasMCMap(machID, cluID) {
		return mrerr.MrNoMatch
	}
	for i, m := range d.mcmap {
		if m.MachID == machID && m.CluID == cluID {
			d.mcmap = append(d.mcmap[:i], d.mcmap[i+1:]...)
			break
		}
	}
	delete(d.mcmapIdx, pairKey{machID, cluID})
	d.NoteDelete(TMCMap)
	return nil
}

// ClustersOfMachine returns the cluster ids a machine belongs to.
func (d *DB) ClustersOfMachine(machID int) []int {
	var out []int
	for _, m := range d.mcmap {
		if m.MachID == machID {
			out = append(out, m.CluID)
		}
	}
	sort.Ints(out)
	return out
}

// SvcRows returns the service-cluster rows (read-only under shared hold).
func (d *DB) SvcRows() []SvcData { return d.svc }

// AddSvc inserts a service-cluster datum; MR_EXISTS on exact duplicates.
func (d *DB) AddSvc(row SvcData) error {
	for _, s := range d.svc {
		if s == row {
			return mrerr.MrExists
		}
	}
	d.svc = append(d.svc, row)
	d.NoteAppend(TSvc)
	return nil
}

// DeleteSvc removes an exactly matching service-cluster datum.
func (d *DB) DeleteSvc(row SvcData) error {
	for i, s := range d.svc {
		if s == row {
			d.svc = append(d.svc[:i], d.svc[i+1:]...)
			d.NoteDelete(TSvc)
			return nil
		}
	}
	return mrerr.MrNoMatch
}

// DeleteSvcOfCluster removes all service data for a cluster (used when
// deleting the cluster itself).
func (d *DB) DeleteSvcOfCluster(cluID int) {
	kept := d.svc[:0]
	removed := false
	for _, s := range d.svc {
		if s.CluID == cluID {
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	d.svc = kept
	if removed {
		d.NoteDelete(TSvc)
	}
}

// --- Lists and members ---

// ListByName finds a list by exact name.
func (d *DB) ListByName(name string) (*List, bool) {
	id, ok := d.listIdx.byName[name]
	if !ok {
		return nil, false
	}
	return d.lists.get(id)
}

// ListByID finds a list by list_id.
func (d *DB) ListByID(id int) (*List, bool) {
	return d.lists.get(id)
}

// EachList calls fn for every list in list_id order (from the ordered
// index; fn must not insert or delete lists).
func (d *DB) EachList(fn func(*List) bool) {
	d.NoteScan()
	d.lists.each(fn)
}

// ListsMatchingName resolves a name pattern, with or without wildcards,
// in list_id order via the ordered name index.
func (d *DB) ListsMatchingName(pattern string) []*List {
	if !wildcard.HasWildcards(pattern) {
		if l, ok := d.ListByName(pattern); ok {
			return []*List{l}
		}
		return nil
	}
	d.NoteRange()
	return matchRows(&d.lists, d.listIdx.byName, d.listIdx.names, pattern)
}

// InsertList adds a list row; MR_EXISTS on duplicates.
func (d *DB) InsertList(l *List) error {
	if !validRowID(l.ListID) {
		return mrerr.MrInternal
	}
	if _, dup := d.lists.get(l.ListID); dup {
		return mrerr.MrExists
	}
	if _, dup := d.listIdx.byName[l.Name]; dup {
		return mrerr.MrExists
	}
	d.listIdx.epoch = d.bump()
	d.lists.put(l.ListID, l, d.listIdx.epoch)
	d.listIdx.byName[l.Name] = l.ListID
	d.listIdx.names.invalidate()
	d.NoteAppend(TList)
	return nil
}

// RenameList changes a list's name, maintaining the indexes.
func (d *DB) RenameList(l *List, newName string) {
	d.listIdx.epoch = d.bump()
	d.lists.touch(l.ListID, l, d.listIdx.epoch)
	delete(d.listIdx.byName, l.Name)
	l.Name = newName
	d.listIdx.byName[newName] = l.ListID
	d.listIdx.names.invalidate()
}

// DeleteList removes a list row and its membership rows.
func (d *DB) DeleteList(l *List) {
	d.listIdx.epoch = d.bump()
	d.lists.del(l.ListID, d.listIdx.epoch)
	delete(d.listIdx.byName, l.Name)
	d.listIdx.names.invalidate()
	if ms, had := d.members[l.ListID]; had {
		d.markDirty(TMembers)
		for _, m := range ms {
			d.dropMembership(m)
		}
		delete(d.members, l.ListID)
	}
	d.NoteDelete(TList)
}

// dropMembership removes one membership row from the member index.
func (d *DB) dropMembership(m Member) {
	k := memberKey{m.MemberType, m.MemberID}
	left := removeInt(d.memberIdx[k], m.ListID)
	if len(left) == 0 {
		delete(d.memberIdx, k)
	} else {
		d.memberIdx[k] = left
	}
}

// MembersOf returns the membership rows of a list (read-only).
func (d *DB) MembersOf(listID int) []Member { return d.members[listID] }

// HasMember reports whether the exact member row exists.
func (d *DB) HasMember(listID int, mtype string, mid int) bool {
	for _, m := range d.members[listID] {
		if m.MemberType == mtype && m.MemberID == mid {
			return true
		}
	}
	return false
}

// AddMember inserts a membership row; MR_EXISTS on duplicates.
func (d *DB) AddMember(listID int, mtype string, mid int) error {
	if d.HasMember(listID, mtype, mid) {
		return mrerr.MrExists
	}
	d.members[listID] = append(d.members[listID], Member{ListID: listID, MemberType: mtype, MemberID: mid})
	d.memberIdx[memberKey{mtype, mid}] = append(d.memberIdx[memberKey{mtype, mid}], listID)
	d.NoteAppend(TMembers)
	return nil
}

// DeleteMember removes a membership row; MR_NO_MATCH if absent.
func (d *DB) DeleteMember(listID int, mtype string, mid int) error {
	ms := d.members[listID]
	for i, m := range ms {
		if m.MemberType == mtype && m.MemberID == mid {
			d.members[listID] = append(ms[:i], ms[i+1:]...)
			d.dropMembership(m)
			d.NoteDelete(TMembers)
			return nil
		}
	}
	return mrerr.MrNoMatch
}

// EachMembership calls fn for every membership row, ordered by list id.
func (d *DB) EachMembership(fn func(Member) bool) {
	d.NoteScan()
	ids := make([]int, 0, len(d.members))
	for id := range d.members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, m := range d.members[id] {
			if !fn(m) {
				return
			}
		}
	}
}

// ListsContaining returns ids of lists that directly contain the
// member, in list_id order — an inverted-index probe, not a scan over
// every membership row.
func (d *DB) ListsContaining(mtype string, mid int) []int {
	ids := d.memberIdx[memberKey{mtype, mid}]
	if len(ids) == 0 {
		return nil
	}
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

// --- Servers and serverhosts ---

// ServerByName finds a service by (upper case) name.
func (d *DB) ServerByName(name string) (*Server, bool) {
	s, ok := d.servers[name]
	return s, ok
}

// EachServer calls fn for every service in name order.
func (d *DB) EachServer(fn func(*Server) bool) {
	d.NoteScan()
	names := make([]string, 0, len(d.servers))
	for n := range d.servers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !fn(d.servers[n]) {
			return
		}
	}
}

// InsertServer adds a service row; MR_EXISTS on duplicates.
func (d *DB) InsertServer(s *Server) error {
	if _, dup := d.servers[s.Name]; dup {
		return mrerr.MrExists
	}
	d.servers[s.Name] = s
	d.NoteAppend(TServers)
	return nil
}

// DeleteServer removes a service row.
func (d *DB) DeleteServer(s *Server) {
	delete(d.servers, s.Name)
	d.NoteDelete(TServers)
}

// The serverhosts slice is kept sorted by (service, mach_id): it IS the
// ordered index for its relation. Point lookups and per-service range
// scans are binary searches; the flag-update paths (DCM) mutate rows in
// place and never change the key fields.

// shSearch returns the insertion point for (service, machID).
func (d *DB) shSearch(service string, machID int) int {
	return sort.Search(len(d.serverHosts), func(i int) bool {
		sh := d.serverHosts[i]
		if sh.Service != service {
			return sh.Service > service
		}
		return sh.MachID >= machID
	})
}

// ServerHostsOf returns the host rows for a service, machine-id ordered
// — a contiguous range of the ordered slice.
func (d *DB) ServerHostsOf(service string) []*ServerHost {
	i := d.shSearch(service, 0)
	// mach_ids are non-negative, so the range starts at (service, 0).
	var out []*ServerHost
	for ; i < len(d.serverHosts) && d.serverHosts[i].Service == service; i++ {
		out = append(out, d.serverHosts[i])
	}
	return out
}

// ServerHost finds the row for (service, machine) by binary search.
func (d *DB) ServerHost(service string, machID int) (*ServerHost, bool) {
	i := d.shSearch(service, machID)
	if i < len(d.serverHosts) {
		if sh := d.serverHosts[i]; sh.Service == service && sh.MachID == machID {
			return sh, true
		}
	}
	return nil, false
}

// EachServerHost calls fn for every serverhost row in (service, mach_id)
// order (fn must not insert or delete rows).
func (d *DB) EachServerHost(fn func(*ServerHost) bool) {
	d.NoteScan()
	for _, sh := range d.serverHosts {
		if !fn(sh) {
			return
		}
	}
}

// InsertServerHost adds a serverhost row; MR_EXISTS on duplicates.
func (d *DB) InsertServerHost(sh *ServerHost) error {
	i := d.shSearch(sh.Service, sh.MachID)
	if i < len(d.serverHosts) {
		if cur := d.serverHosts[i]; cur.Service == sh.Service && cur.MachID == sh.MachID {
			return mrerr.MrExists
		}
	}
	d.serverHosts = append(d.serverHosts, nil)
	copy(d.serverHosts[i+1:], d.serverHosts[i:])
	d.serverHosts[i] = sh
	d.NoteAppend(TServerHosts)
	return nil
}

// DeleteServerHost removes a serverhost row; MR_NO_MATCH if absent.
func (d *DB) DeleteServerHost(service string, machID int) error {
	i := d.shSearch(service, machID)
	if i >= len(d.serverHosts) {
		return mrerr.MrNoMatch
	}
	if sh := d.serverHosts[i]; sh.Service != service || sh.MachID != machID {
		return mrerr.MrNoMatch
	}
	d.serverHosts = append(d.serverHosts[:i], d.serverHosts[i+1:]...)
	d.NoteDelete(TServerHosts)
	return nil
}

// --- Filesystems ---

// FilesysByID finds a filesystem by filsys_id.
func (d *DB) FilesysByID(id int) (*Filesys, bool) {
	return d.filesys.get(id)
}

// FilesysByLabel returns all filesystems with the given label in Order
// order — a label hash-index probe.
func (d *DB) FilesysByLabel(label string) []*Filesys {
	d.NotePoint()
	ids := d.filesysIdx.byLabel[label]
	if len(ids) == 0 {
		return nil
	}
	out := rowsOf(&d.filesys, ids)
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// EachFilesys calls fn for every filesystem in filsys_id order (from
// the ordered index; fn must not insert or delete rows).
func (d *DB) EachFilesys(fn func(*Filesys) bool) {
	d.NoteScan()
	d.filesys.each(fn)
}

// InsertFilesys adds a filesystem row; MR_EXISTS on duplicate id or
// (label, order) pair. The duplicate check probes the label index
// bucket instead of scanning the relation.
func (d *DB) InsertFilesys(f *Filesys) error {
	if !validRowID(f.FilsysID) {
		return mrerr.MrInternal
	}
	if _, dup := d.filesys.get(f.FilsysID); dup {
		return mrerr.MrExists
	}
	for _, id := range d.filesysIdx.byLabel[f.Label] {
		if other, ok := d.filesys.get(id); ok && other.Order == f.Order {
			return mrerr.MrExists
		}
	}
	d.filesysIdx.epoch = d.bump()
	d.filesys.put(f.FilsysID, f, d.filesysIdx.epoch)
	d.filesysIdx.byLabel[f.Label] = append(d.filesysIdx.byLabel[f.Label], f.FilsysID)
	d.NoteAppend(TFilesys)
	return nil
}

// DeleteFilesys removes a filesystem row.
func (d *DB) DeleteFilesys(f *Filesys) {
	d.filesysIdx.epoch = d.bump()
	d.filesys.del(f.FilsysID, d.filesysIdx.epoch)
	left := removeInt(d.filesysIdx.byLabel[f.Label], f.FilsysID)
	if len(left) == 0 {
		delete(d.filesysIdx.byLabel, f.Label)
	} else {
		d.filesysIdx.byLabel[f.Label] = left
	}
	d.NoteDelete(TFilesys)
}

// SetFilesysLabel changes a filesystem's label, maintaining the label
// index. The caller has checked (label, order) uniqueness and records
// the update. Setting the label a filesystem already has changes no key
// and so leaves the key epoch alone.
func (d *DB) SetFilesysLabel(f *Filesys, label string) {
	if label == f.Label {
		return
	}
	d.filesysIdx.epoch = d.bump()
	d.filesys.touch(f.FilsysID, f, d.filesysIdx.epoch)
	left := removeInt(d.filesysIdx.byLabel[f.Label], f.FilsysID)
	if len(left) == 0 {
		delete(d.filesysIdx.byLabel, f.Label)
	} else {
		d.filesysIdx.byLabel[f.Label] = left
	}
	f.Label = label
	d.filesysIdx.byLabel[label] = append(d.filesysIdx.byLabel[label], f.FilsysID)
}

// --- NFS physical partitions and quotas ---

// NFSPhysByID finds a partition by nfsphys_id.
func (d *DB) NFSPhysByID(id int) (*NFSPhys, bool) {
	return d.nfsphys.get(id)
}

// NFSPhysByMachDir finds a partition by server machine and directory.
func (d *DB) NFSPhysByMachDir(machID int, dir string) (*NFSPhys, bool) {
	var found *NFSPhys
	d.nfsphys.each(func(p *NFSPhys) bool {
		if p.MachID == machID && p.Dir == dir {
			found = p
		}
		return found == nil
	})
	return found, found != nil
}

// EachNFSPhys calls fn for every partition in nfsphys_id order.
func (d *DB) EachNFSPhys(fn func(*NFSPhys) bool) {
	d.NoteScan()
	d.nfsphys.each(fn)
}

// InsertNFSPhys adds a partition row; MR_EXISTS on duplicates.
func (d *DB) InsertNFSPhys(p *NFSPhys) error {
	if !validRowID(p.NFSPhysID) {
		return mrerr.MrInternal
	}
	if _, dup := d.nfsphys.get(p.NFSPhysID); dup {
		return mrerr.MrExists
	}
	if _, dup := d.NFSPhysByMachDir(p.MachID, p.Dir); dup {
		return mrerr.MrExists
	}
	d.nfsphys.put(p.NFSPhysID, p, d.bump())
	d.NoteAppend(TNFSPhys)
	return nil
}

// DeleteNFSPhys removes a partition row.
func (d *DB) DeleteNFSPhys(p *NFSPhys) {
	d.nfsphys.del(p.NFSPhysID, d.bump())
	d.NoteDelete(TNFSPhys)
}

// The nfsquotas slice is kept sorted by (filsys_id, users_id) — the
// EachQuota order — with a composite-key hash index for point lookups.

// quotaSearch returns the insertion point for (filsysID, usersID).
func (d *DB) quotaSearch(filsysID, usersID int) int {
	return sort.Search(len(d.nfsquotas), func(i int) bool {
		q := d.nfsquotas[i]
		if q.FilsysID != filsysID {
			return q.FilsysID > filsysID
		}
		return q.UsersID >= usersID
	})
}

// QuotaOf finds the quota row for (user, filesystem) — a hash probe.
func (d *DB) QuotaOf(usersID, filsysID int) (*NFSQuota, bool) {
	q, ok := d.quotaIdx[pairKey{usersID, filsysID}]
	return q, ok
}

// EachQuota calls fn for every quota row in (filsys, user) order (fn
// must not insert or delete rows).
func (d *DB) EachQuota(fn func(*NFSQuota) bool) {
	d.NoteScan()
	for _, q := range d.nfsquotas {
		if !fn(q) {
			return
		}
	}
}

// InsertQuota adds a quota row; MR_EXISTS on duplicates.
func (d *DB) InsertQuota(q *NFSQuota) error {
	if _, dup := d.QuotaOf(q.UsersID, q.FilsysID); dup {
		return mrerr.MrExists
	}
	i := d.quotaSearch(q.FilsysID, q.UsersID)
	d.nfsquotas = append(d.nfsquotas, nil)
	copy(d.nfsquotas[i+1:], d.nfsquotas[i:])
	d.nfsquotas[i] = q
	d.quotaIdx[pairKey{q.UsersID, q.FilsysID}] = q
	d.NoteAppend(TNFSQuota)
	return nil
}

// DeleteQuota removes a quota row; MR_NO_MATCH if absent.
func (d *DB) DeleteQuota(usersID, filsysID int) error {
	if _, ok := d.quotaIdx[pairKey{usersID, filsysID}]; !ok {
		return mrerr.MrNoMatch
	}
	i := d.quotaSearch(filsysID, usersID)
	d.nfsquotas = append(d.nfsquotas[:i], d.nfsquotas[i+1:]...)
	delete(d.quotaIdx, pairKey{usersID, filsysID})
	d.NoteDelete(TNFSQuota)
	return nil
}

// QuotasOfUser returns all quota rows belonging to a user.
func (d *DB) QuotasOfUser(usersID int) []*NFSQuota {
	var out []*NFSQuota
	d.EachQuota(func(q *NFSQuota) bool {
		if q.UsersID == usersID {
			out = append(out, q)
		}
		return true
	})
	return out
}

// --- Zephyr classes ---

// ZephyrByClass finds a zephyr class row.
func (d *DB) ZephyrByClass(class string) (*ZephyrClass, bool) {
	z, ok := d.zephyr[class]
	return z, ok
}

// EachZephyr calls fn for every zephyr class in name order.
func (d *DB) EachZephyr(fn func(*ZephyrClass) bool) {
	d.NoteScan()
	names := make([]string, 0, len(d.zephyr))
	for n := range d.zephyr {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !fn(d.zephyr[n]) {
			return
		}
	}
}

// InsertZephyr adds a class row; MR_EXISTS on duplicates.
func (d *DB) InsertZephyr(z *ZephyrClass) error {
	if _, dup := d.zephyr[z.Class]; dup {
		return mrerr.MrExists
	}
	d.zephyr[z.Class] = z
	d.NoteAppend(TZephyr)
	return nil
}

// RenameZephyr changes a class's name.
func (d *DB) RenameZephyr(z *ZephyrClass, newClass string) {
	d.markDirty(TZephyr)
	delete(d.zephyr, z.Class)
	z.Class = newClass
	d.zephyr[newClass] = z
}

// DeleteZephyr removes a class row.
func (d *DB) DeleteZephyr(z *ZephyrClass) {
	delete(d.zephyr, z.Class)
	d.NoteDelete(TZephyr)
}

// --- Host access ---

// HostAccessOf finds the hostaccess row for a machine.
func (d *DB) HostAccessOf(machID int) (*HostAccess, bool) {
	return d.hostaccess.get(machID)
}

// EachHostAccess calls fn for every hostaccess row in mach_id order.
func (d *DB) EachHostAccess(fn func(*HostAccess) bool) {
	d.NoteScan()
	d.hostaccess.each(fn)
}

// InsertHostAccess adds a row; MR_EXISTS on duplicates.
func (d *DB) InsertHostAccess(h *HostAccess) error {
	if !validRowID(h.MachID) {
		return mrerr.MrInternal
	}
	if _, dup := d.hostaccess.get(h.MachID); dup {
		return mrerr.MrExists
	}
	d.hostaccess.put(h.MachID, h, d.bump())
	d.NoteAppend(THostAccess)
	return nil
}

// DeleteHostAccess removes the row for a machine; MR_NO_MATCH if absent.
func (d *DB) DeleteHostAccess(machID int) error {
	if _, ok := d.hostaccess.get(machID); !ok {
		return mrerr.MrNoMatch
	}
	d.hostaccess.del(machID, d.bump())
	d.NoteDelete(THostAccess)
	return nil
}

// --- Strings ---

// StringByID returns the string with the given id.
func (d *DB) StringByID(id int) (*StringRec, bool) {
	return d.strings.get(id)
}

// StringID returns the id of the given string if it is interned.
func (d *DB) StringID(s string) (int, bool) {
	id, ok := d.stringIdx.byName[s]
	return id, ok
}

// InternString returns the id for s, creating a row if needed. Exclusive
// lock required when the string may be new.
func (d *DB) InternString(s string) (int, error) {
	if id, ok := d.stringIdx.byName[s]; ok {
		return id, nil
	}
	id, err := d.AllocID("strings_id")
	if err != nil {
		return 0, err
	}
	if !validRowID(id) {
		return 0, mrerr.MrInternal
	}
	d.stringIdx.epoch = d.bump()
	d.strings.put(id, &StringRec{StringID: id, String: s}, d.stringIdx.epoch)
	d.stringIdx.byName[s] = id
	d.NoteAppend(TStrings)
	return id, nil
}

// EachString calls fn for every string row in id order (from the
// ordered index; fn must not intern new strings).
func (d *DB) EachString(fn func(*StringRec) bool) {
	d.NoteScan()
	d.strings.each(fn)
}

// --- Network services ---

// ServiceByName finds a service definition.
func (d *DB) ServiceByName(name string) (*Service, bool) {
	s, ok := d.services[name]
	return s, ok
}

// EachService calls fn for every service in name order.
func (d *DB) EachService(fn func(*Service) bool) {
	d.NoteScan()
	names := make([]string, 0, len(d.services))
	for n := range d.services {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !fn(d.services[n]) {
			return
		}
	}
}

// InsertService adds a service definition; MR_EXISTS on duplicates.
func (d *DB) InsertService(s *Service) error {
	if _, dup := d.services[s.Name]; dup {
		return mrerr.MrExists
	}
	d.services[s.Name] = s
	d.NoteAppend(TServices)
	return nil
}

// DeleteService removes a service definition.
func (d *DB) DeleteService(s *Service) {
	delete(d.services, s.Name)
	d.NoteDelete(TServices)
}

// --- Printers ---

// PrintcapByName finds a printer.
func (d *DB) PrintcapByName(name string) (*Printcap, bool) {
	p, ok := d.printcaps[name]
	return p, ok
}

// EachPrintcap calls fn for every printer in name order.
func (d *DB) EachPrintcap(fn func(*Printcap) bool) {
	d.NoteScan()
	names := make([]string, 0, len(d.printcaps))
	for n := range d.printcaps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !fn(d.printcaps[n]) {
			return
		}
	}
}

// InsertPrintcap adds a printer; MR_EXISTS on duplicates.
func (d *DB) InsertPrintcap(p *Printcap) error {
	if _, dup := d.printcaps[p.Name]; dup {
		return mrerr.MrExists
	}
	d.printcaps[p.Name] = p
	d.NoteAppend(TPrintcap)
	return nil
}

// DeletePrintcap removes a printer.
func (d *DB) DeletePrintcap(p *Printcap) {
	delete(d.printcaps, p.Name)
	d.NoteDelete(TPrintcap)
}

// --- Capability ACLs ---

// CapACLByName finds the ACL row for a capability (query name).
func (d *DB) CapACLByName(capability string) (*CapACL, bool) {
	c, ok := d.capacls[capability]
	return c, ok
}

// SetCapACL installs or replaces the ACL for a capability.
func (d *DB) SetCapACL(capability, tag string, listID int) {
	if _, ok := d.capacls[capability]; ok {
		d.noteUpdate(TCapACLs)
	} else {
		d.NoteAppend(TCapACLs)
	}
	d.capacls[capability] = &CapACL{Capability: capability, Tag: tag, ListID: listID}
}

// EachCapACL calls fn for every capability row in name order.
func (d *DB) EachCapACL(fn func(*CapACL) bool) {
	d.NoteScan()
	names := make([]string, 0, len(d.capacls))
	for n := range d.capacls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !fn(d.capacls[n]) {
			return
		}
	}
}

// --- Aliases ---

// Aliases returns matching alias rows; empty strings match everything
// (the query layer applies wildcards itself, this is the raw scan).
func (d *DB) Aliases() []Alias { return d.aliases }

// HasAlias reports whether the exact triple exists.
func (d *DB) HasAlias(name, typ, trans string) bool {
	for _, a := range d.aliases {
		if a.Name == name && a.Type == typ && a.Trans == trans {
			return true
		}
	}
	return false
}

// AddAlias inserts an alias triple; MR_EXISTS on exact duplicates.
func (d *DB) AddAlias(name, typ, trans string) error {
	if d.HasAlias(name, typ, trans) {
		return mrerr.MrExists
	}
	d.aliases = append(d.aliases, Alias{Name: name, Type: typ, Trans: trans})
	d.NoteAppend(TAlias)
	return nil
}

// DeleteAlias removes an exactly matching alias triple.
func (d *DB) DeleteAlias(name, typ, trans string) error {
	for i, a := range d.aliases {
		if a.Name == name && a.Type == typ && a.Trans == trans {
			d.aliases = append(d.aliases[:i], d.aliases[i+1:]...)
			d.NoteDelete(TAlias)
			return nil
		}
	}
	return mrerr.MrNoMatch
}

// AliasTranslations returns the translations of (name, type), used for
// type checking ("is VAX a registered mach_type?").
func (d *DB) AliasTranslations(name, typ string) []string {
	var out []string
	for _, a := range d.aliases {
		if a.Name == name && a.Type == typ {
			out = append(out, a.Trans)
		}
	}
	return out
}

// IsValidType reports whether value is registered as a TYPE alias
// translation for the named type-checked field.
func (d *DB) IsValidType(field, value string) bool {
	for _, a := range d.aliases {
		if a.Type == "TYPE" && a.Name == field && a.Trans == value {
			return true
		}
	}
	return false
}
