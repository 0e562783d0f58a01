package db

import (
	"fmt"
	"sort"
)

// mrfsck: referential-integrity checking. The paper's answer to a
// corrupt binary database is "restore from ASCII and roll forward";
// this is the check that tells you whether what you restored (or what
// you are about to trust after a crash) is internally consistent —
// every member points at a list that exists, every filesystem at a
// real machine, every index entry at a row that agrees with it.

// Inconsistency is one referential-integrity violation.
type Inconsistency struct {
	Table   string // the relation holding the dangling reference
	Item    string // which row
	Problem string // what is wrong with it
}

// String renders the inconsistency as one report line.
func (i Inconsistency) String() string {
	return fmt.Sprintf("%s: %s: %s", i.Table, i.Item, i.Problem)
}

// Fsck checks the database's referential integrity and index
// consistency, returning every violation found (nil when clean). It
// takes the shared lock itself; callers must not hold it.
func (d *DB) Fsck() []Inconsistency {
	d.LockShared()
	defer d.UnlockShared()
	var out []Inconsistency
	add := func(table, item, format string, args ...any) {
		out = append(out, Inconsistency{Table: table, Item: item, Problem: fmt.Sprintf(format, args...)})
	}

	userOK := func(id int) bool { _, ok := d.users.rows.get(id); return ok }
	listOK := func(id int) bool { _, ok := d.lists.rows.get(id); return ok }
	machOK := func(id int) bool { _, ok := d.machines.rows.get(id); return ok }
	cluOK := func(id int) bool { _, ok := d.clusters.rows.get(id); return ok }
	strOK := func(id int) bool { _, ok := d.strings.rows.get(id); return ok }

	// checkACE validates one access-control entity reference. NONE (or
	// an unset type, as bootstrap rows carry) has no target; the R*
	// forms reference the same relations.
	checkACE := func(table, item, aceType string, aceID int) {
		switch aceType {
		case ACENone, "":
		case ACEUser, ACERUser:
			if !userOK(aceID) {
				add(table, item, "ACL references missing user %d", aceID)
			}
		case ACEList, ACERList:
			if !listOK(aceID) {
				add(table, item, "ACL references missing list %d", aceID)
			}
		case ACEString, ACERStr:
			if !strOK(aceID) {
				add(table, item, "ACL references missing string %d", aceID)
			}
		default:
			add(table, item, "unknown ACL type %q", aceType)
		}
	}

	// Page ↔ row agreement for every table, and index ↔ row agreement
	// for every index. The indexes are never persisted, so a finding here
	// is a maintenance bug in the running server, not on-disk corruption
	// — but it would mean silently wrong query results, which is exactly
	// what fsck exists to catch. Surrogate ids are not in their rows, so
	// those tables' slots are not checked against the rows.
	auditNamed(add, TUsers, "login", &d.users, func(u *User) int { return u.UsersID })
	auditNamed(add, TMachine, "name", &d.machines, func(m *Machine) int { return m.MachID })
	auditNamed(add, TCluster, "name", &d.clusters, func(c *Cluster) int { return c.CluID })
	auditNamed(add, TList, "name", &d.lists, func(l *List) int { return l.ListID })
	auditNamed(add, TFilesys, "label", &d.filesys, func(f *Filesys) int { return f.FilsysID })
	auditNamed(add, TStrings, "value", &d.strings, func(s *StringRec) int { return s.StringID })
	auditNamed(add, TServers, "name", &d.servers, nil)
	auditNamed(add, TServerHosts, "service", &d.serverHosts, nil)
	auditNamed(add, TZephyr, "class", &d.zephyr, nil)
	auditNamed(add, TServices, "name", &d.services, nil)
	auditNamed(add, TPrintcap, "name", &d.printcaps, nil)
	auditNamed(add, TCapACLs, "capability", &d.capacls, nil)
	auditNamed(add, TValues, "name", &d.values, nil)
	auditNamed(add, TTblStats, "table", &d.stats, nil)
	d.nfsphys.audit(TNFSPhys, func(p *NFSPhys) int { return p.NFSPhysID }, add)
	d.hostaccess.audit(THostAccess, func(h *HostAccess) int { return h.MachID }, add)
	d.svc.audit(TSvc, nil, add)
	d.aliases.audit(TAlias, nil, add)
	d.mcmap.audit(TMCMap, nil, add)
	auditIndex(add, TMCMap, "machine", &d.mcOfMach, &d.mcmap, func(mc *MCMap) idKey { return idKey(mc.MachID) })
	auditIndex(add, TMCMap, "cluster", &d.mcOfClu, &d.mcmap, func(mc *MCMap) idKey { return idKey(mc.CluID) })
	d.quotas.audit(TNFSQuota, nil, add)
	auditIndex(add, TNFSQuota, "filesys", &d.quotasOnFS, &d.quotas, func(q *NFSQuota) idKey { return idKey(q.FilsysID) })
	auditIndex(add, TNFSQuota, "user", &d.quotasOfUser, &d.quotas, func(q *NFSQuota) idKey { return idKey(q.UsersID) })
	auditIndex(add, TUsers, "uid", &d.uids, &d.users.rows, func(u *User) uidKey { return uidKey(u.UID) })

	// The member index files list ids, not membership rows, under each
	// member: every membership of a known type is filed, and every list
	// filed under a member has the membership.
	d.members.audit(TMembers, nil, add)
	indexable := 0
	d.members.eachID(func(listID int, ms *[]Member) bool {
		for _, m := range *ms {
			item := fmt.Sprintf("list %d member %s %d", listID, m.MemberType, m.MemberID)
			if m.ListID != listID {
				add(TMembers, item, "row of list %d filed under list %d", m.ListID, listID)
			}
			if t := memberType(m.MemberType); t >= 0 {
				indexable++
				if d.memberOf[t].find(idKey(m.MemberID), func(id int) bool { return id == listID }) < 0 {
					add(TMembers, item, "row missing from member index")
				}
			}
		}
		return true
	})
	indexed := 0
	for t := range d.memberOf {
		d.memberOf[t].audit(TMembers, memberTypes[t]+" member", add)
		d.memberOf[t].eachID(func(mid int, b *[]entry[idKey]) bool {
			for _, e := range *b {
				indexed++
				if !d.HasMember(e.id, memberTypes[t], mid) {
					add(TMembers, fmt.Sprintf("%s %d", memberTypes[t], mid), "member index claims membership in list %d which has no such row", e.id)
				}
			}
			return true
		})
	}
	if indexed != indexable {
		add(TMembers, "member index", "index covers %d rows, relation has %d", indexed, indexable)
	}

	// List ACLs and memberships.
	d.lists.rows.each(func(l *List) bool {
		checkACE(TList, l.Name, l.ACLType, l.ACLID)
		return true
	})
	d.members.eachID(func(listID int, members *[]Member) bool {
		if !listOK(listID) {
			add(TMembers, fmt.Sprintf("list %d", listID), "memberships of a missing list")
			return true
		}
		for _, m := range *members {
			item := fmt.Sprintf("list %d member %s %d", listID, m.MemberType, m.MemberID)
			switch m.MemberType {
			case ACEUser:
				if !userOK(m.MemberID) {
					add(TMembers, item, "member user is missing")
				}
			case ACEList:
				if !listOK(m.MemberID) {
					add(TMembers, item, "member list is missing")
				}
			case ACEString:
				if !strOK(m.MemberID) {
					add(TMembers, item, "member string is missing")
				}
			default:
				add(TMembers, item, "unknown member type %q", m.MemberType)
			}
		}
		return true
	})

	// Machine/cluster mappings and service data.
	d.mcmap.each(func(mc *MCMap) bool {
		item := fmt.Sprintf("machine %d cluster %d", mc.MachID, mc.CluID)
		if !machOK(mc.MachID) {
			add(TMCMap, item, "mapping references missing machine")
		}
		if !cluOK(mc.CluID) {
			add(TMCMap, item, "mapping references missing cluster")
		}
		return true
	})
	d.svc.each(func(sv *SvcData) bool {
		if !cluOK(sv.CluID) {
			add(TSvc, sv.ServLabel, "service datum references missing cluster %d", sv.CluID)
		}
		return true
	})

	// DCM state: serverhosts reference servers and machines.
	d.serverHosts.rows.each(func(sh *ServerHost) bool {
		item := fmt.Sprintf("%s on machine %d", sh.Service, sh.MachID)
		if _, ok := d.servers.byKey(sh.Service); !ok {
			add(TServerHosts, item, "host row for a missing service")
		}
		if !machOK(sh.MachID) {
			add(TServerHosts, item, "host row references missing machine")
		}
		return true
	})
	d.servers.rows.each(func(srv *Server) bool {
		checkACE(TServers, srv.Name, srv.ACLType, srv.ACLID)
		return true
	})

	// Filesystems, NFS allocations, quotas.
	d.filesys.rows.each(func(fs *Filesys) bool {
		if fs.MachID != 0 && !machOK(fs.MachID) {
			add(TFilesys, fs.Label, "filesystem references missing machine %d", fs.MachID)
		}
		if fs.Owner != 0 && !userOK(fs.Owner) {
			add(TFilesys, fs.Label, "filesystem owner user %d is missing", fs.Owner)
		}
		if fs.Owners != 0 && !listOK(fs.Owners) {
			add(TFilesys, fs.Label, "filesystem owners list %d is missing", fs.Owners)
		}
		return true
	})
	d.nfsphys.each(func(p *NFSPhys) bool {
		if !machOK(p.MachID) {
			add(TNFSPhys, p.Dir, "NFS partition references missing machine %d", p.MachID)
		}
		return true
	})
	d.quotas.each(func(q *NFSQuota) bool {
		item := fmt.Sprintf("user %d filesys %d", q.UsersID, q.FilsysID)
		if q.UsersID != 0 && !userOK(q.UsersID) {
			add(TNFSQuota, item, "quota for a missing user")
		}
		if _, ok := d.filesys.rows.get(q.FilsysID); !ok {
			add(TNFSQuota, item, "quota on a missing filesystem")
		}
		return true
	})

	// Zephyr class ACEs, host access, capability ACLs.
	d.zephyr.rows.each(func(z *ZephyrClass) bool {
		checkACE(TZephyr, z.Class+" xmt", z.XmtType, z.XmtID)
		checkACE(TZephyr, z.Class+" sub", z.SubType, z.SubID)
		checkACE(TZephyr, z.Class+" iws", z.IwsType, z.IwsID)
		checkACE(TZephyr, z.Class+" iui", z.IuiType, z.IuiID)
		return true
	})
	d.hostaccess.each(func(h *HostAccess) bool {
		item := fmt.Sprintf("machine %d", h.MachID)
		if !machOK(h.MachID) {
			add(THostAccess, item, "access row for a missing machine")
		}
		checkACE(THostAccess, item, h.ACLType, h.ACLID)
		return true
	})
	d.capacls.rows.each(func(c *CapACL) bool {
		if !listOK(c.ListID) {
			add(TCapACLs, c.Capability, "capability ACL references missing list %d", c.ListID)
		}
		return true
	})

	// Poboxes: a POP box references a machine.
	d.users.rows.each(func(u *User) bool {
		if u.PoType == PoboxPOP && u.PopID != 0 && !machOK(u.PopID) {
			add(TUsers, u.Login, "POP pobox references missing machine %d", u.PopID)
		}
		return true
	})

	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// auditNamed checks one relation and its name index: the rows' page ↔
// row agreement (id is nil for surrogate-id relations), then the index.
func auditNamed[R any](add func(table, item, format string, args ...any), table, what string,
	n *named[R], id func(*R) int) {
	n.rows.audit(table, id, add)
	auditIndex(add, table, what, &n.byName, &n.rows, func(r *R) strKey { return strKey(n.name(r)) })
}

// auditIndex checks an index against the rows it files: its buckets'
// own agreement (audit), every entry naming a row with that key, and
// every row filed under its key exactly once.
func auditIndex[K hashKey, R any](add func(table, item, format string, args ...any), table, what string,
	x *hashIndex[K], rows *table[R], key func(*R) K) {
	x.audit(table, what, add)
	filed := 0
	x.each(func(b *[]entry[K]) bool {
		for _, e := range *b {
			filed++
			if r, ok := rows.get(e.id); !ok || key(r) != e.key {
				add(table, fmt.Sprint(e.key), "%s index files row %d, which is missing or not under that key", what, e.id)
			}
		}
		return true
	})
	rows.eachID(func(id int, r *R) bool {
		if x.find(key(r), func(x int) bool { return x == id }) < 0 {
			add(table, fmt.Sprint(key(r)), "row %d missing from %s index", id, what)
		}
		return true
	})
	if filed != rows.len() {
		add(table, what+" index", "index covers %d rows, relation has %d", filed, rows.len())
	}
}
