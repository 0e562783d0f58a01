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

	userOK := func(id int) bool { _, ok := d.users.get(id); return ok }
	listOK := func(id int) bool { _, ok := d.lists.get(id); return ok }
	machOK := func(id int) bool { _, ok := d.machines.get(id); return ok }
	cluOK := func(id int) bool { _, ok := d.clusters.get(id); return ok }
	strOK := func(id int) bool { _, ok := d.strings.get(id); return ok }

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

	// Page ↔ row agreement for every paged relation, and index ↔ row
	// agreement for every index over one. The indexes are never
	// persisted, so a finding here is a maintenance bug in the running
	// server, not on-disk corruption — but it would mean silently wrong
	// query results, which is exactly what fsck exists to catch.
	auditNamed(add, TUsers, "login", &d.users, d.userIdx.byLogin, func(u *User) (string, int) { return u.Login, u.UsersID })
	auditNamed(add, TMachine, "name", &d.machines, d.machIdx.byName, func(m *Machine) (string, int) { return m.Name, m.MachID })
	auditNamed(add, TCluster, "name", &d.clusters, d.cluIdx.byName, func(c *Cluster) (string, int) { return c.Name, c.CluID })
	auditNamed(add, TList, "name", &d.lists, d.listIdx.byName, func(l *List) (string, int) { return l.Name, l.ListID })
	auditNamed(add, TStrings, "value", &d.strings, d.stringIdx.byName, func(s *StringRec) (string, int) { return s.String, s.StringID })
	d.filesys.audit(TFilesys, func(f *Filesys) int { return f.FilsysID }, add)
	d.nfsphys.audit(TNFSPhys, func(p *NFSPhys) int { return p.NFSPhysID }, add)
	d.hostaccess.audit(THostAccess, func(h *HostAccess) int { return h.MachID }, add)

	uidCount := 0
	for uid, ids := range d.userIdx.byUID {
		uidCount += len(ids)
		for _, id := range ids {
			if u, ok := d.users.get(id); !ok || u.UID != uid {
				add(TUsers, fmt.Sprintf("uid %d", uid), "uid index points at user %d which is missing or re-uided", id)
			}
		}
	}
	if uidCount != d.users.len() {
		add(TUsers, "uid index", "index covers %d users, relation has %d", uidCount, d.users.len())
	}

	labelCount := 0
	for label, ids := range d.filesysIdx.byLabel {
		labelCount += len(ids)
		for _, id := range ids {
			if f, ok := d.filesys.get(id); !ok || f.Label != label {
				add(TFilesys, label, "label index points at filesys %d which is missing or relabeled", id)
			}
		}
	}
	if labelCount != d.filesys.len() {
		add(TFilesys, "label index", "index covers %d rows, relation has %d", labelCount, d.filesys.len())
	}

	memberCount := 0
	for k, listIDs := range d.memberIdx {
		memberCount += len(listIDs)
		for _, listID := range listIDs {
			if !d.HasMember(listID, k.Type, k.ID) {
				add(TMembers, fmt.Sprintf("%s %d", k.Type, k.ID), "member index claims membership in list %d which has no such row", listID)
			}
		}
	}
	nMembers := 0
	for _, ms := range d.members {
		nMembers += len(ms)
	}
	if memberCount != nMembers {
		add(TMembers, "member index", "index covers %d rows, relation has %d", memberCount, nMembers)
	}

	if len(d.mcmapIdx) != len(d.mcmap) {
		add(TMCMap, "pair index", "index covers %d rows, relation has %d", len(d.mcmapIdx), len(d.mcmap))
	}
	for _, mc := range d.mcmap {
		if !d.mcmapIdx[pairKey{mc.MachID, mc.CluID}] {
			add(TMCMap, fmt.Sprintf("machine %d cluster %d", mc.MachID, mc.CluID), "row missing from pair index")
		}
	}

	if len(d.quotaIdx) != len(d.nfsquotas) {
		add(TNFSQuota, "pair index", "index covers %d rows, relation has %d", len(d.quotaIdx), len(d.nfsquotas))
	}
	for i, q := range d.nfsquotas {
		if d.quotaIdx[pairKey{q.UsersID, q.FilsysID}] != q {
			add(TNFSQuota, fmt.Sprintf("user %d filesys %d", q.UsersID, q.FilsysID), "row missing from pair index")
		}
		if i > 0 {
			p := d.nfsquotas[i-1]
			if p.FilsysID > q.FilsysID || (p.FilsysID == q.FilsysID && p.UsersID >= q.UsersID) {
				add(TNFSQuota, "ordered slice", "rows out of (filsys, user) order at position %d", i)
			}
		}
	}
	for i, sh := range d.serverHosts {
		if i == 0 {
			continue
		}
		p := d.serverHosts[i-1]
		if p.Service > sh.Service || (p.Service == sh.Service && p.MachID >= sh.MachID) {
			add(TServerHosts, "ordered slice", "rows out of (service, mach_id) order at position %d", i)
		}
	}

	// List ACLs and memberships.
	d.lists.each(func(l *List) bool {
		checkACE(TList, l.Name, l.ACLType, l.ACLID)
		return true
	})
	for listID, members := range d.members {
		if !listOK(listID) {
			add(TMembers, fmt.Sprintf("list %d", listID), "memberships of a missing list")
			continue
		}
		for _, m := range members {
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
	}

	// Machine/cluster mappings and service data.
	for _, mc := range d.mcmap {
		item := fmt.Sprintf("machine %d cluster %d", mc.MachID, mc.CluID)
		if !machOK(mc.MachID) {
			add(TMCMap, item, "mapping references missing machine")
		}
		if !cluOK(mc.CluID) {
			add(TMCMap, item, "mapping references missing cluster")
		}
	}
	for _, sv := range d.svc {
		if !cluOK(sv.CluID) {
			add(TSvc, sv.ServLabel, "service datum references missing cluster %d", sv.CluID)
		}
	}

	// DCM state: serverhosts reference servers and machines.
	for _, sh := range d.serverHosts {
		item := fmt.Sprintf("%s on machine %d", sh.Service, sh.MachID)
		if _, ok := d.servers[sh.Service]; !ok {
			add(TServerHosts, item, "host row for a missing service")
		}
		if !machOK(sh.MachID) {
			add(TServerHosts, item, "host row references missing machine")
		}
	}
	for _, srv := range d.servers {
		checkACE(TServers, srv.Name, srv.ACLType, srv.ACLID)
	}

	// Filesystems, NFS allocations, quotas.
	d.filesys.each(func(fs *Filesys) bool {
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
	for _, q := range d.nfsquotas {
		item := fmt.Sprintf("user %d filesys %d", q.UsersID, q.FilsysID)
		if q.UsersID != 0 && !userOK(q.UsersID) {
			add(TNFSQuota, item, "quota for a missing user")
		}
		if _, ok := d.filesys.get(q.FilsysID); !ok {
			add(TNFSQuota, item, "quota on a missing filesystem")
		}
	}

	// Zephyr class ACEs, host access, capability ACLs.
	for _, z := range d.zephyr {
		checkACE(TZephyr, z.Class+" xmt", z.XmtType, z.XmtID)
		checkACE(TZephyr, z.Class+" sub", z.SubType, z.SubID)
		checkACE(TZephyr, z.Class+" iws", z.IwsType, z.IwsID)
		checkACE(TZephyr, z.Class+" iui", z.IuiType, z.IuiID)
	}
	d.hostaccess.each(func(h *HostAccess) bool {
		item := fmt.Sprintf("machine %d", h.MachID)
		if !machOK(h.MachID) {
			add(THostAccess, item, "access row for a missing machine")
		}
		checkACE(THostAccess, item, h.ACLType, h.ACLID)
		return true
	})
	for _, c := range d.capacls {
		if !listOK(c.ListID) {
			add(TCapACLs, c.Capability, "capability ACL references missing list %d", c.ListID)
		}
	}

	// Poboxes: a POP box references a machine.
	d.users.each(func(u *User) bool {
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

// auditNamed checks one paged relation against its unique-name index:
// the table's own page ↔ row agreement, then that the index and the
// rows name each other, in both directions.
func auditNamed[R any](add func(table, item, format string, args ...any), table, what string,
	rows *table[R], byName map[string]int, key func(*R) (string, int)) {
	rows.audit(table, func(r *R) int { _, id := key(r); return id }, add)
	for name, id := range byName {
		if r, ok := rows.get(id); !ok {
			add(table, name, "%s index points at row %d which is missing", what, id)
		} else if got, _ := key(r); got != name {
			add(table, name, "%s index points at row %d which is now %q", what, id, got)
		}
	}
	rows.each(func(r *R) bool {
		name, id := key(r)
		if got, ok := byName[name]; !ok || got != id {
			add(table, name, "row %d missing from %s index", id, what)
		}
		return true
	})
}
