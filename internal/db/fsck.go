package db

import (
	"fmt"
	"sort"
	"strings"
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
	// need adds the finding unless ok.
	need := func(ok bool, table, item, format string, args ...any) {
		if !ok {
			add(table, item, format, args...)
		}
	}

	userOK := func(id int) bool { _, ok := d.users.rows.get(id); return ok }
	listOK := func(id int) bool { _, ok := d.lists.rows.get(id); return ok }
	machOK := func(id int) bool { _, ok := d.machines.rows.get(id); return ok }
	cluOK := func(id int) bool { _, ok := d.clusters.rows.get(id); return ok }
	strOK := func(id int) bool { _, ok := d.strings.rows.get(id); return ok }
	memberOK := [len(memberTypes)]func(int) bool{userOK, listOK, strOK} // by memberType

	// checkACE validates one access-control entity reference. NONE (or
	// an unset type, as bootstrap rows carry) has no target; the R*
	// forms reference the same relations.
	checkACE := func(table, item, aceType string, aceID int) {
		switch aceType {
		case ACENone, "":
		case ACEUser, ACERUser:
			need(userOK(aceID), table, item, "ACL references missing user %d", aceID)
		case ACEList, ACERList:
			need(listOK(aceID), table, item, "ACL references missing list %d", aceID)
		case ACEString, ACERStr:
			need(strOK(aceID), table, item, "ACL references missing string %d", aceID)
		default:
			add(table, item, "unknown ACL type %q", aceType)
		}
	}

	// Page ↔ row agreement for every table, and index ↔ row agreement
	// for every index. The indexes are never persisted, so a finding here
	// is a maintenance bug in the running server, not on-disk corruption
	// — but it would mean silently wrong query results, which is exactly
	// what fsck exists to catch.
	for _, rel := range relationList {
		rel.audit(&d.relations, add)
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
			if t := memberType(m.MemberType); t < 0 {
				add(TMembers, item, "unknown member type %q", m.MemberType)
			} else {
				need(memberOK[t](m.MemberID), TMembers, item, "member %s is missing", strings.ToLower(m.MemberType))
			}
		}
		return true
	})

	// Machine/cluster mappings and service data.
	d.mcmap.rows.each(func(mc *MCMap) bool {
		item := fmt.Sprintf("machine %d cluster %d", mc.MachID, mc.CluID)
		need(machOK(mc.MachID), TMCMap, item, "mapping references missing machine")
		need(cluOK(mc.CluID), TMCMap, item, "mapping references missing cluster")
		return true
	})
	d.svc.rows.each(func(sv *SvcData) bool {
		need(cluOK(sv.CluID), TSvc, sv.ServLabel, "service datum references missing cluster %d", sv.CluID)
		return true
	})

	// DCM state: serverhosts reference servers and machines.
	d.serverHosts.rows.each(func(sh *ServerHost) bool {
		item := fmt.Sprintf("%s on machine %d", sh.Service, sh.MachID)
		_, ok := d.servers.byKey(sh.Service)
		need(ok, TServerHosts, item, "host row for a missing service")
		need(machOK(sh.MachID), TServerHosts, item, "host row references missing machine")
		return true
	})
	d.servers.rows.each(func(srv *Server) bool {
		checkACE(TServers, srv.Name, srv.ACLType, srv.ACLID)
		return true
	})

	// Filesystems, NFS allocations, quotas.
	d.filesys.rows.each(func(fs *Filesys) bool {
		need(fs.MachID == 0 || machOK(fs.MachID), TFilesys, fs.Label, "filesystem references missing machine %d", fs.MachID)
		need(fs.Owner == 0 || userOK(fs.Owner), TFilesys, fs.Label, "filesystem owner user %d is missing", fs.Owner)
		need(fs.Owners == 0 || listOK(fs.Owners), TFilesys, fs.Label, "filesystem owners list %d is missing", fs.Owners)
		return true
	})
	d.nfsphys.rows.each(func(p *NFSPhys) bool {
		need(machOK(p.MachID), TNFSPhys, p.Dir, "NFS partition references missing machine %d", p.MachID)
		return true
	})
	d.quotas.rows.each(func(q *NFSQuota) bool {
		item := fmt.Sprintf("user %d filesys %d", q.UsersID, q.FilsysID)
		need(q.UsersID == 0 || userOK(q.UsersID), TNFSQuota, item, "quota for a missing user")
		_, ok := d.filesys.rows.get(q.FilsysID)
		need(ok, TNFSQuota, item, "quota on a missing filesystem")
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
	d.hostaccess.rows.each(func(h *HostAccess) bool {
		item := fmt.Sprintf("machine %d", h.MachID)
		need(machOK(h.MachID), THostAccess, item, "access row for a missing machine")
		checkACE(THostAccess, item, h.ACLType, h.ACLID)
		return true
	})
	d.capacls.rows.each(func(c *CapACL) bool {
		need(listOK(c.ListID), TCapACLs, c.Capability, "capability ACL references missing list %d", c.ListID)
		return true
	})

	// Poboxes: a POP box references a machine.
	d.users.rows.each(func(u *User) bool {
		need(u.PoType != PoboxPOP || u.PopID == 0 || machOK(u.PopID), TUsers, u.Login, "POP pobox references missing machine %d", u.PopID)
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

// auditIndex checks an index against the rows it files: its buckets'
// own agreement (audit), every entry naming a row with that key, and
// every row filed under its key exactly once.
func auditIndex[K hashKey, R any](add finding, table, what string,
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
