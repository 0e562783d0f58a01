package gen

import (
	"fmt"
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/extract"
)

// nfsReads are the relations feeding the NFS extract, the columns it
// reads and the keys a changed row dirties.
var nfsReads = []extract.Read{
	// Credentials lines: the login, uid and status of a user, on every
	// unscoped host and on the scoped hosts whose list reaches the user.
	on(db.TUsers, func(u *db.User) db.User {
		return db.User{Login: u.Login, UID: u.UID, Status: u.Status}
	}, func(d *db.DB, u *db.User, add func(string)) {
		add("user:" + u.Login)
		scopedHosts(d, db.ACEUser, u.UsersID, add)
	}),
	// Quota lines carry the uid under the login's key, dirs lines the
	// owner's uid.
	on(db.TUsers, func(u *db.User) db.User {
		return db.User{Login: u.Login, UID: u.UID}
	}, func(d *db.DB, u *db.User, add func(string)) {
		db.QuotasByUser.Each(d, u.UsersID, func(q *db.NFSQuota) bool {
			quotaKey(d, q, add)
			return true
		})
		db.Filesystems.Each(d, func(f *db.Filesys) bool {
			if f.Owner == u.UsersID {
				add("filesys:" + f.Label)
			}
			return true
		})
	}),
	// A group's gid and flags reach the credentials lines of the users
	// under it, its name the scoped hosts that name it, and its gid the
	// dirs lines of the lockers it owns.
	on(db.TList, func(l *db.List) db.List {
		return db.List{Name: l.Name, GID: l.GID, Active: l.Active, Group: l.Group}
	}, func(d *db.DB, l *db.List, add func(string)) {
		if l.Active && l.Group && usersUnder(d, l.ListID, add) > 0 {
			add("shcred:*")
		}
		for _, h := range nfsHostRows(d) {
			if h.sh.Value3 == l.Name {
				add("shcred:" + h.mach.Name)
			}
		}
		db.Filesystems.Each(d, func(f *db.Filesys) bool {
			if f.Owners == l.ListID {
				add("filesys:" + f.Label)
			}
			return true
		})
	}),
	on(db.TMembers, whole[db.Member], func(d *db.DB, m *db.Member, add func(string)) {
		switch m.MemberType {
		case db.ACEUser:
			userKey(d, m.MemberID, add)
			scopedHosts(d, db.ACEUser, m.MemberID, add)
		case db.ACEList:
			if usersUnder(d, m.MemberID, add) > 0 {
				add("shcred:*")
			}
		}
	}),
	on(db.TFilesys, func(f *db.Filesys) db.Filesys {
		return db.Filesys{Label: f.Label, Type: f.Type, CreateFlg: f.CreateFlg, PhysID: f.PhysID,
			Owner: f.Owner, Owners: f.Owners, Name: f.Name, LockerType: f.LockerType}
	}, func(_ *db.DB, f *db.Filesys, add func(string)) { add("filesys:" + f.Label) }),
	// A relabel moves the keys of the quota lines on the filesystem.
	on(db.TFilesys, func(f *db.Filesys) string { return f.Label }, func(d *db.DB, f *db.Filesys, add func(string)) {
		db.Quotas.Each(d, func(q *db.NFSQuota) bool {
			if q.FilsysID == f.FilsysID {
				quotaKey(d, q, add)
			}
			return true
		})
	}),
	// A partition names its host's .quotas and .dirs files.
	on(db.TNFSPhys, func(p *db.NFSPhys) db.NFSPhys {
		return db.NFSPhys{MachID: p.MachID, Dir: p.Dir}
	}, func(d *db.DB, p *db.NFSPhys, add func(string)) {
		if mach, ok := db.Machines.ByID(d, p.MachID); ok {
			add("host:" + mach.Name)
		}
		db.Quotas.Each(d, func(q *db.NFSQuota) bool {
			if q.PhysID == p.NFSPhysID {
				quotaKey(d, q, add)
			}
			return true
		})
		db.Filesystems.Each(d, func(f *db.Filesys) bool {
			if f.PhysID == p.NFSPhysID {
				add("filesys:" + f.Label)
			}
			return true
		})
	}),
	on(db.TNFSQuota, func(q *db.NFSQuota) db.NFSQuota {
		return db.NFSQuota{UsersID: q.UsersID, FilsysID: q.FilsysID, PhysID: q.PhysID, Quota: q.Quota}
	}, quotaKey),
	// The enabled NFS hosts and their scoping, and the machine names
	// that are the per-host bundle paths: every key fans across hosts.
	// The DCM's flag writes on the serverhost rows dirty nothing.
	full(db.TServerHosts, func(sh *db.ServerHost) db.ServerHost {
		if sh.Service != "NFS" {
			return db.ServerHost{}
		}
		return db.ServerHost{MachID: sh.MachID, Enable: sh.Enable, Value3: sh.Value3}
	}),
	full(db.TMachine, machineName),
}

// quotaKey adds the key of a quota row's line.
func quotaKey(d *db.DB, q *db.NFSQuota, add func(string)) {
	u, uok := db.Users.ByID(d, q.UsersID)
	f, fok := db.Filesystems.ByID(d, q.FilsysID)
	if uok && fok {
		add("quota:" + f.Label + ":" + u.Login)
	}
}

// scopedHosts adds the "shcred:" key of every scoped host whose list
// reaches the member (mtype, mid).
func scopedHosts(d *db.DB, mtype string, mid int, add func(string)) {
	var reach func(string, int) bool
	db.ServerHosts.Under(d, "NFS", func(sh *db.ServerHost) bool {
		if !sh.Enable || sh.Value3 == "" {
			return true
		}
		if reach == nil {
			reach = reaches(d, mtype, mid)
		}
		l, lok := d.ListByName(sh.Value3)
		mach, mok := db.Machines.ByID(d, sh.MachID)
		if lok && mok && reach(db.ACEList, l.ListID) {
			add("shcred:" + mach.Name)
		}
		return true
	})
}

// partFileBase converts a partition mount point to the base of its
// quotas/directories file names: "/u1" -> "u1".
func partFileBase(dir string) string {
	return strings.ReplaceAll(strings.TrimPrefix(dir, "/"), "/", "_")
}

// NFSIncremental generates, per NFS server host, the credentials file,
// and a .quotas and .dirs file for each exported partition on that host
// (section 5.8.2, service NFS). Which users appear in a host's
// credentials file is controlled by the value3 field of its serverhost
// row: a list name, or blank for all active users. The key space:
// "host:<machine>" (file presence per enabled host), "user:<login>"
// (master credentials lines), "shcred:<machine>" (a scoped host's whole
// credentials), "quota:<label>:<login>", "filesys:<label>" (dirs lines).
var NFSIncremental = &Incremental{
	ReadList: nfsReads,
	BuildFn:  nfsBuild,
	EmitFn:   nfsEmit,
}

// nfsHostRow pairs an enabled NFS serverhost row with its machine.
type nfsHostRow struct {
	sh   *db.ServerHost
	mach *db.Machine
}

// nfsHostRows lists the enabled NFS server hosts whose machine exists.
func nfsHostRows(d *db.DB) []nfsHostRow {
	var out []nfsHostRow
	db.ServerHosts.Under(d, "NFS", func(sh *db.ServerHost) bool {
		if mach, ok := db.Machines.ByID(d, sh.MachID); ok && sh.Enable {
			out = append(out, nfsHostRow{sh, mach})
		}
		return true
	})
	return out
}

// nfsHostByName finds an enabled NFS host row by canonical machine name.
func nfsHostByName(d *db.DB, name string) (nfsHostRow, bool) {
	for _, h := range nfsHostRows(d) {
		if h.mach.Name == name {
			return h, true
		}
	}
	return nfsHostRow{}, false
}

// nfsHostOfMach reports the enabled NFS host row for a machine id.
func nfsHostOfMach(d *db.DB, machID int) (nfsHostRow, bool) {
	for _, h := range nfsHostRows(d) {
		if h.mach.MachID == machID {
			return h, true
		}
	}
	return nfsHostRow{}, false
}

// nfsCredLine renders one credentials line: login:uid:gid:gid...
func nfsCredLine(d *db.DB, u *db.User) string {
	parts := []string{u.Login, fmt.Sprintf("%d", u.UID)}
	for _, g := range activeGroupsOfUser(d, u) {
		parts = append(parts, fmt.Sprintf("%d", g.GID))
	}
	return strings.Join(parts, ":") + "\n"
}

// nfsBuild enumerates the whole key domain and emits each key.
func nfsBuild(d *db.DB) (*extract.Model, error) {
	m := extract.NewModel()
	for _, h := range nfsHostRows(d) {
		nfsEmit(d, m, "host:"+h.mach.Name)
		if h.sh.Value3 != "" {
			nfsEmit(d, m, "shcred:"+h.mach.Name)
		}
	}
	d.EachUser(func(u *db.User) bool {
		nfsEmit(d, m, "user:"+u.Login)
		return true
	})
	db.Quotas.Each(d, func(q *db.NFSQuota) bool {
		u, uok := db.Users.ByID(d, q.UsersID)
		f, fok := db.Filesystems.ByID(d, q.FilsysID)
		if uok && fok {
			nfsEmit(d, m, "quota:"+f.Label+":"+u.Login)
		}
		return true
	})
	seenLabel := map[string]bool{}
	db.Filesystems.Each(d, func(f *db.Filesys) bool {
		if !seenLabel[f.Label] {
			seenLabel[f.Label] = true
			nfsEmit(d, m, "filesys:"+f.Label)
		}
		return true
	})
	return m, nil
}

// nfsEmit renders one logical key into the model.
func nfsEmit(d *db.DB, m *extract.Model, key string) {
	kind, name, _ := strings.Cut(key, ":")
	switch kind {
	case "host":
		// Presence: the credentials file and both per-partition files
		// exist (possibly empty) on every enabled host.
		h, ok := nfsHostByName(d, name)
		if !ok {
			return
		}
		m.Emit(name+"/credentials", "", key, nil)
		db.Partitions.Each(d, func(p *db.NFSPhys) bool {
			if p.MachID == h.sh.MachID {
				base := partFileBase(p.Dir)
				m.Emit(name+"/"+base+".quotas", "", key, nil)
				m.Emit(name+"/"+base+".dirs", "", key, nil)
			}
			return true
		})

	case "user":
		// One master-credentials line on every unscoped host.
		u, ok := d.UserByLogin(name)
		if !ok || u.Status != db.UserActive {
			return
		}
		line := []byte(nfsCredLine(d, u))
		sk := extract.K(u.UsersID)
		for _, h := range nfsHostRows(d) {
			if h.sh.Value3 == "" {
				m.Emit(h.mach.Name+"/credentials", sk, key, line)
			}
		}

	case "shcred":
		// A scoped host's whole credentials file: the named list's
		// active users, in expansion order.
		h, ok := nfsHostByName(d, name)
		if !ok || h.sh.Value3 == "" {
			return
		}
		l, ok := d.ListByName(h.sh.Value3)
		if !ok {
			return
		}
		i := 0
		for _, mem := range acl.ExpandMembers(d, l.ListID) {
			if mem.MemberType != db.ACEUser {
				continue
			}
			if u, ok := db.Users.ByID(d, mem.MemberID); ok && u.Status == db.UserActive {
				m.Emit(name+"/credentials", extract.K(i), key, []byte(nfsCredLine(d, u)))
				i++
			}
		}

	case "quota":
		label, login, ok := strings.Cut(name, ":")
		if !ok {
			return
		}
		u, uok := d.UserByLogin(login)
		if !uok {
			return
		}
		db.Filesystems.Under(d, label, func(f *db.Filesys) bool {
			q, ok := db.QuotasByFilesys.Find(d, f.FilsysID, func(q *db.NFSQuota) bool { return q.UsersID == u.UsersID })
			if !ok {
				return true
			}
			p, ok := db.Partitions.ByID(d, q.PhysID)
			if !ok {
				return true
			}
			h, ok := nfsHostOfMach(d, p.MachID)
			if !ok {
				return true
			}
			line := fmt.Sprintf("%d %d\n", u.UID, q.Quota)
			// The file is plain-sorted lines; the line leads the sort
			// key, ids break ties between identical lines.
			m.Emit(h.mach.Name+"/"+partFileBase(p.Dir)+".quotas",
				extract.K(line, u.UsersID, f.FilsysID), key, []byte(line))
			return true
		})

	case "filesys":
		// Directory (locker) lines for auto-created NFS filesystems.
		db.Filesystems.Under(d, name, func(f *db.Filesys) bool {
			if f.Type != db.FSTypeNFS || !f.CreateFlg {
				return true
			}
			p, ok := db.Partitions.ByID(d, f.PhysID)
			if !ok {
				return true
			}
			h, ok := nfsHostOfMach(d, p.MachID)
			if !ok {
				return true
			}
			ownerUID := 0
			if u, ok := db.Users.ByID(d, f.Owner); ok {
				ownerUID = u.UID
			}
			ownerGID := 0
			if l, ok := db.Lists.ByID(d, f.Owners); ok {
				ownerGID = l.GID
			}
			line := fmt.Sprintf("%s %d %d %s\n", f.Name, ownerUID, ownerGID, f.LockerType)
			m.Emit(h.mach.Name+"/"+partFileBase(p.Dir)+".dirs",
				extract.K(f.FilsysID), key, []byte(line))
			return true
		})
	}
}

// NFSInstallScript is the instruction sequence run on an NFS server: it
// installs the credentials file and hands the quota/directory files to
// the host's installer command, which applies quotas and creates lockers
// (the "mkdir/chown/chgrp/chmod + setquota" shell script of the paper).
func NFSInstallScript(target, destDir string, partitions []string) []string {
	script := []string{
		"extract credentials " + destDir + "/credentials",
		"install " + destDir + "/credentials",
	}
	for _, p := range partitions {
		base := partFileBase(p)
		script = append(script,
			"extract "+base+".quotas "+destDir+"/"+base+".quotas",
			"install "+destDir+"/"+base+".quotas",
			"extract "+base+".dirs "+destDir+"/"+base+".dirs",
			"install "+destDir+"/"+base+".dirs",
			"exec install_nfs "+destDir+" "+p,
		)
	}
	return script
}
