package gen

import (
	"fmt"
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/extract"
)

var nfsTables = []string{
	db.TUsers, db.TList, db.TMembers, db.TFilesys, db.TNFSPhys,
	db.TNFSQuota, db.TServerHosts, db.TMachine,
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
	TablesList: nfsTables,
	BuildFn:    nfsBuild,
	DepsFn:     nfsDeps,
	EmitFn:     nfsEmit,
}

// nfsHostRow pairs an enabled NFS serverhost row with its machine.
type nfsHostRow struct {
	sh   *db.ServerHost
	mach *db.Machine
}

// nfsHostRows lists the enabled NFS server hosts whose machine exists.
func nfsHostRows(d *db.DB) []nfsHostRow {
	var out []nfsHostRow
	for _, sh := range d.ServerHostsOf("NFS") {
		if !sh.Enable {
			continue
		}
		if mach, ok := d.MachineByID(sh.MachID); ok {
			out = append(out, nfsHostRow{sh, mach})
		}
	}
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
	d.EachQuota(func(q *db.NFSQuota) bool {
		u, uok := d.UserByID(q.UsersID)
		f, fok := d.FilesysByID(q.FilsysID)
		if uok && fok {
			nfsEmit(d, m, "quota:"+f.Label+":"+u.Login)
		}
		return true
	})
	seenLabel := map[string]bool{}
	d.EachFilesys(func(f *db.Filesys) bool {
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
		d.EachNFSPhys(func(p *db.NFSPhys) bool {
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
			if u, ok := d.UserByID(mem.MemberID); ok && u.Status == db.UserActive {
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
		for _, f := range d.FilesysByLabel(label) {
			q, ok := d.QuotaOf(u.UsersID, f.FilsysID)
			if !ok {
				continue
			}
			p, ok := d.NFSPhysByID(q.PhysID)
			if !ok {
				continue
			}
			h, ok := nfsHostOfMach(d, p.MachID)
			if !ok {
				continue
			}
			line := fmt.Sprintf("%d %d\n", u.UID, q.Quota)
			// The file is plain-sorted lines; the line leads the sort
			// key, ids break ties between identical lines.
			m.Emit(h.mach.Name+"/"+partFileBase(p.Dir)+".quotas",
				extract.K(line, u.UsersID, f.FilsysID), key, []byte(line))
		}

	case "filesys":
		// Directory (locker) lines for auto-created NFS filesystems.
		for _, f := range d.FilesysByLabel(name) {
			if f.Type != db.FSTypeNFS || !f.CreateFlg {
				continue
			}
			p, ok := d.NFSPhysByID(f.PhysID)
			if !ok {
				continue
			}
			h, ok := nfsHostOfMach(d, p.MachID)
			if !ok {
				continue
			}
			ownerUID := 0
			if u, ok := d.UserByID(f.Owner); ok {
				ownerUID = u.UID
			}
			ownerGID := 0
			if l, ok := d.ListByID(f.Owners); ok {
				ownerGID = l.GID
			}
			line := fmt.Sprintf("%s %d %d %s\n", f.Name, ownerUID, ownerGID, f.LockerType)
			m.Emit(h.mach.Name+"/"+partFileBase(p.Dir)+".dirs",
				extract.K(f.FilsysID), key, []byte(line))
		}
	}
}

// nfsDeps maps one journal record to the NFS keys it dirties.
func nfsDeps(d *db.DB, rec *db.JournalRecord) ([]string, bool) {
	a := rec.Args
	switch rec.Query {
	case "add_user", "delete_user":
		return []string{"user:" + a[0]}, true
	case "update_user_status":
		// Credentials lines gate on active status, scoped ones too.
		return []string{"user:" + a[0], "shcred:*"}, true
	case "update_user":
		// Rename and uid change reach credentials lines, quota lines
		// (by uid), and owned-locker dirs lines.
		keys := []string{"user:" + a[0], "user:" + a[1], "shcred:*"}
		if u, ok := d.UserByLogin(a[1]); ok {
			for _, q := range d.QuotasOfUser(u.UsersID) {
				if f, ok := d.FilesysByID(q.FilsysID); ok {
					keys = append(keys, "quota:"+f.Label+":"+a[0], "quota:"+f.Label+":"+a[1])
				}
			}
			d.EachFilesys(func(f *db.Filesys) bool {
				if f.Owner == u.UsersID {
					keys = append(keys, "filesys:"+f.Label)
				}
				return true
			})
		}
		return keys, true
	case "register_user":
		// uid, login, fstype: renames the user, creates the home locker
		// and its default quota.
		return []string{"user:" + a[1], "quota:" + a[1] + ":" + a[1],
			"filesys:" + a[1], "shcred:*"}, true
	case "delete_user_by_uid":
		return nil, false
	case "update_user_shell", "update_finger_by_login",
		"set_pobox", "set_pobox_pop", "delete_pobox":
		return nil, true

	case "add_list":
		return nil, true
	case "update_list":
		// GID changes reach the credentials lines of users under it.
		keys := []string{"shcred:*"}
		if l, ok := d.ListByName(a[1]); ok {
			keys = append(keys, userKeysUnder(d, l.ListID)...)
			// Owner-group gid renders into dirs lines.
			d.EachFilesys(func(f *db.Filesys) bool {
				if f.Owners == l.ListID {
					keys = append(keys, "filesys:"+f.Label)
				}
				return true
			})
		}
		return keys, true
	case "delete_list":
		return []string{"shcred:*"}, true
	case "add_member_to_list", "delete_member_from_list":
		switch a[1] {
		case db.ACEUser:
			return []string{"user:" + a[2], "shcred:*"}, true
		case db.ACEList:
			if sub, ok := d.ListByName(a[2]); ok {
				return append(userKeysUnder(d, sub.ListID), "shcred:*"), true
			}
			return []string{"shcred:*"}, true
		default:
			return nil, true
		}

	case "add_filesys":
		return []string{"filesys:" + a[0]}, true
	case "update_filesys":
		keys := []string{"filesys:" + a[0], "filesys:" + a[1]}
		// Quota lines live in the partition the quota row names, but a
		// relabel changes their keys: enumerate rows under both labels.
		for _, label := range []string{a[0], a[1]} {
			for _, f := range d.FilesysByLabel(label) {
				d.EachQuota(func(q *db.NFSQuota) bool {
					if q.FilsysID == f.FilsysID {
						if u, ok := d.UserByID(q.UsersID); ok {
							keys = append(keys, "quota:"+a[0]+":"+u.Login,
								"quota:"+a[1]+":"+u.Login)
						}
					}
					return true
				})
			}
		}
		return keys, true
	case "delete_filesys":
		return []string{"filesys:" + a[0], "quota:" + a[0] + ":*"}, true

	case "add_nfs_quota", "update_nfs_quota", "delete_nfs_quota":
		return []string{"quota:" + a[0] + ":" + a[1]}, true

	case "add_nfsphys":
		return []string{"host:" + canonMachine(d, a[0])}, true
	case "update_nfsphys", "adjust_nfsphys_allocation":
		// Device/status/allocation fields are not rendered.
		return nil, true
	case "delete_nfsphys":
		return nil, false

	case "add_machine":
		return nil, true
	case "update_machine", "delete_machine":
		// Machine names are the per-host bundle paths.
		return nil, false

	case "add_server_host_info", "update_server_host_info", "delete_server_host_info",
		"reset_server_host_error", "set_server_host_override", "set_server_host_internal":
		if strings.ToUpper(a[0]) == "NFS" {
			// Host set or scoping changed: every key fans across hosts.
			return nil, false
		}
		return nil, true

	case "add_cluster", "update_cluster", "delete_cluster",
		"add_machine_to_cluster", "delete_machine_from_cluster",
		"add_cluster_data", "delete_cluster_data",
		"add_service", "delete_service", "add_printcap", "delete_printcap",
		"add_alias", "delete_alias",
		"add_zephyr_class", "update_zephyr_class", "delete_zephyr_class",
		"add_server_host_access", "update_server_host_access", "delete_server_host_access",
		"add_server_info", "update_server_info", "delete_server_info",
		"reset_server_error", "set_server_internal_flags",
		"add_value", "update_value", "delete_value":
		return nil, true
	}
	return nil, false
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
