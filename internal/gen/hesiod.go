package gen

import (
	"fmt"
	"strings"

	"moira/internal/db"
	"moira/internal/extract"
)

// hesiodTables are the relations feeding the hesiod extract.
var hesiodTables = []string{
	db.TUsers, db.TList, db.TMembers, db.TMachine, db.TCluster, db.TMCMap,
	db.TSvc, db.TFilesys, db.TPrintcap, db.TServices, db.TServerHosts,
	db.TAlias, db.TStrings,
}

// hesiodFiles are the eleven .db files every hesiod server receives.
var hesiodFiles = []string{
	"cluster.db", "filsys.db", "gid.db", "group.db", "grplist.db",
	"passwd.db", "pobox.db", "printcap.db", "service.db", "sloc.db", "uid.db",
}

// HesiodIncremental generates the eleven hesiod .db files (section
// 5.8.2) as one tar bundle: every hesiod server receives the same set.
// The key space: "static" (file presence), "user:<login>", "list:<name>",
// "filesys:<label>", "fsalias", "cluster:<name>", "machine:<name>",
// "printer:<name>", "service:<name>", "svcalias", "sloc:<svc>:<host>".
var HesiodIncremental = &Incremental{
	TablesList: hesiodTables,
	BuildFn:    hesiodBuild,
	DepsFn:     hesiodDeps,
	EmitFn:     hesiodEmit,
}

// hesiodBuild enumerates the whole key domain and emits each key.
func hesiodBuild(d *db.DB) (*extract.Model, error) {
	m := extract.NewModel()
	hesiodEmit(d, m, "static")
	d.EachUser(func(u *db.User) bool {
		hesiodEmit(d, m, "user:"+u.Login)
		return true
	})
	d.EachList(func(l *db.List) bool {
		if l.Active && l.Group {
			hesiodEmit(d, m, "list:"+l.Name)
		}
		return true
	})
	seenLabel := map[string]bool{}
	d.EachFilesys(func(f *db.Filesys) bool {
		if !seenLabel[f.Label] {
			seenLabel[f.Label] = true
			hesiodEmit(d, m, "filesys:"+f.Label)
		}
		return true
	})
	hesiodEmit(d, m, "fsalias")
	d.EachCluster(func(c *db.Cluster) bool {
		hesiodEmit(d, m, "cluster:"+c.Name)
		return true
	})
	d.EachMachine(func(mach *db.Machine) bool {
		hesiodEmit(d, m, "machine:"+mach.Name)
		return true
	})
	d.EachPrintcap(func(p *db.Printcap) bool {
		hesiodEmit(d, m, "printer:"+p.Name)
		return true
	})
	d.EachService(func(s *db.Service) bool {
		hesiodEmit(d, m, "service:"+s.Name)
		return true
	})
	hesiodEmit(d, m, "svcalias")
	d.EachServerHost(func(sh *db.ServerHost) bool {
		if mach, ok := d.MachineByID(sh.MachID); ok {
			hesiodEmit(d, m, "sloc:"+sh.Service+":"+mach.Name)
		}
		return true
	})
	return m, nil
}

// hesiodEmit renders one logical key into the model. Keys naming
// entities that no longer exist (or no longer qualify) emit nothing,
// which after DeleteKey is exactly the deletion of their lines.
func hesiodEmit(d *db.DB, m *extract.Model, key string) {
	kind, name, _ := strings.Cut(key, ":")
	switch kind {
	case "static":
		for _, f := range hesiodFiles {
			m.Emit(f, "", key, nil)
		}

	case "user":
		u, ok := d.UserByLogin(name)
		if !ok || u.Status != db.UserActive {
			return
		}
		sk := extract.K(u.UsersID)
		var b strings.Builder
		hsLine(&b, u.Login+".passwd", fmt.Sprintf("%s:*:%d:101:%s,,,,:/mit/%s:%s",
			u.Login, u.UID, u.Fullname, u.Login, u.Shell))
		m.Emit("passwd.db", sk, key, []byte(b.String()))
		b.Reset()
		cnameLine(&b, fmt.Sprintf("%d.uid", u.UID), u.Login+".passwd")
		m.Emit("uid.db", sk, key, []byte(b.String()))
		if u.PoType == db.PoboxPOP {
			if mach, ok := d.MachineByID(u.PopID); ok {
				b.Reset()
				hsLine(&b, u.Login+".pobox", fmt.Sprintf("POP %s %s", mach.Name, u.Login))
				m.Emit("pobox.db", sk, key, []byte(b.String()))
			}
		}
		if gs := activeGroupsOfUser(d, u); len(gs) > 0 {
			parts := make([]string, 0, len(gs))
			for _, g := range gs {
				parts = append(parts, fmt.Sprintf("%s:%d", g.Name, g.GID))
			}
			b.Reset()
			hsLine(&b, u.Login+".grplist", strings.Join(parts, ":"))
			m.Emit("grplist.db", sk, key, []byte(b.String()))
		}

	case "list":
		g, ok := d.ListByName(name)
		if !ok || !g.Active || !g.Group {
			return
		}
		sk := extract.K(g.GID, g.ListID)
		var b strings.Builder
		hsLine(&b, g.Name+".group", fmt.Sprintf("%s:*:%d:", g.Name, g.GID))
		m.Emit("group.db", sk, key, []byte(b.String()))
		b.Reset()
		cnameLine(&b, fmt.Sprintf("%d.gid", g.GID), g.Name+".group")
		m.Emit("gid.db", sk, key, []byte(b.String()))

	case "filesys":
		for _, f := range d.FilesysByLabel(name) {
			mach, ok := d.MachineByID(f.MachID)
			if !ok {
				continue
			}
			var b strings.Builder
			hsLine(&b, f.Label+".filsys", fmt.Sprintf("%s %s %s %s %s",
				f.Type, f.Name, shortHost(mach.Name), f.Access, f.Mount))
			m.Emit("filsys.db", extract.K(0, f.FilsysID), key, []byte(b.String()))
		}

	case "fsalias":
		// Filesystem aliases resolve to the real filesystem's data; the
		// whole alias section is one key, ordered after the real entries.
		i := 0
		for _, a := range d.Aliases() {
			if a.Type != "FILESYS" {
				continue
			}
			for _, f := range d.FilesysByLabel(a.Trans) {
				mach, ok := d.MachineByID(f.MachID)
				if !ok {
					continue
				}
				var b strings.Builder
				hsLine(&b, a.Name+".filsys", fmt.Sprintf("%s %s %s %s %s",
					f.Type, f.Name, shortHost(mach.Name), f.Access, f.Mount))
				m.Emit("filsys.db", extract.K(1, i), key, []byte(b.String()))
				i++
			}
		}

	case "cluster":
		c, ok := d.ClusterByName(name)
		if !ok {
			return
		}
		i := 0
		for _, s := range d.SvcRows() {
			if s.CluID == c.CluID {
				var b strings.Builder
				hsLine(&b, c.Name+".cluster", s.ServLabel+" "+s.ServCluster)
				m.Emit("cluster.db", extract.K(0, c.CluID, i), key, []byte(b.String()))
				i++
			}
		}

	case "machine":
		// Machine CNAMEs into cluster.db; machines in several clusters
		// get a union pseudo-cluster block (section 5.8.2).
		mach, ok := d.MachineByName(name)
		if !ok {
			return
		}
		clusters := d.ClustersOfMachine(mach.MachID)
		var b strings.Builder
		switch len(clusters) {
		case 0:
		case 1:
			if c, ok := d.ClusterByID(clusters[0]); ok {
				cnameLine(&b, mach.Name+".cluster", c.Name+".cluster")
				m.Emit("cluster.db", extract.K(1, mach.MachID, 0), key, []byte(b.String()))
			}
		default:
			pseudo := shortHost(mach.Name) + "-pseudo"
			i := 0
			for _, cid := range clusters {
				if c, ok := d.ClusterByID(cid); ok {
					for _, s := range d.SvcRows() {
						if s.CluID == c.CluID {
							b.Reset()
							hsLine(&b, pseudo+".cluster", s.ServLabel+" "+s.ServCluster)
							m.Emit("cluster.db", extract.K(1, mach.MachID, i), key, []byte(b.String()))
							i++
						}
					}
				}
			}
			b.Reset()
			cnameLine(&b, mach.Name+".cluster", pseudo+".cluster")
			m.Emit("cluster.db", extract.K(1, mach.MachID, i), key, []byte(b.String()))
		}

	case "printer":
		p, ok := d.PrintcapByName(name)
		if !ok {
			return
		}
		mach, ok := d.MachineByID(p.MachID)
		if !ok {
			return
		}
		var b strings.Builder
		hsLine(&b, p.Name+".pcap", fmt.Sprintf("%s:rp=%s:rm=%s:sd=%s",
			p.Name, p.RP, mach.Name, p.Dir))
		m.Emit("printcap.db", extract.K(p.Name), key, []byte(b.String()))

	case "service":
		s, ok := d.ServiceByName(name)
		if !ok {
			return
		}
		var b strings.Builder
		hsLine(&b, s.Name+".service", fmt.Sprintf("%s %s %d",
			s.Name, strings.ToLower(s.Protocol), s.Port))
		m.Emit("service.db", extract.K(0, s.Name), key, []byte(b.String()))

	case "svcalias":
		i := 0
		for _, a := range d.Aliases() {
			if a.Type != "SERVICE" {
				continue
			}
			if s, ok := d.ServiceByName(a.Trans); ok {
				var b strings.Builder
				hsLine(&b, a.Name+".service", fmt.Sprintf("%s %s %d",
					s.Name, strings.ToLower(s.Protocol), s.Port))
				m.Emit("service.db", extract.K(1, i), key, []byte(b.String()))
				i++
			}
		}

	case "sloc":
		svc, machName, ok := cutSlocKey(name)
		if !ok {
			return
		}
		for _, sh := range d.ServerHostsOf(svc) {
			mach, ok := d.MachineByID(sh.MachID)
			if !ok || mach.Name != machName {
				continue
			}
			line := fmt.Sprintf("%s.sloc HS UNSPECA %s\n", sh.Service, mach.Name)
			// The file is plain-sorted lines; the line is its own sort key.
			m.Emit("sloc.db", line, key, []byte(line))
		}
	}
}

// cutSlocKey splits the "<svc>:<host>" remainder of a sloc key.
func cutSlocKey(rest string) (svc, host string, ok bool) {
	return strings.Cut(rest, ":")
}

// machineKey canonicalizes a machine-name query argument into the key
// form (machine names are stored upper case).
func machineKey(d *db.DB, arg string) string {
	if m, ok := d.MachineByName(arg); ok {
		return "machine:" + m.Name
	}
	return "machine:" + strings.ToUpper(arg)
}

// canonMachine resolves a machine-name argument to the stored canonical
// name.
func canonMachine(d *db.DB, arg string) string {
	if m, ok := d.MachineByName(arg); ok {
		return m.Name
	}
	return strings.ToUpper(arg)
}

// hesiodDeps maps one journal record to the hesiod keys it dirties.
func hesiodDeps(d *db.DB, rec *db.JournalRecord) ([]string, bool) {
	a := rec.Args
	switch rec.Query {
	case "add_user", "update_user_shell", "update_user_status",
		"update_finger_by_login", "set_pobox", "set_pobox_pop",
		"delete_pobox", "delete_user":
		return []string{"user:" + a[0]}, true
	case "update_user":
		return []string{"user:" + a[0], "user:" + a[1]}, true
	case "register_user":
		// uid, login, fstype: renames the user, creates the namesake
		// group and home filesystem.
		return []string{"user:" + a[1], "list:" + a[1], "filesys:" + a[1]}, true
	case "delete_user_by_uid":
		return nil, false

	case "add_list", "delete_list":
		return []string{"list:" + a[0]}, true
	case "update_list":
		// Flags/gid/name changes reach the grplist lines of every user
		// under the list.
		keys := []string{"list:" + a[0], "list:" + a[1]}
		if l, ok := d.ListByName(a[1]); ok {
			keys = append(keys, userKeysUnder(d, l.ListID)...)
		}
		return keys, true
	case "add_member_to_list", "delete_member_from_list":
		switch a[1] {
		case db.ACEUser:
			return []string{"user:" + a[2]}, true
		case db.ACEList:
			if sub, ok := d.ListByName(a[2]); ok {
				return userKeysUnder(d, sub.ListID), true
			}
			return nil, true
		default:
			return nil, true
		}

	case "add_machine":
		return []string{machineKey(d, a[0])}, true
	case "update_machine", "delete_machine", "update_cluster", "delete_cluster":
		// Renames/deletions fan out through filsys, cluster, printcap,
		// and sloc data; not worth chasing incrementally.
		return nil, false
	case "add_cluster":
		return []string{"cluster:" + a[0]}, true
	case "add_machine_to_cluster", "delete_machine_from_cluster":
		return []string{machineKey(d, a[0])}, true
	case "add_cluster_data", "delete_cluster_data":
		keys := []string{"cluster:" + a[0]}
		if c, ok := d.ClusterByName(a[0]); ok {
			// Pseudo-cluster blocks repeat the cluster's data lines.
			d.EachMachine(func(mach *db.Machine) bool {
				for _, cid := range d.ClustersOfMachine(mach.MachID) {
					if cid == c.CluID {
						keys = append(keys, "machine:"+mach.Name)
						break
					}
				}
				return true
			})
		}
		return keys, true

	case "add_filesys":
		return []string{"filesys:" + a[0], "fsalias"}, true
	case "update_filesys":
		return []string{"filesys:" + a[0], "filesys:" + a[1], "fsalias"}, true
	case "delete_filesys":
		return []string{"filesys:" + a[0], "fsalias"}, true

	case "add_service", "delete_service":
		return []string{"service:" + a[0], "svcalias"}, true
	case "add_printcap", "delete_printcap":
		return []string{"printer:" + a[0]}, true
	case "add_alias", "delete_alias":
		switch a[1] {
		case "FILESYS":
			return []string{"fsalias"}, true
		case "SERVICE":
			return []string{"svcalias"}, true
		default:
			return nil, true
		}

	case "add_server_host_info", "delete_server_host_info":
		return []string{"sloc:" + strings.ToUpper(a[0]) + ":" + canonMachine(d, a[1])}, true
	case "update_server_host_info", "reset_server_host_error",
		"set_server_host_override", "set_server_host_internal",
		"add_server_info", "update_server_info", "delete_server_info",
		"reset_server_error", "set_server_internal_flags":
		// Flag churn on existing rows; sloc only lists the tuples.
		return nil, true

	case "add_zephyr_class", "update_zephyr_class", "delete_zephyr_class",
		"add_server_host_access", "update_server_host_access", "delete_server_host_access",
		"add_nfsphys", "update_nfsphys", "delete_nfsphys", "adjust_nfsphys_allocation",
		"add_nfs_quota", "update_nfs_quota", "delete_nfs_quota",
		"add_value", "update_value", "delete_value":
		return nil, true
	}
	return nil, false
}

// HesiodInstallScript is the instruction sequence the DCM runs on a
// hesiod server after delivering the bundle: extract and atomically
// install each file, then restart the server so it reloads into memory.
func HesiodInstallScript(target, destDir string) []string {
	var script []string
	for _, f := range hesiodFiles {
		script = append(script,
			"extract "+f+" "+destDir+"/"+f,
			"install "+destDir+"/"+f,
		)
	}
	script = append(script, "exec restart_hesiod "+destDir)
	return script
}
