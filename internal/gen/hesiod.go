package gen

import (
	"fmt"
	"strings"

	"moira/internal/db"
	"moira/internal/extract"
)

// hesiodReads are the relations feeding the hesiod extract, the columns
// it reads and the keys a changed row dirties.
var hesiodReads = []extract.Read{
	on(db.TUsers, func(u *db.User) db.User {
		return db.User{Login: u.Login, UID: u.UID, Fullname: u.Fullname, Shell: u.Shell,
			Status: u.Status, PoType: u.PoType, PopID: u.PopID}
	}, func(_ *db.DB, u *db.User, add func(string)) { add("user:" + u.Login) }),
	// A group's name, gid and flags render into its own lines and the
	// grplist lines of every user under it.
	on(db.TList, func(l *db.List) db.List {
		return db.List{Name: l.Name, GID: l.GID, Active: l.Active, Group: l.Group}
	}, func(d *db.DB, l *db.List, add func(string)) {
		add("list:" + l.Name)
		if l.Active && l.Group {
			usersUnder(d, l.ListID, add)
		}
	}),
	on(db.TMembers, whole[db.Member], func(d *db.DB, m *db.Member, add func(string)) {
		switch m.MemberType {
		case db.ACEUser:
			userKey(d, m.MemberID, add)
		case db.ACEList:
			usersUnder(d, m.MemberID, add)
		}
	}),
	// Machine names render into cluster, filsys, printcap, sloc and
	// pobox lines.
	on(db.TMachine, machineName, func(d *db.DB, mach *db.Machine, add func(string)) {
		add("machine:" + mach.Name)
		db.Filesystems.Each(d, func(f *db.Filesys) bool {
			if f.MachID == mach.MachID {
				add("filesys:" + f.Label)
				add("fsalias")
			}
			return true
		})
		db.Printcaps.Each(d, func(p *db.Printcap) bool {
			if p.MachID == mach.MachID {
				add("printer:" + p.Name)
			}
			return true
		})
		db.ServerHosts.Each(d, func(sh *db.ServerHost) bool {
			if sh.MachID == mach.MachID {
				add("sloc:" + sh.Service + ":" + mach.Name)
			}
			return true
		})
		popUsers(d, mach.MachID, add)
	}),
	// Clusters render by name into their machines' CNAMEs and, through
	// their data, into the pseudo-cluster blocks of their machines.
	on(db.TCluster, func(c *db.Cluster) string { return c.Name }, func(d *db.DB, c *db.Cluster, add func(string)) {
		add("cluster:" + c.Name)
		clusterMachines(d, c.CluID, add)
	}),
	on(db.TMCMap, whole[db.MCMap], func(d *db.DB, mc *db.MCMap, add func(string)) {
		if mach, ok := db.Machines.ByID(d, mc.MachID); ok {
			add("machine:" + mach.Name)
		}
	}),
	on(db.TSvc, whole[db.SvcData], func(d *db.DB, s *db.SvcData, add func(string)) {
		if c, ok := db.Clusters.ByID(d, s.CluID); ok {
			add("cluster:" + c.Name)
			clusterMachines(d, s.CluID, add)
		}
	}),
	on(db.TFilesys, func(f *db.Filesys) db.Filesys {
		return db.Filesys{Label: f.Label, Type: f.Type, Name: f.Name, MachID: f.MachID, Access: f.Access, Mount: f.Mount}
	}, func(_ *db.DB, f *db.Filesys, add func(string)) {
		add("filesys:" + f.Label)
		add("fsalias")
	}),
	on(db.TPrintcap, func(p *db.Printcap) db.Printcap {
		return db.Printcap{Name: p.Name, MachID: p.MachID, RP: p.RP, Dir: p.Dir}
	}, func(_ *db.DB, p *db.Printcap, add func(string)) { add("printer:" + p.Name) }),
	on(db.TServices, func(s *db.Service) db.Service {
		return db.Service{Name: s.Name, Protocol: s.Protocol, Port: s.Port}
	}, func(_ *db.DB, s *db.Service, add func(string)) {
		add("service:" + s.Name)
		add("svcalias")
	}),
	on(db.TAlias, whole[db.Alias], func(_ *db.DB, a *db.Alias, add func(string)) {
		switch a.Type {
		case "FILESYS":
			add("fsalias")
		case "SERVICE":
			add("svcalias")
		}
	}),
	// sloc lists the (service, host) tuples; the DCM's flag writes on
	// these rows dirty nothing.
	on(db.TServerHosts, func(sh *db.ServerHost) db.ServerHost {
		return db.ServerHost{Service: sh.Service, MachID: sh.MachID}
	}, func(d *db.DB, sh *db.ServerHost, add func(string)) {
		if mach, ok := db.Machines.ByID(d, sh.MachID); ok {
			add("sloc:" + sh.Service + ":" + mach.Name)
		}
	}),
}

// clusterMachines adds the "machine:" keys of a cluster's machines.
func clusterMachines(d *db.DB, cluID int, add func(string)) {
	db.MCMapsByCluster.Each(d, cluID, func(mc *db.MCMap) bool {
		if mach, ok := db.Machines.ByID(d, mc.MachID); ok {
			add("machine:" + mach.Name)
		}
		return true
	})
}

// popUsers adds the "user:" keys of the users whose post office is the
// machine.
func popUsers(d *db.DB, machID int, add func(string)) {
	d.EachUser(func(u *db.User) bool {
		if u.PopID == machID {
			add("user:" + u.Login)
		}
		return true
	})
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
	ReadList: hesiodReads,
	BuildFn:  hesiodBuild,
	EmitFn:   hesiodEmit,
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
	db.Filesystems.Each(d, func(f *db.Filesys) bool {
		if !seenLabel[f.Label] {
			seenLabel[f.Label] = true
			hesiodEmit(d, m, "filesys:"+f.Label)
		}
		return true
	})
	hesiodEmit(d, m, "fsalias")
	db.Clusters.Each(d, func(c *db.Cluster) bool {
		hesiodEmit(d, m, "cluster:"+c.Name)
		return true
	})
	db.Machines.Each(d, func(mach *db.Machine) bool {
		hesiodEmit(d, m, "machine:"+mach.Name)
		return true
	})
	db.Printcaps.Each(d, func(p *db.Printcap) bool {
		hesiodEmit(d, m, "printer:"+p.Name)
		return true
	})
	db.Services.Each(d, func(s *db.Service) bool {
		hesiodEmit(d, m, "service:"+s.Name)
		return true
	})
	hesiodEmit(d, m, "svcalias")
	db.ServerHosts.Each(d, func(sh *db.ServerHost) bool {
		if mach, ok := db.Machines.ByID(d, sh.MachID); ok {
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
			if mach, ok := db.Machines.ByID(d, u.PopID); ok {
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
		db.Filesystems.Under(d, name, func(f *db.Filesys) bool {
			if mach, ok := db.Machines.ByID(d, f.MachID); ok {
				var b strings.Builder
				hsLine(&b, f.Label+".filsys", fmt.Sprintf("%s %s %s %s %s",
					f.Type, f.Name, shortHost(mach.Name), f.Access, f.Mount))
				m.Emit("filsys.db", extract.K(0, f.FilsysID), key, []byte(b.String()))
			}
			return true
		})

	case "fsalias":
		// Filesystem aliases resolve to the real filesystem's data; the
		// whole alias section is one key, ordered after the real entries.
		i := 0
		db.Aliases.Each(d, func(a *db.Alias) bool {
			if a.Type != "FILESYS" {
				return true
			}
			db.Filesystems.Under(d, a.Trans, func(f *db.Filesys) bool {
				if mach, ok := db.Machines.ByID(d, f.MachID); ok {
					var b strings.Builder
					hsLine(&b, a.Name+".filsys", fmt.Sprintf("%s %s %s %s %s",
						f.Type, f.Name, shortHost(mach.Name), f.Access, f.Mount))
					m.Emit("filsys.db", extract.K(1, i), key, []byte(b.String()))
					i++
				}
				return true
			})
			return true
		})

	case "cluster":
		c, ok := db.Clusters.Get(d, name)
		if !ok {
			return
		}
		i := 0
		db.Svc.Each(d, func(s *db.SvcData) bool {
			if s.CluID == c.CluID {
				var b strings.Builder
				hsLine(&b, c.Name+".cluster", s.ServLabel+" "+s.ServCluster)
				m.Emit("cluster.db", extract.K(0, c.CluID, i), key, []byte(b.String()))
				i++
			}
			return true
		})

	case "machine":
		// Machine CNAMEs into cluster.db; machines in several clusters
		// get a union pseudo-cluster block (section 5.8.2).
		mach, ok := db.Machines.Get(d, name)
		if !ok {
			return
		}
		var clusters []int
		db.MCMapsByMachine.Each(d, mach.MachID, func(mc *db.MCMap) bool {
			clusters = append(clusters, mc.CluID)
			return true
		})
		var b strings.Builder
		switch len(clusters) {
		case 0:
		case 1:
			if c, ok := db.Clusters.ByID(d, clusters[0]); ok {
				cnameLine(&b, mach.Name+".cluster", c.Name+".cluster")
				m.Emit("cluster.db", extract.K(1, mach.MachID, 0), key, []byte(b.String()))
			}
		default:
			pseudo := shortHost(mach.Name) + "-pseudo"
			i := 0
			for _, cid := range clusters {
				if c, ok := db.Clusters.ByID(d, cid); ok {
					db.Svc.Each(d, func(s *db.SvcData) bool {
						if s.CluID == c.CluID {
							b.Reset()
							hsLine(&b, pseudo+".cluster", s.ServLabel+" "+s.ServCluster)
							m.Emit("cluster.db", extract.K(1, mach.MachID, i), key, []byte(b.String()))
							i++
						}
						return true
					})
				}
			}
			b.Reset()
			cnameLine(&b, mach.Name+".cluster", pseudo+".cluster")
			m.Emit("cluster.db", extract.K(1, mach.MachID, i), key, []byte(b.String()))
		}

	case "printer":
		p, ok := db.Printcaps.Get(d, name)
		if !ok {
			return
		}
		mach, ok := db.Machines.ByID(d, p.MachID)
		if !ok {
			return
		}
		var b strings.Builder
		hsLine(&b, p.Name+".pcap", fmt.Sprintf("%s:rp=%s:rm=%s:sd=%s",
			p.Name, p.RP, mach.Name, p.Dir))
		m.Emit("printcap.db", extract.K(p.Name), key, []byte(b.String()))

	case "service":
		s, ok := db.Services.Get(d, name)
		if !ok {
			return
		}
		var b strings.Builder
		hsLine(&b, s.Name+".service", fmt.Sprintf("%s %s %d",
			s.Name, strings.ToLower(s.Protocol), s.Port))
		m.Emit("service.db", extract.K(0, s.Name), key, []byte(b.String()))

	case "svcalias":
		i := 0
		db.Aliases.Each(d, func(a *db.Alias) bool {
			if a.Type != "SERVICE" {
				return true
			}
			if s, ok := db.Services.Get(d, a.Trans); ok {
				var b strings.Builder
				hsLine(&b, a.Name+".service", fmt.Sprintf("%s %s %d",
					s.Name, strings.ToLower(s.Protocol), s.Port))
				m.Emit("service.db", extract.K(1, i), key, []byte(b.String()))
				i++
			}
			return true
		})

	case "sloc":
		svc, machName, ok := cutSlocKey(name)
		if !ok {
			return
		}
		db.ServerHosts.Under(d, svc, func(sh *db.ServerHost) bool {
			if mach, ok := db.Machines.ByID(d, sh.MachID); ok && mach.Name == machName {
				line := fmt.Sprintf("%s.sloc HS UNSPECA %s\n", sh.Service, mach.Name)
				// The file is plain-sorted lines; the line is its own sort key.
				m.Emit("sloc.db", line, key, []byte(line))
			}
			return true
		})
	}
}

// cutSlocKey splits the "<svc>:<host>" remainder of a sloc key.
func cutSlocKey(rest string) (svc, host string, ok bool) {
	return strings.Cut(rest, ":")
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
