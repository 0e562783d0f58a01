package queries

// Queries over machines, clusters, the machine-cluster map, and cluster
// service data (section 7.0.2).

import (
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

// machineInUse reports whether a machine is referenced as a post office,
// filesystem server, printer spooling host, hostaccess entry, NFS
// partition home, or DCM-updated server host.
func machineInUse(d *db.DB, machID int) bool {
	inUse := false
	uses := func(id int) bool {
		inUse = inUse || id == machID
		return !inUse
	}
	d.EachUser(func(u *db.User) bool { return u.PoType != db.PoboxPOP || uses(u.PopID) })
	if !inUse {
		db.Filesystems.Each(d, func(f *db.Filesys) bool { return uses(f.MachID) })
	}
	if !inUse {
		db.Partitions.Each(d, func(p *db.NFSPhys) bool { return uses(p.MachID) })
	}
	if !inUse {
		_, inUse = db.Printcaps.First(d, func(p *db.Printcap) bool { return p.MachID == machID })
	}
	if !inUse {
		_, inUse = db.HostAccesses.ByID(d, machID)
	}
	if !inUse {
		db.ServerHosts.Each(d, func(sh *db.ServerHost) bool { return uses(sh.MachID) })
	}
	return inUse
}

// newMachine is a checked canonical machine name.
func newMachine(name string) Arg { return Arg{Name: name, Kind: aName, Canon: hostname} }

func init() {
	machine, cluster := machineArg("machine", nil), one("cluster", db.Clusters, nil)
	register([]Query{
		{Name: "get_machine", Short: "gmac", In: []Arg{pattern("name", hostname)},
			Rows: Columns("name type modtime:time modby modwith"), Access: Anyone,
			Do: func(r *Req) error {
				db.Machines.Match(r.DB, r.s[0], func(m *db.Machine) bool {
					r.Row(txt(m.Name), txt(m.Type), dec(m.Mod.Time), txt(m.Mod.By), txt(m.Mod.With))
					return true
				})
				return nil
			}},
		{Name: "add_machine", Short: "amac", Kind: Append,
			In: []Arg{newMachine("name"), typed("type", "mach_type", mrerr.MrType)},
			Do: func(r *Req) error {
				if _, dup := db.Machines.Get(r.DB, r.s[0]); dup {
					return mrerr.MrNotUnique
				}
				id, err := r.DB.AllocID("mach_id")
				if err != nil {
					return err
				}
				return db.Machines.Insert(r.DB, &db.Machine{MachID: id, Name: r.s[0], Type: r.s[1], Mod: r.modInfo()})
			}},
		{Name: "update_machine", Short: "umac", Kind: Update,
			In: []Arg{machineArg("name", nil), newMachine("newname"), typed("type", "mach_type", mrerr.MrType)},
			Do: func(r *Req) error {
				m := obj[db.Machine](r, 0)
				if r.s[1] != m.Name {
					if _, dup := db.Machines.Get(r.DB, r.s[1]); dup {
						return mrerr.MrNotUnique
					}
				}
				m = db.Edit(r.DB, db.Machines, m)
				if r.s[1] != m.Name {
					db.SetKey(r.DB, db.Machines, m, &m.Name, r.s[1])
				}
				m.Type, m.Mod = r.s[2], r.modInfo()
				r.DB.NoteUpdate(m)
				return nil
			}},
		{Name: "delete_machine", Short: "dmac", Kind: Delete, In: []Arg{machineArg("name", nil)},
			Do: func(r *Req) error {
				d, m := r.DB, obj[db.Machine](r, 0)
				if machineInUse(d, m.MachID) {
					return mrerr.MrInUse
				}
				// Remove cluster assignments silently.
				var mcs []*db.MCMap
				db.MCMapsByMachine.Each(d, m.MachID, func(mc *db.MCMap) bool {
					mcs = append(mcs, mc)
					return true
				})
				for _, mc := range mcs {
					db.MCMaps.Delete(d, mc)
				}
				db.Machines.Delete(d, m)
				return nil
			}},
		{Name: "get_cluster", Short: "gclu", In: []Arg{arg("name")},
			Rows: Columns("name description location modtime:time modby modwith"), Access: Anyone,
			Do: func(r *Req) error {
				db.Clusters.Match(r.DB, r.s[0], func(c *db.Cluster) bool {
					r.Row(txt(c.Name), txt(c.Desc), txt(c.Location), dec(c.Mod.Time), txt(c.Mod.By), txt(c.Mod.With))
					return true
				})
				return nil
			}},
		{Name: "add_cluster", Short: "aclu", Kind: Append,
			In: []Arg{fresh("name", db.Clusters, mrerr.MrNotUnique), arg("description"), arg("location")},
			Do: func(r *Req) error {
				id, err := r.DB.AllocID("clu_id")
				if err != nil {
					return err
				}
				return db.Clusters.Insert(r.DB, &db.Cluster{CluID: id, Name: r.s[0], Desc: r.s[1], Location: r.s[2], Mod: r.modInfo()})
			}},
		{Name: "update_cluster", Short: "uclu", Kind: Update,
			In: []Arg{one("name", db.Clusters, nil), rename("newname", db.Clusters), arg("description"), arg("location")},
			Do: func(r *Req) error {
				c := db.Edit(r.DB, db.Clusters, obj[db.Cluster](r, 0))
				if r.s[1] != c.Name {
					db.SetKey(r.DB, db.Clusters, c, &c.Name, r.s[1])
				}
				c.Desc, c.Location, c.Mod = r.s[2], r.s[3], r.modInfo()
				r.DB.NoteUpdate(c)
				return nil
			}},
		{Name: "delete_cluster", Short: "dclu", Kind: Delete, In: []Arg{one("name", db.Clusters, nil)},
			Do: func(r *Req) error {
				c := obj[db.Cluster](r, 0)
				if _, used := db.MCMapsByCluster.Find(r.DB, c.CluID, func(*db.MCMap) bool { return true }); used {
					return mrerr.MrInUse
				}
				var svc []*db.SvcData
				db.Svc.Each(r.DB, func(s *db.SvcData) bool {
					if s.CluID == c.CluID {
						svc = append(svc, s)
					}
					return true
				})
				db.Svc.Delete(r.DB, svc...)
				db.Clusters.Delete(r.DB, c)
				return nil
			}},
		{Name: "get_machine_to_cluster_map", Short: "gmcm", In: []Arg{pattern("machine", hostname), arg("cluster")},
			Rows: Columns("machine cluster"), Access: Anyone,
			Do: func(r *Req) error {
				d := r.DB
				db.MCMaps.Each(d, func(mc *db.MCMap) bool {
					m, mok := db.Machines.ByID(d, mc.MachID)
					c, cok := db.Clusters.ByID(d, mc.CluID)
					if mok && cok && wildcard.Match(r.s[0], m.Name) && wildcard.Match(r.s[1], c.Name) {
						r.Row(txt(m.Name), txt(c.Name))
					}
					return true
				})
				return nil
			}},
		{Name: "add_machine_to_cluster", Short: "amtc", Kind: Append, In: []Arg{machine, cluster},
			Do: func(r *Req) error {
				m := obj[db.Machine](r, 0)
				if err := db.MCMaps.Insert(r.DB, &db.MCMap{MachID: m.MachID, CluID: obj[db.Cluster](r, 1).CluID}); err != nil {
					return err
				}
				m = db.Edit(r.DB, db.Machines, m)
				m.Mod = r.modInfo()
				r.DB.NoteUpdate(m)
				return nil
			}},
		{Name: "delete_machine_from_cluster", Short: "dmfc", Kind: Delete, In: []Arg{machine, cluster},
			Do: func(r *Req) error {
				m := obj[db.Machine](r, 0)
				cluID := obj[db.Cluster](r, 1).CluID
				mc, ok := db.MCMapsByMachine.Find(r.DB, m.MachID, func(mc *db.MCMap) bool { return mc.CluID == cluID })
				if !ok {
					return mrerr.MrNoMatch
				}
				db.MCMaps.Delete(r.DB, mc)
				m = db.Edit(r.DB, db.Machines, m)
				m.Mod = r.modInfo()
				r.DB.NoteUpdate(m)
				return nil
			}},
		{Name: "get_cluster_data", Short: "gcld", In: []Arg{arg("cluster"), arg("label")},
			Rows: Columns("cluster label data"), Access: Anyone,
			Do: func(r *Req) error {
				db.Svc.Each(r.DB, func(s *db.SvcData) bool {
					c, ok := db.Clusters.ByID(r.DB, s.CluID)
					if ok && wildcard.Match(r.s[0], c.Name) && wildcard.Match(r.s[1], s.ServLabel) {
						r.Row(txt(c.Name), txt(s.ServLabel), txt(s.ServCluster))
					}
					return true
				})
				return nil
			}},
		{Name: "add_cluster_data", Short: "acld", Kind: Append,
			In: []Arg{cluster, typed("label", "slabel", mrerr.MrType), arg("data")},
			Do: func(r *Req) error {
				c := obj[db.Cluster](r, 0)
				if err := db.Svc.Insert(r.DB, &db.SvcData{CluID: c.CluID, ServLabel: r.s[1], ServCluster: r.s[2]}); err != nil {
					return err
				}
				c = db.Edit(r.DB, db.Clusters, c)
				c.Mod = r.modInfo()
				r.DB.NoteUpdate(c)
				return nil
			}},
		{Name: "delete_cluster_data", Short: "dcld", Kind: Delete, In: []Arg{cluster, arg("label"), arg("data")},
			Do: func(r *Req) error {
				c := obj[db.Cluster](r, 0)
				want := db.SvcData{CluID: c.CluID, ServLabel: r.s[1], ServCluster: r.s[2]}
				s, ok := db.Svc.First(r.DB, func(s *db.SvcData) bool { return *s == want })
				if !ok {
					return mrerr.MrNotUnique
				}
				db.Svc.Delete(r.DB, s)
				c = db.Edit(r.DB, db.Clusters, c)
				c.Mod = r.modInfo()
				r.DB.NoteUpdate(c)
				return nil
			}},
	})
}
