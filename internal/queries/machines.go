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
		d.EachFilesys(func(f *db.Filesys) bool { return uses(f.MachID) })
	}
	if !inUse {
		d.EachNFSPhys(func(p *db.NFSPhys) bool { return uses(p.MachID) })
	}
	if !inUse && d.PrintcapOnMachine(machID) {
		return true
	}
	if _, ok := d.HostAccessOf(machID); ok && !inUse {
		return true
	}
	if !inUse {
		d.EachServerHost(func(sh *db.ServerHost) bool { return uses(sh.MachID) })
	}
	return inUse
}

// newMachine is a checked canonical machine name.
func newMachine(name string) Arg { return Arg{Name: name, Kind: aName, Canon: hostname} }

func init() {
	machine, cluster := one("machine", relMachine, nil), one("cluster", relCluster, nil)
	register([]Query{
		{Name: "get_machine", Short: "gmac", In: []Arg{pattern("name", hostname)},
			Rows: Columns("name type modtime:time modby modwith"), Access: Anyone,
			Do: func(r *Req) error {
				for _, m := range r.DB.MachinesMatchingName(r.s[0]) {
					r.Row(txt(m.Name), txt(m.Type), dec(m.Mod.Time), txt(m.Mod.By), txt(m.Mod.With))
				}
				return nil
			}},
		{Name: "add_machine", Short: "amac", Kind: Append,
			In: []Arg{newMachine("name"), typed("type", "mach_type", mrerr.MrType)},
			Do: func(r *Req) error {
				if _, dup := r.DB.MachineByName(r.s[0]); dup {
					return mrerr.MrNotUnique
				}
				id, err := r.DB.AllocID("mach_id")
				if err != nil {
					return err
				}
				return r.DB.InsertMachine(&db.Machine{MachID: id, Name: r.s[0], Type: r.s[1], Mod: r.modInfo()})
			}},
		{Name: "update_machine", Short: "umac", Kind: Update,
			In: []Arg{one("name", relMachine, nil), newMachine("newname"), typed("type", "mach_type", mrerr.MrType)},
			Do: func(r *Req) error {
				m := obj[db.Machine](r, 0)
				if r.s[1] != m.Name {
					if _, dup := r.DB.MachineByName(r.s[1]); dup {
						return mrerr.MrNotUnique
					}
					r.DB.RenameMachine(m, r.s[1])
				}
				m.Type, m.Mod = r.s[2], r.modInfo()
				r.DB.NoteUpdate(m)
				return nil
			}},
		{Name: "delete_machine", Short: "dmac", Kind: Delete, In: []Arg{one("name", relMachine, nil)},
			Do: func(r *Req) error {
				d, m := r.DB, obj[db.Machine](r, 0)
				if machineInUse(d, m.MachID) {
					return mrerr.MrInUse
				}
				// Remove cluster assignments silently.
				for _, cid := range d.ClustersOfMachine(m.MachID) {
					if err := d.DeleteMCMap(m.MachID, cid); err != nil {
						return mrerr.MrInternal
					}
				}
				d.DeleteMachine(m)
				return nil
			}},
		{Name: "get_cluster", Short: "gclu", In: []Arg{arg("name")},
			Rows: Columns("name description location modtime:time modby modwith"), Access: Anyone,
			Do: func(r *Req) error {
				for _, c := range r.DB.ClustersMatchingName(r.s[0]) {
					r.Row(txt(c.Name), txt(c.Desc), txt(c.Location), dec(c.Mod.Time), txt(c.Mod.By), txt(c.Mod.With))
				}
				return nil
			}},
		{Name: "add_cluster", Short: "aclu", Kind: Append,
			In: []Arg{fresh("name", relCluster, mrerr.MrNotUnique), arg("description"), arg("location")},
			Do: func(r *Req) error {
				id, err := r.DB.AllocID("clu_id")
				if err != nil {
					return err
				}
				return r.DB.InsertCluster(&db.Cluster{CluID: id, Name: r.s[0], Desc: r.s[1], Location: r.s[2], Mod: r.modInfo()})
			}},
		{Name: "update_cluster", Short: "uclu", Kind: Update,
			In: []Arg{one("name", relCluster, nil), rename("newname", relCluster), arg("description"), arg("location")},
			Do: func(r *Req) error {
				c := obj[db.Cluster](r, 0)
				if r.s[1] != c.Name {
					r.DB.RenameCluster(c, r.s[1])
				}
				c.Desc, c.Location, c.Mod = r.s[2], r.s[3], r.modInfo()
				r.DB.NoteUpdate(c)
				return nil
			}},
		{Name: "delete_cluster", Short: "dclu", Kind: Delete, In: []Arg{one("name", relCluster, nil)},
			Do: func(r *Req) error {
				c := obj[db.Cluster](r, 0)
				if len(r.DB.MachinesOfCluster(c.CluID)) > 0 {
					return mrerr.MrInUse
				}
				r.DB.DeleteSvcOfCluster(c.CluID)
				r.DB.DeleteCluster(c)
				return nil
			}},
		{Name: "get_machine_to_cluster_map", Short: "gmcm", In: []Arg{pattern("machine", hostname), arg("cluster")},
			Rows: Columns("machine cluster"), Access: Anyone,
			Do: func(r *Req) error {
				d := r.DB
				d.EachMCMap(func(mc db.MCMap) bool {
					m, mok := d.MachineByID(mc.MachID)
					c, cok := d.ClusterByID(mc.CluID)
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
				if err := r.DB.AddMCMap(m.MachID, obj[db.Cluster](r, 1).CluID); err != nil {
					return err
				}
				m.Mod = r.modInfo()
				r.DB.NoteUpdate(m)
				return nil
			}},
		{Name: "delete_machine_from_cluster", Short: "dmfc", Kind: Delete, In: []Arg{machine, cluster},
			Do: func(r *Req) error {
				m := obj[db.Machine](r, 0)
				if err := r.DB.DeleteMCMap(m.MachID, obj[db.Cluster](r, 1).CluID); err != nil {
					return err
				}
				m.Mod = r.modInfo()
				r.DB.NoteUpdate(m)
				return nil
			}},
		{Name: "get_cluster_data", Short: "gcld", In: []Arg{arg("cluster"), arg("label")},
			Rows: Columns("cluster label data"), Access: Anyone,
			Do: func(r *Req) error {
				r.DB.EachSvc(func(s db.SvcData) bool {
					c, ok := r.DB.ClusterByID(s.CluID)
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
				if err := r.DB.AddSvc(db.SvcData{CluID: c.CluID, ServLabel: r.s[1], ServCluster: r.s[2]}); err != nil {
					return err
				}
				c.Mod = r.modInfo()
				r.DB.NoteUpdate(c)
				return nil
			}},
		{Name: "delete_cluster_data", Short: "dcld", Kind: Delete, In: []Arg{cluster, arg("label"), arg("data")},
			Do: func(r *Req) error {
				c := obj[db.Cluster](r, 0)
				if err := r.DB.DeleteSvc(db.SvcData{CluID: c.CluID, ServLabel: r.s[1], ServCluster: r.s[2]}); err != nil {
					return mrerr.MrNotUnique
				}
				c.Mod = r.modInfo()
				r.DB.NoteUpdate(c)
				return nil
			}},
	})
}
