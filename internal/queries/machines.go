package queries

// Queries over machines, clusters, the machine-cluster map, and cluster
// service data (section 7.0.2).

import (
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/util"
	"moira/internal/wildcard"
)

// matchMachines collects machines whose canonical name matches the
// pattern (names are case insensitive; both sides are upper-cased),
// via the name indexes.
func matchMachines(d *db.DB, pattern string) []*db.Machine {
	return d.MachinesMatchingName(util.CanonicalizeHostname(pattern))
}

// oneMachine resolves an argument that must match exactly one machine.
func oneMachine(d *db.DB, name string) (*db.Machine, error) {
	ms := matchMachines(d, name)
	switch len(ms) {
	case 0:
		return nil, mrerr.MrMachine
	case 1:
		return ms[0], nil
	default:
		return nil, mrerr.MrNotUnique
	}
}

func matchClusters(d *db.DB, pattern string) []*db.Cluster {
	return d.ClustersMatchingName(pattern)
}

func oneCluster(d *db.DB, name string) (*db.Cluster, error) {
	cs := matchClusters(d, name)
	switch len(cs) {
	case 0:
		return nil, mrerr.MrCluster
	case 1:
		return cs[0], nil
	default:
		return nil, mrerr.MrNotUnique
	}
}

// machineInUse reports whether a machine is referenced as a post office,
// filesystem server, printer spooling host, hostaccess entry, NFS
// partition home, or DCM-updated server host.
func machineInUse(d *db.DB, machID int) bool {
	inUse := false
	d.EachUser(func(u *db.User) bool {
		if u.PoType == db.PoboxPOP && u.PopID == machID {
			inUse = true
			return false
		}
		return true
	})
	if inUse {
		return true
	}
	d.EachFilesys(func(f *db.Filesys) bool {
		if f.MachID == machID {
			inUse = true
			return false
		}
		return true
	})
	if inUse {
		return true
	}
	d.EachNFSPhys(func(p *db.NFSPhys) bool {
		if p.MachID == machID {
			inUse = true
			return false
		}
		return true
	})
	if inUse {
		return true
	}
	d.EachPrintcap(func(p *db.Printcap) bool {
		if p.MachID == machID {
			inUse = true
			return false
		}
		return true
	})
	if inUse {
		return true
	}
	if _, ok := d.HostAccessOf(machID); ok {
		return true
	}
	d.EachServerHost(func(sh *db.ServerHost) bool {
		if sh.MachID == machID {
			inUse = true
			return false
		}
		return true
	})
	return inUse
}

func init() {
	register(&Query{
		Name: "get_machine", Short: "gmac", Kind: Retrieve,
		Args:    []string{"name"},
		Returns: []string{"name", "type", "modtime", "modby", "modwith"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			ms := matchMachines(cx.DB, args[0])
			if len(ms) == 0 {
				return mrerr.MrNoMatch
			}
			var tuples [][]string
			for _, m := range ms {
				tuples = append(tuples, []string{m.Name, m.Type, i642s(m.Mod.Time), m.Mod.By, m.Mod.With})
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_machine", Short: "amac", Kind: Append,
		Args: []string{"name", "type"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			name := util.CanonicalizeHostname(args[0])
			if err := checkNameChars(name); err != nil {
				return err
			}
			if !d.IsValidType("mach_type", args[1]) {
				return mrerr.MrType
			}
			if _, dup := d.MachineByName(name); dup {
				return mrerr.MrNotUnique
			}
			id, err := d.AllocID("mach_id")
			if err != nil {
				return err
			}
			return d.InsertMachine(&db.Machine{MachID: id, Name: name, Type: args[1], Mod: cx.modInfo()})
		},
	})

	register(&Query{
		Name: "update_machine", Short: "umac", Kind: Update,
		Args: []string{"name", "newname", "type"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return err
			}
			newname := util.CanonicalizeHostname(args[1])
			if err := checkNameChars(newname); err != nil {
				return err
			}
			if !d.IsValidType("mach_type", args[2]) {
				return mrerr.MrType
			}
			if newname != m.Name {
				if _, dup := d.MachineByName(newname); dup {
					return mrerr.MrNotUnique
				}
				d.RenameMachine(m, newname)
			}
			m.Type = args[2]
			m.Mod = cx.modInfo()
			d.NoteUpdate(m)
			return nil
		},
	})

	register(&Query{
		Name: "delete_machine", Short: "dmac", Kind: Delete,
		Args: []string{"name"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return err
			}
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
		},
	})

	register(&Query{
		Name: "get_cluster", Short: "gclu", Kind: Retrieve,
		Args:    []string{"name"},
		Returns: []string{"name", "description", "location", "modtime", "modby", "modwith"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			cs := matchClusters(cx.DB, args[0])
			if len(cs) == 0 {
				return mrerr.MrNoMatch
			}
			var tuples [][]string
			for _, c := range cs {
				tuples = append(tuples, []string{c.Name, c.Desc, c.Location, i642s(c.Mod.Time), c.Mod.By, c.Mod.With})
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_cluster", Short: "aclu", Kind: Append,
		Args: []string{"name", "description", "location"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			if err := checkNameChars(args[0]); err != nil {
				return err
			}
			if _, dup := d.ClusterByName(args[0]); dup {
				return mrerr.MrNotUnique
			}
			id, err := d.AllocID("clu_id")
			if err != nil {
				return err
			}
			return d.InsertCluster(&db.Cluster{CluID: id, Name: args[0], Desc: args[1], Location: args[2], Mod: cx.modInfo()})
		},
	})

	register(&Query{
		Name: "update_cluster", Short: "uclu", Kind: Update,
		Args: []string{"name", "newname", "description", "location"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			c, err := oneCluster(d, args[0])
			if err != nil {
				return err
			}
			if err := checkNameChars(args[1]); err != nil {
				return err
			}
			if args[1] != c.Name {
				if _, dup := d.ClusterByName(args[1]); dup {
					return mrerr.MrNotUnique
				}
				d.RenameCluster(c, args[1])
			}
			c.Desc, c.Location = args[2], args[3]
			c.Mod = cx.modInfo()
			d.NoteUpdate(c)
			return nil
		},
	})

	register(&Query{
		Name: "delete_cluster", Short: "dclu", Kind: Delete,
		Args: []string{"name"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			c, err := oneCluster(d, args[0])
			if err != nil {
				return err
			}
			for _, m := range d.MCMaps() {
				if m.CluID == c.CluID {
					return mrerr.MrInUse
				}
			}
			d.DeleteSvcOfCluster(c.CluID)
			d.DeleteCluster(c)
			return nil
		},
	})

	register(&Query{
		Name: "get_machine_to_cluster_map", Short: "gmcm", Kind: Retrieve,
		Args:    []string{"machine", "cluster"},
		Returns: []string{"machine", "cluster"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			mpat := util.CanonicalizeHostname(args[0])
			var tuples [][]string
			for _, mc := range d.MCMaps() {
				m, mok := d.MachineByID(mc.MachID)
				c, cok := d.ClusterByID(mc.CluID)
				if !mok || !cok {
					continue
				}
				if wildcard.Match(mpat, m.Name) && wildcard.Match(args[1], c.Name) {
					tuples = append(tuples, []string{m.Name, c.Name})
				}
			}
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_machine_to_cluster", Short: "amtc", Kind: Append,
		Args: []string{"machine", "cluster"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return err
			}
			c, err := oneCluster(d, args[1])
			if err != nil {
				return err
			}
			if err := d.AddMCMap(m.MachID, c.CluID); err != nil {
				return err
			}
			m.Mod = cx.modInfo()
			d.NoteUpdate(m)
			return nil
		},
	})

	register(&Query{
		Name: "delete_machine_from_cluster", Short: "dmfc", Kind: Delete,
		Args: []string{"machine", "cluster"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return err
			}
			c, err := oneCluster(d, args[1])
			if err != nil {
				return err
			}
			if err := d.DeleteMCMap(m.MachID, c.CluID); err != nil {
				return err
			}
			m.Mod = cx.modInfo()
			d.NoteUpdate(m)
			return nil
		},
	})

	register(&Query{
		Name: "get_cluster_data", Short: "gcld", Kind: Retrieve,
		Args:    []string{"cluster", "label"},
		Returns: []string{"cluster", "label", "data"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			var tuples [][]string
			for _, s := range d.SvcRows() {
				c, ok := d.ClusterByID(s.CluID)
				if !ok {
					continue
				}
				if wildcard.Match(args[0], c.Name) && wildcard.Match(args[1], s.ServLabel) {
					tuples = append(tuples, []string{c.Name, s.ServLabel, s.ServCluster})
				}
			}
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_cluster_data", Short: "acld", Kind: Append,
		Args: []string{"cluster", "label", "data"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			c, err := oneCluster(d, args[0])
			if err != nil {
				return err
			}
			if !d.IsValidType("slabel", args[1]) {
				return mrerr.MrType
			}
			if err := d.AddSvc(db.SvcData{CluID: c.CluID, ServLabel: args[1], ServCluster: args[2]}); err != nil {
				return err
			}
			c.Mod = cx.modInfo()
			d.NoteUpdate(c)
			return nil
		},
	})

	register(&Query{
		Name: "delete_cluster_data", Short: "dcld", Kind: Delete,
		Args: []string{"cluster", "label", "data"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			c, err := oneCluster(d, args[0])
			if err != nil {
				return err
			}
			if err := d.DeleteSvc(db.SvcData{CluID: c.CluID, ServLabel: args[1], ServCluster: args[2]}); err != nil {
				return mrerr.MrNotUnique
			}
			c.Mod = cx.modInfo()
			d.NoteUpdate(c)
			return nil
		},
	})
}
