package queries

// Queries over zephyr classes, host access, network services, printers,
// aliases, values, and table statistics (sections 7.0.6 and 7.0.7).

import (
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

// resolveFourACEs validates the four (type, name) pairs of the zephyr
// class queries.
func resolveFourACEs(d *db.DB, args []string) (types [4]string, ids [4]int, err error) {
	for i := 0; i < 4; i++ {
		t, id, e := acl.ResolveACE(d, args[2*i], args[2*i+1])
		if e != nil {
			return types, ids, e
		}
		types[i], ids[i] = t, id
	}
	return types, ids, nil
}

func zephyrTuple(d *db.DB, z *db.ZephyrClass) []string {
	return []string{
		z.Class,
		z.XmtType, acl.NameOfACE(d, z.XmtType, z.XmtID),
		z.SubType, acl.NameOfACE(d, z.SubType, z.SubID),
		z.IwsType, acl.NameOfACE(d, z.IwsType, z.IwsID),
		z.IuiType, acl.NameOfACE(d, z.IuiType, z.IuiID),
		i642s(z.Mod.Time), z.Mod.By, z.Mod.With,
	}
}

func oneZephyr(d *db.DB, class string) (*db.ZephyrClass, error) {
	if !wildcard.HasWildcards(class) {
		if z, ok := d.ZephyrByClass(class); ok {
			return z, nil
		}
		return nil, mrerr.MrNoMatch
	}
	var found []*db.ZephyrClass
	d.EachZephyr(func(z *db.ZephyrClass) bool {
		if wildcard.Match(class, z.Class) {
			found = append(found, z)
		}
		return true
	})
	switch len(found) {
	case 0:
		return nil, mrerr.MrNoMatch
	case 1:
		return found[0], nil
	default:
		return nil, mrerr.MrNotUnique
	}
}

func init() {
	register(&Query{
		Name: "get_zephyr_class", Short: "gzcl", Kind: Retrieve,
		Args: []string{"class"},
		Returns: []string{"class", "xmt_type", "xmt_name", "sub_type", "sub_name",
			"iws_type", "iws_name", "iui_type", "iui_name", "modtime", "modby", "modwith"},
		Access: accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			var tuples [][]string
			cx.DB.EachZephyr(func(z *db.ZephyrClass) bool {
				if wildcard.Match(args[0], z.Class) {
					tuples = append(tuples, zephyrTuple(cx.DB, z))
				}
				return true
			})
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_zephyr_class", Short: "azcl", Kind: Append,
		Args: []string{"class", "xmt_type", "xmt_name", "sub_type", "sub_name",
			"iws_type", "iws_name", "iui_type", "iui_name"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			if err := checkNameChars(args[0]); err != nil {
				return err
			}
			if _, dup := d.ZephyrByClass(args[0]); dup {
				return mrerr.MrExists
			}
			types, ids, err := resolveFourACEs(d, args[1:])
			if err != nil {
				return err
			}
			return d.InsertZephyr(&db.ZephyrClass{
				Class:   args[0],
				XmtType: types[0], XmtID: ids[0],
				SubType: types[1], SubID: ids[1],
				IwsType: types[2], IwsID: ids[2],
				IuiType: types[3], IuiID: ids[3],
				Mod: cx.modInfo(),
			})
		},
	})

	register(&Query{
		Name: "update_zephyr_class", Short: "uzcl", Kind: Update,
		Args: []string{"class", "newclass", "xmt_type", "xmt_name", "sub_type",
			"sub_name", "iws_type", "iws_name", "iui_type", "iui_name"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			z, err := oneZephyr(d, args[0])
			if err != nil {
				return err
			}
			newclass := args[1]
			if err := checkNameChars(newclass); err != nil {
				return err
			}
			if newclass != z.Class {
				if _, dup := d.ZephyrByClass(newclass); dup {
					return mrerr.MrNotUnique
				}
			}
			types, ids, err := resolveFourACEs(d, args[2:])
			if err != nil {
				return err
			}
			if newclass != z.Class {
				d.RenameZephyr(z, newclass)
			}
			z.XmtType, z.XmtID = types[0], ids[0]
			z.SubType, z.SubID = types[1], ids[1]
			z.IwsType, z.IwsID = types[2], ids[2]
			z.IuiType, z.IuiID = types[3], ids[3]
			z.Mod = cx.modInfo()
			d.NoteUpdate(z)
			return nil
		},
	})

	register(&Query{
		Name: "delete_zephyr_class", Short: "dzcl", Kind: Delete,
		Args: []string{"class"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			z, err := oneZephyr(cx.DB, args[0])
			if err != nil {
				return err
			}
			cx.DB.DeleteZephyr(z)
			return nil
		},
	})

	register(&Query{
		Name: "get_server_host_access", Short: "gsha", Kind: Retrieve,
		Args:    []string{"machine"},
		Returns: []string{"machine", "ace_type", "ace_name", "modtime", "modby", "modwith"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			var tuples [][]string
			d.EachHostAccess(func(h *db.HostAccess) bool {
				m, ok := d.MachineByID(h.MachID)
				if !ok {
					return true
				}
				if wildcard.Match(strings.ToUpper(args[0]), m.Name) {
					tuples = append(tuples, []string{
						m.Name, h.ACLType, acl.NameOfACE(d, h.ACLType, h.ACLID),
						i642s(h.Mod.Time), h.Mod.By, h.Mod.With,
					})
				}
				return true
			})
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_server_host_access", Short: "asha", Kind: Append,
		Args: []string{"machine", "ace_type", "ace_name"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			aceType, aceID, err := acl.ResolveACE(d, args[1], args[2])
			if err != nil {
				return err
			}
			return d.InsertHostAccess(&db.HostAccess{
				MachID: m.MachID, ACLType: aceType, ACLID: aceID, Mod: cx.modInfo(),
			})
		},
	})

	register(&Query{
		Name: "update_server_host_access", Short: "usha", Kind: Update,
		Args: []string{"machine", "ace_type", "ace_name"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			h, ok := d.HostAccessOf(m.MachID)
			if !ok {
				return mrerr.MrNoMatch
			}
			aceType, aceID, err := acl.ResolveACE(d, args[1], args[2])
			if err != nil {
				return err
			}
			h.ACLType, h.ACLID = aceType, aceID
			h.Mod = cx.modInfo()
			d.NoteUpdate(h)
			return nil
		},
	})

	register(&Query{
		Name: "delete_server_host_access", Short: "dsha", Kind: Delete,
		Args: []string{"machine"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			m, err := oneMachine(cx.DB, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			return cx.DB.DeleteHostAccess(m.MachID)
		},
	})

	register(&Query{
		Name: "add_service", Short: "asvc", Kind: Append,
		Args: []string{"service", "protocol", "port", "description"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			if err := checkNameChars(args[0]); err != nil {
				return err
			}
			if _, dup := d.ServiceByName(args[0]); dup {
				return mrerr.MrExists
			}
			proto := strings.ToUpper(args[1])
			if !d.IsValidType("protocol", proto) {
				return mrerr.MrType
			}
			port, err := parseInt(args[2])
			if err != nil {
				return err
			}
			return d.InsertService(&db.Service{
				Name: args[0], Protocol: proto, Port: port, Desc: args[3],
				Mod: cx.modInfo(),
			})
		},
	})

	register(&Query{
		Name: "delete_service", Short: "dsvc", Kind: Delete,
		Args: []string{"service"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			s, ok := cx.DB.ServiceByName(args[0])
			if !ok {
				return mrerr.MrNoMatch
			}
			cx.DB.DeleteService(s)
			return nil
		},
	})

	register(&Query{
		Name: "get_printcap", Short: "gpcp", Kind: Retrieve,
		Args: []string{"printer"},
		Returns: []string{"printer", "spool_host", "spool_directory", "rprinter",
			"comments", "modtime", "modby", "modwith"},
		Access: accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			var tuples [][]string
			d.EachPrintcap(func(p *db.Printcap) bool {
				if !wildcard.Match(args[0], p.Name) {
					return true
				}
				mname := "???"
				if m, ok := d.MachineByID(p.MachID); ok {
					mname = m.Name
				}
				tuples = append(tuples, []string{
					p.Name, mname, p.Dir, p.RP, p.Comments,
					i642s(p.Mod.Time), p.Mod.By, p.Mod.With,
				})
				return true
			})
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_printcap", Short: "apcp", Kind: Append,
		Args: []string{"printer", "spool_host", "spool_directory", "rprinter", "comments"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			if err := checkNameChars(args[0]); err != nil {
				return err
			}
			if _, dup := d.PrintcapByName(args[0]); dup {
				return mrerr.MrExists
			}
			m, err := oneMachine(d, args[1])
			if err != nil {
				return mrerr.MrMachine
			}
			return d.InsertPrintcap(&db.Printcap{
				Name: args[0], MachID: m.MachID, Dir: args[2], RP: args[3],
				Comments: args[4], Mod: cx.modInfo(),
			})
		},
	})

	register(&Query{
		Name: "delete_printcap", Short: "dpcp", Kind: Delete,
		Args: []string{"printer"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			p, ok := cx.DB.PrintcapByName(args[0])
			if !ok {
				return mrerr.MrNoMatch
			}
			cx.DB.DeletePrintcap(p)
			return nil
		},
	})

	register(&Query{
		Name: "get_alias", Short: "gali", Kind: Retrieve,
		Args:    []string{"name", "type", "translation"},
		Returns: []string{"name", "type", "translation"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			var tuples [][]string
			for _, a := range cx.DB.Aliases() {
				if wildcard.Match(args[0], a.Name) && wildcard.Match(args[1], a.Type) &&
					wildcard.Match(args[2], a.Trans) {
					tuples = append(tuples, []string{a.Name, a.Type, a.Trans})
				}
			}
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_alias", Short: "aali", Kind: Append,
		Args: []string{"name", "type", "translation"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			// The alias types themselves are type-checked: you cannot add
			// an alias of a type not registered under "alias".
			if !d.IsValidType("alias", args[1]) {
				return mrerr.MrType
			}
			return d.AddAlias(args[0], args[1], args[2])
		},
	})

	register(&Query{
		Name: "delete_alias", Short: "dali", Kind: Delete,
		Args: []string{"name", "type", "translation"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			return cx.DB.DeleteAlias(args[0], args[1], args[2])
		},
	})

	register(&Query{
		Name: "get_value", Short: "gval", Kind: Retrieve,
		Args:    []string{"variable"},
		Returns: []string{"value"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			v, err := cx.DB.GetValue(args[0])
			if err != nil {
				return err
			}
			return emit([]string{i2s(v)})
		},
	})

	register(&Query{
		Name: "add_value", Short: "aval", Kind: Append,
		Args: []string{"variable", "value"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			v, err := parseInt(args[1])
			if err != nil {
				return err
			}
			return cx.DB.AddValue(args[0], v)
		},
	})

	register(&Query{
		Name: "update_value", Short: "uval", Kind: Update,
		Args: []string{"variable", "value"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			v, err := parseInt(args[1])
			if err != nil {
				return err
			}
			return cx.DB.UpdateValue(args[0], v)
		},
	})

	register(&Query{
		Name: "delete_value", Short: "dval", Kind: Delete,
		Args: []string{"variable"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			return cx.DB.DeleteValue(args[0])
		},
	})

	register(&Query{
		Name: "get_all_table_stats", Short: "gats", Kind: Retrieve,
		Returns: []string{"table", "retrieves", "appends", "updates", "deletes", "modtime"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			for _, s := range cx.DB.AllStats() {
				err := emit([]string{
					s.Table, i2s(s.Retrieves), i2s(s.Appends), i2s(s.Updates),
					i2s(s.Deletes), i642s(s.ModTime),
				})
				if err != nil {
					return err
				}
			}
			return nil
		},
	})
}
