package queries

// Queries over zephyr classes, host access, network services, printers,
// aliases, values, and table statistics (sections 7.0.6 and 7.0.7).

import (
	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

// zephyrACEs are the four (type, name) ACE pairs of a zephyr class.
var zephyrACEs = []Arg{ace("xmt_type"), arg("xmt_name"), ace("sub_type"), arg("sub_name"),
	ace("iws_type"), arg("iws_name"), ace("iui_type"), arg("iui_name")}

// setZephyrACEs copies the four resolved ACE pairs starting at argument
// i into z.
func (r *Req) setZephyrACEs(z *db.ZephyrClass, i int) {
	z.XmtType, z.XmtID = r.s[i], r.n[i]
	z.SubType, z.SubID = r.s[i+2], r.n[i+2]
	z.IwsType, z.IwsID = r.s[i+4], r.n[i+4]
	z.IuiType, z.IuiID = r.s[i+6], r.n[i+6]
}

func init() {
	machine := machineArg("machine", mrerr.MrMachine)
	hostACE := []Arg{machine, ace("ace_type"), arg("ace_name")}
	register([]Query{
		{Name: "get_zephyr_class", Short: "gzcl", In: []Arg{arg("class")}, Access: Anyone,
			Rows: Columns("class xmt_type xmt_name sub_type sub_name iws_type iws_name iui_type iui_name modtime:time modby modwith"),
			Do: func(r *Req) error {
				d := r.DB
				db.ZephyrClasses.Match(d, r.s[0], func(z *db.ZephyrClass) bool {
					r.Row(txt(z.Class),
						txt(z.XmtType), txt(acl.NameOfACE(d, z.XmtType, z.XmtID)),
						txt(z.SubType), txt(acl.NameOfACE(d, z.SubType, z.SubID)),
						txt(z.IwsType), txt(acl.NameOfACE(d, z.IwsType, z.IwsID)),
						txt(z.IuiType), txt(acl.NameOfACE(d, z.IuiType, z.IuiID)),
						dec(z.Mod.Time), txt(z.Mod.By), txt(z.Mod.With))
					return true
				})
				return nil
			}},
		{Name: "add_zephyr_class", Short: "azcl", Kind: Append,
			In: append([]Arg{fresh("class", db.ZephyrClasses, mrerr.MrExists)}, zephyrACEs...),
			Do: func(r *Req) error {
				z := &db.ZephyrClass{Class: r.s[0], Mod: r.modInfo()}
				r.setZephyrACEs(z, 1)
				return db.ZephyrClasses.Insert(r.DB, z)
			}},
		{Name: "update_zephyr_class", Short: "uzcl", Kind: Update,
			In: append([]Arg{one("class", db.ZephyrClasses, nil), rename("newclass", db.ZephyrClasses)}, zephyrACEs...),
			Do: func(r *Req) error {
				z := db.Edit(r.DB, db.ZephyrClasses, obj[db.ZephyrClass](r, 0))
				if r.s[1] != z.Class {
					db.SetKey(r.DB, db.ZephyrClasses, z, &z.Class, r.s[1])
				}
				r.setZephyrACEs(z, 2)
				z.Mod = r.modInfo()
				r.DB.NoteUpdate(z)
				return nil
			}},
		{Name: "delete_zephyr_class", Short: "dzcl", Kind: Delete, In: []Arg{one("class", db.ZephyrClasses, nil)},
			Do: func(r *Req) error {
				db.ZephyrClasses.Delete(r.DB, obj[db.ZephyrClass](r, 0))
				return nil
			}},
		{Name: "get_server_host_access", Short: "gsha", In: []Arg{pattern("machine", hostname)}, Access: Anyone,
			Rows: Columns("machine ace_type ace_name modtime:time modby modwith"),
			Do: func(r *Req) error {
				d := r.DB
				db.HostAccesses.Each(d, func(h *db.HostAccess) bool {
					if m, ok := db.Machines.ByID(d, h.MachID); ok && wildcard.Match(r.s[0], m.Name) {
						r.Row(txt(m.Name), txt(h.ACLType), txt(acl.NameOfACE(d, h.ACLType, h.ACLID)),
							dec(h.Mod.Time), txt(h.Mod.By), txt(h.Mod.With))
					}
					return true
				})
				return nil
			}},
		{Name: "add_server_host_access", Short: "asha", Kind: Append, In: hostACE,
			Do: func(r *Req) error {
				return db.HostAccesses.Insert(r.DB, &db.HostAccess{
					MachID: obj[db.Machine](r, 0).MachID, ACLType: r.s[1], ACLID: r.n[1], Mod: r.modInfo(),
				})
			}},
		{Name: "update_server_host_access", Short: "usha", Kind: Update,
			In: []Arg{{Name: "machine", Kind: aHostAccess, Canon: hostname, Rel: db.Machines}, ace("ace_type"), arg("ace_name")},
			Do: func(r *Req) error {
				h := db.Edit(r.DB, db.HostAccesses, obj[db.HostAccess](r, 0))
				h.ACLType, h.ACLID, h.Mod = r.s[1], r.n[1], r.modInfo()
				r.DB.NoteUpdate(h)
				return nil
			}},
		{Name: "delete_server_host_access", Short: "dsha", Kind: Delete, In: []Arg{machine},
			Do: func(r *Req) error {
				h, ok := db.HostAccesses.ByID(r.DB, obj[db.Machine](r, 0).MachID)
				if !ok {
					return mrerr.MrNoMatch
				}
				db.HostAccesses.Delete(r.DB, h)
				return nil
			}},
		{Name: "add_service", Short: "asvc", Kind: Append,
			In: []Arg{fresh("service", db.Services, mrerr.MrExists),
				{Name: "protocol", Kind: aType, Canon: upper, Field: "protocol", Err: mrerr.MrType},
				num("port"), arg("description")},
			Do: func(r *Req) error {
				return db.Services.Insert(r.DB, &db.Service{
					Name: r.s[0], Protocol: r.s[1], Port: r.n[2], Desc: r.s[3], Mod: r.modInfo(),
				})
			}},
		{Name: "delete_service", Short: "dsvc", Kind: Delete, In: []Arg{exact("service", db.Services, mrerr.MrNoMatch)},
			Do: func(r *Req) error {
				db.Services.Delete(r.DB, obj[db.Service](r, 0))
				return nil
			}},
		{Name: "get_printcap", Short: "gpcp", In: []Arg{arg("printer")}, Access: Anyone,
			Rows: Columns("printer spool_host spool_directory rprinter comments modtime:time modby modwith"),
			Do: func(r *Req) error {
				d := r.DB
				db.Printcaps.Each(d, func(p *db.Printcap) bool {
					if wildcard.Match(r.s[0], p.Name) {
						mname := "???"
						if m, ok := db.Machines.ByID(d, p.MachID); ok {
							mname = m.Name
						}
						r.Row(txt(p.Name), txt(mname), txt(p.Dir), txt(p.RP), txt(p.Comments), dec(p.Mod.Time), txt(p.Mod.By), txt(p.Mod.With))
					}
					return true
				})
				return nil
			}},
		{Name: "add_printcap", Short: "apcp", Kind: Append,
			In: []Arg{fresh("printer", db.Printcaps, mrerr.MrExists), machineArg("spool_host", mrerr.MrMachine),
				arg("spool_directory"), arg("rprinter"), arg("comments")},
			Do: func(r *Req) error {
				return db.Printcaps.Insert(r.DB, &db.Printcap{
					Name: r.s[0], MachID: obj[db.Machine](r, 1).MachID, Dir: r.s[2], RP: r.s[3],
					Comments: r.s[4], Mod: r.modInfo(),
				})
			}},
		{Name: "delete_printcap", Short: "dpcp", Kind: Delete, In: []Arg{exact("printer", db.Printcaps, mrerr.MrNoMatch)},
			Do: func(r *Req) error {
				db.Printcaps.Delete(r.DB, obj[db.Printcap](r, 0))
				return nil
			}},
		{Name: "get_alias", Short: "gali", In: []Arg{arg("name"), arg("type"), arg("translation")},
			Rows: Columns("name type translation"), Access: Anyone,
			Do: func(r *Req) error {
				db.Aliases.Each(r.DB, func(a *db.Alias) bool {
					if wildcard.Match(r.s[0], a.Name) && wildcard.Match(r.s[1], a.Type) && wildcard.Match(r.s[2], a.Trans) {
						r.Row(txt(a.Name), txt(a.Type), txt(a.Trans))
					}
					return true
				})
				return nil
			}},
		// The alias types themselves are type-checked: you cannot add an
		// alias of a type not registered under "alias".
		{Name: "add_alias", Short: "aali", Kind: Append,
			In: []Arg{arg("name"), typed("type", "alias", mrerr.MrType), arg("translation")},
			Do: func(r *Req) error {
				return db.Aliases.Insert(r.DB, &db.Alias{Name: r.s[0], Type: r.s[1], Trans: r.s[2]})
			}},
		{Name: "delete_alias", Short: "dali", Kind: Delete, In: []Arg{arg("name"), arg("type"), arg("translation")},
			Do: func(r *Req) error {
				want := db.Alias{Name: r.s[0], Type: r.s[1], Trans: r.s[2]}
				a, ok := db.Aliases.Find(r.DB, want.Name, func(a *db.Alias) bool { return *a == want })
				if !ok {
					return mrerr.MrNoMatch
				}
				db.Aliases.Delete(r.DB, a)
				return nil
			}},
		{Name: "get_value", Short: "gval", In: []Arg{arg("variable")}, Rows: Columns("value:int"), Access: Anyone,
			Do: func(r *Req) error {
				v, err := r.DB.GetValue(r.s[0])
				r.Row(dec(v))
				return err
			}},
		{Name: "add_value", Short: "aval", Kind: Append, In: []Arg{arg("variable"), num("value")},
			Do: func(r *Req) error { return r.DB.AddValue(r.s[0], r.n[1]) }},
		{Name: "update_value", Short: "uval", Kind: Update, In: []Arg{arg("variable"), num("value")},
			Do: func(r *Req) error { return r.DB.UpdateValue(r.s[0], r.n[1]) }},
		{Name: "delete_value", Short: "dval", Kind: Delete, In: []Arg{arg("variable")},
			Do: func(r *Req) error { return r.DB.DeleteValue(r.s[0]) }},
		{Name: "get_all_table_stats", Short: "gats", IndexOrder: true, Access: Anyone,
			Rows: Columns("table retrieves:int appends:int updates:int deletes:int modtime:time"),
			Do: func(r *Req) error {
				for _, s := range r.DB.AllStats() {
					r.Row(txt(s.Table), dec(s.Retrieves), dec(s.Appends), dec(s.Updates), dec(s.Deletes), dec(s.ModTime))
				}
				return nil
			}},
	})
}
