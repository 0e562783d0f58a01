package queries

// Queries over the SERVERS and SERVERHOSTS relations (section 7.0.4):
// the per-service and per-host state driving the DCM.

import (
	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

var (
	serverRow = Columns("service interval:int target script dfgen:time dfcheck:time type enable:bool inprogress:bool harderror:int errmsg ace_type ace_name modtime:time modby modwith")
	hostRow   = Columns("service machine enable:bool override:bool success:bool inprogress:bool hosterror:int errmsg lasttry:time lastsuccess:time value1:int value2:int value3 modtime:time modby modwith")
	locations = Columns("service machine")
)

// host is a serverhost: the machine argument of argument 0's service.
func host(idle bool) Arg {
	if idle {
		return Arg{Name: "machine", Kind: aIdleHost, Canon: hostname, Rel: db.Machines}
	}
	return Arg{Name: "machine", Kind: aHost, Canon: hostname, Rel: db.Machines}
}

// hosts adds the serverhost rows whose service matches the pattern in
// argument 0 and that keep accepts, with add rendering each.
func (r *Req) hosts(keep func(sh *db.ServerHost, m *db.Machine) bool, add func(sh *db.ServerHost, m *db.Machine)) {
	db.ServerHosts.Match(r.DB, r.s[0], func(sh *db.ServerHost) bool {
		if m, ok := db.Machines.ByID(r.DB, sh.MachID); ok && keep(sh, m) {
			add(sh, m)
		}
		return true
	})
}

func (r *Req) location(sh *db.ServerHost, m *db.Machine) { r.Row(txt(sh.Service), txt(m.Name)) }

// serviceInfo is add_server_info's and update_server_info's argument
// block after the service.
func serviceInfo(service Arg) []Arg {
	return []Arg{service, num("interval"), arg("target"), arg("script"),
		typed("type", "service", mrerr.MrType), flag("enable"), ace("ace_type"), arg("ace_name")}
}

func init() {
	server := Arg{Name: "service", Kind: aOne, Canon: upper, Rel: db.Servers}
	register([]Query{
		{Name: "get_server_info", Short: "gsin", In: []Arg{pattern("service", upper)}, Rows: serverRow, Access: serviceRead(0),
			Do: func(r *Req) error {
				db.Servers.Match(r.DB, r.s[0], func(s *db.Server) bool {
					r.Row(txt(s.Name), dec(s.UpdateInt), txt(s.TargetFile), txt(s.Script),
						dec(s.DFGen), dec(s.DFCheck), txt(s.Type), bit(s.Enable),
						bit(s.InProgress), dec(s.HardError), txt(s.ErrMsg),
						txt(s.ACLType), txt(acl.NameOfACE(r.DB, s.ACLType, s.ACLID)),
						dec(s.Mod.Time), txt(s.Mod.By), txt(s.Mod.With))
					return true
				})
				return nil
			}},
		{Name: "qualified_get_server", Short: "qgsv", In: []Arg{tri("enable"), tri("inprogress"), tri("harderror")},
			Rows: Columns("service"), Access: Anyone,
			Do: func(r *Req) error {
				db.Servers.Each(r.DB, func(s *db.Server) bool {
					if r.match(0, s.Enable) && r.match(1, s.InProgress) && r.match(2, s.HardError != 0) {
						r.Row(txt(s.Name))
					}
					return true
				})
				return nil
			}},
		{Name: "add_server_info", Short: "asin", Kind: Append,
			In: serviceInfo(Arg{Name: "service", Kind: aFresh, Canon: upper, Rel: db.Servers, Err: mrerr.MrExists}),
			Do: func(r *Req) error {
				return db.Servers.Insert(r.DB, &db.Server{
					Name: r.s[0], UpdateInt: r.n[1], TargetFile: r.s[2], Script: r.s[3],
					Type: r.s[4], Enable: r.flag(5), ACLType: r.s[6], ACLID: r.n[6],
					Mod: r.modInfo(),
				})
			}},
		{Name: "update_server_info", Short: "usin", Kind: Update, In: serviceInfo(server), Access: serviceACE(0),
			Do: func(r *Req) error {
				s := db.Edit(r.DB, db.Servers, obj[db.Server](r, 0))
				s.UpdateInt, s.TargetFile, s.Script = r.n[1], r.s[2], r.s[3]
				s.Type, s.Enable = r.s[4], r.flag(5)
				s.ACLType, s.ACLID = r.s[6], r.n[6]
				s.Mod = r.modInfo()
				r.DB.NoteUpdate(s)
				return nil
			}},
		{Name: "reset_server_error", Short: "rsve", Kind: Update, In: []Arg{server}, Access: serviceACE(0),
			Do: func(r *Req) error {
				s := db.Edit(r.DB, db.Servers, obj[db.Server](r, 0))
				s.HardError, s.ErrMsg, s.DFCheck = 0, "", s.DFGen
				s.Mod = r.modInfo()
				r.DB.NoteUpdate(s)
				return nil
			}},
		{Name: "set_server_internal_flags", Short: "ssif", Kind: Update,
			In: []Arg{server, num("dfgen"), num("dfcheck"), flag("inprogress"), num("harderr"), arg("errmsg")},
			Do: func(r *Req) error {
				s := db.Edit(r.DB, db.Servers, obj[db.Server](r, 0))
				s.DFGen, s.DFCheck = int64(r.n[1]), int64(r.n[2])
				s.InProgress, s.HardError, s.ErrMsg = r.flag(3), r.n[4], r.s[5]
				// The service modtime is NOT set (paper); nor is the change
				// sequence, since this is DCM bookkeeping, not data.
				r.DB.NoteUpdateInternal(s)
				return nil
			}},
		{Name: "delete_server_info", Short: "dsin", Kind: Delete, In: []Arg{server},
			Do: func(r *Req) error {
				s := obj[db.Server](r, 0)
				if _, hosted := db.ServerHosts.Get(r.DB, s.Name); s.InProgress || hosted {
					return mrerr.MrInUse
				}
				db.Servers.Delete(r.DB, s)
				return nil
			}},
		{Name: "get_server_host_info", Short: "gshi", In: []Arg{pattern("service", upper), pattern("machine", hostname)},
			Rows: hostRow, Access: serviceRead(0),
			Do: func(r *Req) error {
				r.hosts(func(sh *db.ServerHost, m *db.Machine) bool { return wildcard.Match(r.s[1], m.Name) },
					func(sh *db.ServerHost, m *db.Machine) {
						r.Row(txt(sh.Service), txt(m.Name), bit(sh.Enable), bit(sh.Override), bit(sh.Success),
							bit(sh.InProgress), dec(sh.HostError), txt(sh.HostErrMsg),
							dec(sh.LastTry), dec(sh.LastSuccess),
							dec(sh.Value1), dec(sh.Value2), txt(sh.Value3),
							dec(sh.Mod.Time), txt(sh.Mod.By), txt(sh.Mod.With))
					})
				return nil
			}},
		{Name: "qualified_get_server_host", Short: "qgsh", Rows: locations, Access: Anyone,
			In: []Arg{pattern("service", upper), tri("enable"), tri("override"), tri("success"), tri("inprogress"), tri("hosterror")},
			Do: func(r *Req) error {
				r.hosts(func(sh *db.ServerHost, m *db.Machine) bool {
					return r.match(1, sh.Enable) && r.match(2, sh.Override) && r.match(3, sh.Success) &&
						r.match(4, sh.InProgress) && r.match(5, sh.HostError != 0)
				}, r.location)
				return nil
			}},
		{Name: "add_server_host_info", Short: "ashi", Kind: Append, Access: serviceACE(0),
			In: []Arg{server, machineArg("machine", nil), flag("enable"), num("value1"), num("value2"), arg("value3")},
			Do: func(r *Req) error {
				return db.ServerHosts.Insert(r.DB, &db.ServerHost{
					Service: obj[db.Server](r, 0).Name, MachID: obj[db.Machine](r, 1).MachID, Enable: r.flag(2),
					Value1: r.n[3], Value2: r.n[4], Value3: r.s[5], Mod: r.modInfo(),
				})
			}},
		{Name: "update_server_host_info", Short: "ushi", Kind: Update, Access: serviceACE(0),
			In: []Arg{server, host(true), flag("enable"), num("value1"), num("value2"), arg("value3")},
			Do: func(r *Req) error {
				sh := db.Edit(r.DB, db.ServerHosts, obj[db.ServerHost](r, 1))
				sh.Enable, sh.Value1, sh.Value2, sh.Value3 = r.flag(2), r.n[3], r.n[4], r.s[5]
				sh.Mod = r.modInfo()
				r.DB.NoteUpdate(sh)
				return nil
			}},
		{Name: "reset_server_host_error", Short: "rshe", Kind: Update, In: []Arg{server, host(false)}, Access: serviceACE(0),
			Do: func(r *Req) error {
				sh := db.Edit(r.DB, db.ServerHosts, obj[db.ServerHost](r, 1))
				sh.HostError, sh.HostErrMsg, sh.Mod = 0, "", r.modInfo()
				r.DB.NoteUpdate(sh)
				return nil
			}},
		{Name: "set_server_host_override", Short: "ssho", Kind: Update, In: []Arg{server, host(false)}, Access: serviceACE(0),
			Do: func(r *Req) error {
				sh := db.Edit(r.DB, db.ServerHosts, obj[db.ServerHost](r, 1))
				sh.Override, sh.Mod = true, r.modInfo()
				r.DB.NoteUpdate(sh)
				if r.TriggerDCM != nil {
					r.TriggerDCM(r.TraceID)
				}
				return nil
			}},
		{Name: "set_server_host_internal", Short: "sshi", Kind: Update,
			In: []Arg{server, host(false), flag("override"), flag("success"), flag("inprogress"),
				num("hosterror"), arg("errmsg"), num("lasttry"), num("lastsuccess")},
			Do: func(r *Req) error {
				sh := db.Edit(r.DB, db.ServerHosts, obj[db.ServerHost](r, 1))
				sh.Override, sh.Success, sh.InProgress = r.flag(2), r.flag(3), r.flag(4)
				sh.HostError, sh.HostErrMsg = r.n[5], r.s[6]
				sh.LastTry, sh.LastSuccess = int64(r.n[7]), int64(r.n[8])
				// The serverhost modtime is NOT set (paper); see above.
				r.DB.NoteUpdateInternal(sh)
				return nil
			}},
		{Name: "delete_server_host_info", Short: "dshi", Kind: Delete, In: []Arg{server, host(true)}, Access: serviceACE(0),
			Do: func(r *Req) error {
				db.ServerHosts.Delete(r.DB, obj[db.ServerHost](r, 1))
				return nil
			}},
		{Name: "get_server_locations", Short: "gslo", In: []Arg{pattern("service", upper)}, Rows: locations, Access: Anyone,
			Do: func(r *Req) error {
				r.hosts(func(*db.ServerHost, *db.Machine) bool { return true }, r.location)
				return nil
			}},
	})
}
