package queries

// Queries over the SERVERS and SERVERHOSTS relations (section 7.0.4):
// the per-service and per-host state driving the DCM.

import (
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/util"
	"moira/internal/wildcard"
)

func matchServers(d *db.DB, pattern string) []*db.Server {
	pattern = strings.ToUpper(pattern)
	var out []*db.Server
	if !wildcard.HasWildcards(pattern) {
		if s, ok := d.ServerByName(pattern); ok {
			out = append(out, s)
		}
		return out
	}
	d.EachServer(func(s *db.Server) bool {
		if wildcard.Match(pattern, s.Name) {
			out = append(out, s)
		}
		return true
	})
	return out
}

func oneServer(d *db.DB, name string) (*db.Server, error) {
	ss := matchServers(d, name)
	switch len(ss) {
	case 0:
		return nil, mrerr.MrService
	case 1:
		return ss[0], nil
	default:
		return nil, mrerr.MrNotUnique
	}
}

// onServiceACE reports whether the caller satisfies the service's ACE.
func onServiceACE(cx *Context, s *db.Server) bool {
	if cx.Privileged {
		return true
	}
	return acl.CheckACE(cx.DB, s.ACLType, s.ACLID, cx.UserID)
}

// serviceACEOrACL is the usual policy on serverhost mutations: the query
// ACL, or the ACE of the service named in args[0].
func serviceACEOrACL(queryName string) AccessFunc {
	return func(cx *Context, args []string) error {
		if cx.onACL(queryName) {
			return nil
		}
		s, err := oneServer(cx.DB, args[0])
		if err != nil {
			return err
		}
		if onServiceACE(cx, s) {
			return nil
		}
		return mrerr.MrPerm
	}
}

func serverTuple(d *db.DB, s *db.Server) []string {
	return []string{
		s.Name, i2s(s.UpdateInt), s.TargetFile, s.Script,
		i642s(s.DFGen), i642s(s.DFCheck), s.Type, b2s(s.Enable),
		b2s(s.InProgress), i2s(s.HardError), s.ErrMsg,
		s.ACLType, acl.NameOfACE(d, s.ACLType, s.ACLID),
		i642s(s.Mod.Time), s.Mod.By, s.Mod.With,
	}
}

func serverHostTuple(d *db.DB, sh *db.ServerHost) []string {
	mname := "???"
	if m, ok := d.MachineByID(sh.MachID); ok {
		mname = m.Name
	}
	return []string{
		sh.Service, mname, b2s(sh.Enable), b2s(sh.Override), b2s(sh.Success),
		b2s(sh.InProgress), i2s(sh.HostError), sh.HostErrMsg,
		i642s(sh.LastTry), i642s(sh.LastSuccess),
		i2s(sh.Value1), i2s(sh.Value2), sh.Value3,
		i642s(sh.Mod.Time), sh.Mod.By, sh.Mod.With,
	}
}

func init() {
	register(&Query{
		Name: "get_server_info", Short: "gsin", Kind: Retrieve,
		Args: []string{"service"},
		Returns: []string{"service", "interval", "target", "script", "dfgen", "dfcheck",
			"type", "enable", "inprogress", "harderror", "errmsg",
			"ace_type", "ace_name", "modtime", "modby", "modwith"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("get_server_info") {
				return nil
			}
			ss := matchServers(cx.DB, args[0])
			if len(ss) == 1 && onServiceACE(cx, ss[0]) {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			ss := matchServers(cx.DB, args[0])
			if len(ss) == 0 {
				return mrerr.MrNoMatch
			}
			var tuples [][]string
			for _, s := range ss {
				tuples = append(tuples, serverTuple(cx.DB, s))
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "qualified_get_server", Short: "qgsv", Kind: Retrieve,
		Args:    []string{"enable", "inprogress", "harderror"},
		Returns: []string{"service"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			var tri [3]triState
			for i := range tri {
				t, err := parseTri(args[i])
				if err != nil {
					return err
				}
				tri[i] = t
			}
			var tuples [][]string
			cx.DB.EachServer(func(s *db.Server) bool {
				if tri[0].matches(s.Enable) && tri[1].matches(s.InProgress) &&
					tri[2].matches(s.HardError != 0) {
					tuples = append(tuples, []string{s.Name})
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
		Name: "add_server_info", Short: "asin", Kind: Append,
		Args: []string{"service", "interval", "target", "script", "type", "enable",
			"ace_type", "ace_name"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			name := strings.ToUpper(args[0])
			if err := checkNameChars(name); err != nil {
				return err
			}
			if _, dup := d.ServerByName(name); dup {
				return mrerr.MrExists
			}
			interval, err := parseInt(args[1])
			if err != nil {
				return err
			}
			if !d.IsValidType("service", args[4]) {
				return mrerr.MrType
			}
			enable, err := parseBool(args[5])
			if err != nil {
				return err
			}
			aceType, aceID, err := acl.ResolveACE(d, args[6], args[7])
			if err != nil {
				return err
			}
			return d.InsertServer(&db.Server{
				Name: name, UpdateInt: interval, TargetFile: args[2], Script: args[3],
				Type: args[4], Enable: enable, ACLType: aceType, ACLID: aceID,
				Mod: cx.modInfo(),
			})
		},
	})

	register(&Query{
		Name: "update_server_info", Short: "usin", Kind: Update,
		Args: []string{"service", "interval", "target", "script", "type", "enable",
			"ace_type", "ace_name"},
		Access: serviceACEOrACL("update_server_info"),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			s, err := oneServer(d, args[0])
			if err != nil {
				return err
			}
			interval, err := parseInt(args[1])
			if err != nil {
				return err
			}
			if !d.IsValidType("service", args[4]) {
				return mrerr.MrType
			}
			enable, err := parseBool(args[5])
			if err != nil {
				return err
			}
			aceType, aceID, err := acl.ResolveACE(d, args[6], args[7])
			if err != nil {
				return err
			}
			s.UpdateInt = interval
			s.TargetFile, s.Script = args[2], args[3]
			s.Type, s.Enable = args[4], enable
			s.ACLType, s.ACLID = aceType, aceID
			s.Mod = cx.modInfo()
			d.NoteUpdate(s)
			return nil
		},
	})

	register(&Query{
		Name: "reset_server_error", Short: "rsve", Kind: Update,
		Args:   []string{"service"},
		Access: serviceACEOrACL("reset_server_error"),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			s, err := oneServer(cx.DB, args[0])
			if err != nil {
				return err
			}
			s.HardError = 0
			s.ErrMsg = ""
			s.DFCheck = s.DFGen
			s.Mod = cx.modInfo()
			cx.DB.NoteUpdate(s)
			return nil
		},
	})

	register(&Query{
		Name: "set_server_internal_flags", Short: "ssif", Kind: Update,
		Args: []string{"service", "dfgen", "dfcheck", "inprogress", "harderr", "errmsg"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			s, err := oneServer(d, args[0])
			if err != nil {
				return err
			}
			dfgen, err := parseInt(args[1])
			if err != nil {
				return err
			}
			dfcheck, err := parseInt(args[2])
			if err != nil {
				return err
			}
			inprog, err := parseBool(args[3])
			if err != nil {
				return err
			}
			harderr, err := parseInt(args[4])
			if err != nil {
				return err
			}
			s.DFGen, s.DFCheck = int64(dfgen), int64(dfcheck)
			s.InProgress = inprog
			s.HardError = harderr
			s.ErrMsg = args[5]
			// The service modtime is NOT set (paper); nor is the change
			// sequence, since this is DCM bookkeeping, not data.
			d.NoteUpdateInternal(s)
			return nil
		},
	})

	register(&Query{
		Name: "delete_server_info", Short: "dsin", Kind: Delete,
		Args: []string{"service"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			s, err := oneServer(d, args[0])
			if err != nil {
				return err
			}
			if s.InProgress {
				return mrerr.MrInUse
			}
			if len(d.ServerHostsOf(s.Name)) > 0 {
				return mrerr.MrInUse
			}
			d.DeleteServer(s)
			return nil
		},
	})

	register(&Query{
		Name: "get_server_host_info", Short: "gshi", Kind: Retrieve,
		Args: []string{"service", "machine"},
		Returns: []string{"service", "machine", "enable", "override", "success",
			"inprogress", "hosterror", "errmsg", "lasttry", "lastsuccess",
			"value1", "value2", "value3", "modtime", "modby", "modwith"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("get_server_host_info") {
				return nil
			}
			ss := matchServers(cx.DB, args[0])
			if len(ss) == 1 && onServiceACE(cx, ss[0]) {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			spat := strings.ToUpper(args[0])
			mpat := util.CanonicalizeHostname(args[1])
			var tuples [][]string
			d.EachServerHost(func(sh *db.ServerHost) bool {
				m, ok := d.MachineByID(sh.MachID)
				if !ok {
					return true
				}
				if wildcard.Match(spat, sh.Service) && wildcard.Match(mpat, m.Name) {
					tuples = append(tuples, serverHostTuple(d, sh))
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
		Name: "qualified_get_server_host", Short: "qgsh", Kind: Retrieve,
		Args:    []string{"service", "enable", "override", "success", "inprogress", "hosterror"},
		Returns: []string{"service", "machine"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			spat := strings.ToUpper(args[0])
			var tri [5]triState
			for i := range tri {
				t, err := parseTri(args[i+1])
				if err != nil {
					return err
				}
				tri[i] = t
			}
			var tuples [][]string
			d.EachServerHost(func(sh *db.ServerHost) bool {
				if !wildcard.Match(spat, sh.Service) {
					return true
				}
				if tri[0].matches(sh.Enable) && tri[1].matches(sh.Override) &&
					tri[2].matches(sh.Success) && tri[3].matches(sh.InProgress) &&
					tri[4].matches(sh.HostError != 0) {
					if m, ok := d.MachineByID(sh.MachID); ok {
						tuples = append(tuples, []string{sh.Service, m.Name})
					}
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
		Name: "add_server_host_info", Short: "ashi", Kind: Append,
		Args:   []string{"service", "machine", "enable", "value1", "value2", "value3"},
		Access: serviceACEOrACL("add_server_host_info"),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			s, err := oneServer(d, args[0])
			if err != nil {
				return err
			}
			m, err := oneMachine(d, args[1])
			if err != nil {
				return err
			}
			enable, err := parseBool(args[2])
			if err != nil {
				return err
			}
			v1, err := parseInt(args[3])
			if err != nil {
				return err
			}
			v2, err := parseInt(args[4])
			if err != nil {
				return err
			}
			return d.InsertServerHost(&db.ServerHost{
				Service: s.Name, MachID: m.MachID, Enable: enable,
				Value1: v1, Value2: v2, Value3: args[5], Mod: cx.modInfo(),
			})
		},
	})

	register(&Query{
		Name: "update_server_host_info", Short: "ushi", Kind: Update,
		Args:   []string{"service", "machine", "enable", "value1", "value2", "value3"},
		Access: serviceACEOrACL("update_server_host_info"),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			s, err := oneServer(d, args[0])
			if err != nil {
				return err
			}
			m, err := oneMachine(d, args[1])
			if err != nil {
				return err
			}
			sh, ok := d.ServerHost(s.Name, m.MachID)
			if !ok {
				return mrerr.MrNoMatch
			}
			if sh.InProgress {
				return mrerr.MrInUse
			}
			enable, err := parseBool(args[2])
			if err != nil {
				return err
			}
			v1, err := parseInt(args[3])
			if err != nil {
				return err
			}
			v2, err := parseInt(args[4])
			if err != nil {
				return err
			}
			sh.Enable = enable
			sh.Value1, sh.Value2, sh.Value3 = v1, v2, args[5]
			sh.Mod = cx.modInfo()
			d.NoteUpdate(sh)
			return nil
		},
	})

	register(&Query{
		Name: "reset_server_host_error", Short: "rshe", Kind: Update,
		Args:   []string{"service", "machine"},
		Access: serviceACEOrACL("reset_server_host_error"),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			s, err := oneServer(d, args[0])
			if err != nil {
				return err
			}
			m, err := oneMachine(d, args[1])
			if err != nil {
				return err
			}
			sh, ok := d.ServerHost(s.Name, m.MachID)
			if !ok {
				return mrerr.MrNoMatch
			}
			sh.HostError = 0
			sh.HostErrMsg = ""
			sh.Mod = cx.modInfo()
			d.NoteUpdate(sh)
			return nil
		},
	})

	register(&Query{
		Name: "set_server_host_override", Short: "ssho", Kind: Update,
		Args:   []string{"service", "machine"},
		Access: serviceACEOrACL("set_server_host_override"),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			s, err := oneServer(d, args[0])
			if err != nil {
				return err
			}
			m, err := oneMachine(d, args[1])
			if err != nil {
				return err
			}
			sh, ok := d.ServerHost(s.Name, m.MachID)
			if !ok {
				return mrerr.MrNoMatch
			}
			sh.Override = true
			sh.Mod = cx.modInfo()
			d.NoteUpdate(sh)
			if cx.TriggerDCM != nil {
				cx.TriggerDCM(cx.TraceID)
			}
			return nil
		},
	})

	register(&Query{
		Name: "set_server_host_internal", Short: "sshi", Kind: Update,
		Args: []string{"service", "machine", "override", "success", "inprogress",
			"hosterror", "errmsg", "lasttry", "lastsuccess"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			s, err := oneServer(d, args[0])
			if err != nil {
				return err
			}
			m, err := oneMachine(d, args[1])
			if err != nil {
				return err
			}
			sh, ok := d.ServerHost(s.Name, m.MachID)
			if !ok {
				return mrerr.MrNoMatch
			}
			override, err := parseBool(args[2])
			if err != nil {
				return err
			}
			success, err := parseBool(args[3])
			if err != nil {
				return err
			}
			inprog, err := parseBool(args[4])
			if err != nil {
				return err
			}
			hosterr, err := parseInt(args[5])
			if err != nil {
				return err
			}
			lasttry, err := parseInt(args[7])
			if err != nil {
				return err
			}
			lastsuccess, err := parseInt(args[8])
			if err != nil {
				return err
			}
			sh.Override, sh.Success, sh.InProgress = override, success, inprog
			sh.HostError, sh.HostErrMsg = hosterr, args[6]
			sh.LastTry, sh.LastSuccess = int64(lasttry), int64(lastsuccess)
			// The serverhost modtime is NOT set (paper); see above.
			d.NoteUpdateInternal(sh)
			return nil
		},
	})

	register(&Query{
		Name: "delete_server_host_info", Short: "dshi", Kind: Delete,
		Args:   []string{"service", "machine"},
		Access: serviceACEOrACL("delete_server_host_info"),
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			s, err := oneServer(d, args[0])
			if err != nil {
				return err
			}
			m, err := oneMachine(d, args[1])
			if err != nil {
				return err
			}
			sh, ok := d.ServerHost(s.Name, m.MachID)
			if !ok {
				return mrerr.MrNoMatch
			}
			if sh.InProgress {
				return mrerr.MrInUse
			}
			return d.DeleteServerHost(s.Name, m.MachID)
		},
	})

	register(&Query{
		Name: "get_server_locations", Short: "gslo", Kind: Retrieve,
		Args:    []string{"service"},
		Returns: []string{"service", "machine"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			spat := strings.ToUpper(args[0])
			var tuples [][]string
			d.EachServerHost(func(sh *db.ServerHost) bool {
				if !wildcard.Match(spat, sh.Service) {
					return true
				}
				if m, ok := d.MachineByID(sh.MachID); ok {
					tuples = append(tuples, []string{sh.Service, m.Name})
				}
				return true
			})
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})
}
