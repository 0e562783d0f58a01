package queries

// Queries over filesystems, NFS physical partitions, and quotas
// (section 7.0.5).

import (
	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

func filesysTuple(d *db.DB, f *db.Filesys) []string {
	mname := "???"
	if m, ok := d.MachineByID(f.MachID); ok {
		mname = m.Name
	}
	owner := acl.NameOfACE(d, db.ACEUser, f.Owner)
	owners := acl.NameOfACE(d, db.ACEList, f.Owners)
	return []string{
		f.Label, f.Type, mname, f.Name, f.Mount, f.Access, f.Comments,
		owner, owners, b2s(f.CreateFlg), f.LockerType,
		i642s(f.Mod.Time), f.Mod.By, f.Mod.With,
	}
}

var filesysReturns = []string{
	"name", "fstype", "machine", "packname", "mountpoint", "access",
	"comments", "owner", "owners", "create", "lockertype",
	"modtime", "modby", "modwith",
}

func oneFilesys(d *db.DB, label string) (*db.Filesys, error) {
	fs := d.FilesysByLabel(label)
	switch len(fs) {
	case 0:
		return nil, mrerr.MrFilesys
	case 1:
		return fs[0], nil
	default:
		return nil, mrerr.MrNotUnique
	}
}

// validateFilesysArgs checks the shared argument block of
// add_filesys/update_filesys and resolves references.
func validateFilesysArgs(d *db.DB, args []string) (fstype string, mach *db.Machine,
	physID int, owner, owners int, create bool, lockertype string, err error) {
	fstype = args[1]
	if !d.IsValidType("filesys", fstype) {
		return "", nil, 0, 0, 0, false, "", mrerr.MrFSType
	}
	mach, merr := oneMachine(d, args[2])
	if merr != nil {
		return "", nil, 0, 0, 0, false, "", mrerr.MrMachine
	}
	packname, access := args[3], args[5]
	if fstype == db.FSTypeNFS {
		p, ok := d.NFSPhysByMachDir(mach.MachID, packname)
		if !ok {
			// The packname must live under an exported partition: exact
			// partition match or a directory beneath one.
			d.EachNFSPhys(func(q *db.NFSPhys) bool {
				if q.MachID == mach.MachID && len(packname) > len(q.Dir) &&
					packname[:len(q.Dir)] == q.Dir && packname[len(q.Dir)] == '/' {
					p, ok = q, true
					return false
				}
				return true
			})
		}
		if !ok {
			return "", nil, 0, 0, 0, false, "", mrerr.MrNFS
		}
		physID = p.NFSPhysID
		if access != "r" && access != "w" {
			return "", nil, 0, 0, 0, false, "", mrerr.MrFilesysAccess
		}
	}
	u, ok := d.UserByLogin(args[7])
	if !ok {
		return "", nil, 0, 0, 0, false, "", mrerr.MrUser
	}
	owner = u.UsersID
	l, ok := d.ListByName(args[8])
	if !ok {
		return "", nil, 0, 0, 0, false, "", mrerr.MrList
	}
	owners = l.ListID
	create, cerr := parseBool(args[9])
	if cerr != nil {
		return "", nil, 0, 0, 0, false, "", cerr
	}
	lockertype = args[10]
	if !d.IsValidType("lockertype", lockertype) {
		return "", nil, 0, 0, 0, false, "", mrerr.MrType
	}
	return fstype, mach, physID, owner, owners, create, lockertype, nil
}

func init() {
	register(&Query{
		Name: "get_filesys_by_label", Short: "gfsl", Kind: Retrieve,
		Args:    []string{"name"},
		Returns: filesysReturns,
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			var tuples [][]string
			if !wildcard.HasWildcards(args[0]) {
				// An exact label probes the label index; only a pattern
				// has to look at every row.
				for _, f := range d.FilesysByLabel(args[0]) {
					tuples = append(tuples, filesysTuple(d, f))
				}
			} else {
				d.NoteScan()
				d.EachFilesys(func(f *db.Filesys) bool {
					if wildcard.Match(args[0], f.Label) {
						tuples = append(tuples, filesysTuple(d, f))
					}
					return true
				})
			}
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "get_filesys_by_machine", Short: "gfsm", Kind: Retrieve,
		Args:    []string{"machine"},
		Returns: filesysReturns,
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			var tuples [][]string
			d.EachFilesys(func(f *db.Filesys) bool {
				if f.MachID == m.MachID {
					tuples = append(tuples, filesysTuple(d, f))
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
		Name: "get_filesys_by_nfsphys", Short: "gfsn", Kind: Retrieve,
		Args:    []string{"machine", "partition"},
		Returns: filesysReturns,
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			p, ok := d.NFSPhysByMachDir(m.MachID, args[1])
			if !ok {
				return mrerr.MrNoMatch
			}
			var tuples [][]string
			d.EachFilesys(func(f *db.Filesys) bool {
				if f.Type == db.FSTypeNFS && f.PhysID == p.NFSPhysID {
					tuples = append(tuples, filesysTuple(d, f))
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
		Name: "get_filesys_by_group", Short: "gfsg", Kind: Retrieve,
		Args:    []string{"list"},
		Returns: filesysReturns,
		Access: func(cx *Context, args []string) error {
			if cx.onACL("get_filesys_by_group") {
				return nil
			}
			l, ok := cx.DB.ListByName(args[0])
			if !ok {
				return mrerr.MrList
			}
			if cx.UserID != 0 && acl.IsUserInList(cx.DB, l.ListID, cx.UserID) {
				return nil
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			l, ok := d.ListByName(args[0])
			if !ok {
				return mrerr.MrList
			}
			var tuples [][]string
			d.EachFilesys(func(f *db.Filesys) bool {
				if f.Owners == l.ListID {
					tuples = append(tuples, filesysTuple(d, f))
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
		Name: "add_filesys", Short: "afil", Kind: Append,
		Args: []string{"name", "fstype", "machine", "packname", "mountpoint",
			"access", "comments", "owner", "owners", "create", "lockertype"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			if err := checkNameChars(args[0]); err != nil {
				return err
			}
			if len(d.FilesysByLabel(args[0])) > 0 {
				return mrerr.MrFilesysExists
			}
			fstype, mach, physID, owner, owners, create, lockertype, err := validateFilesysArgs(d, args)
			if err != nil {
				return err
			}
			id, err := d.AllocID("filsys_id")
			if err != nil {
				return err
			}
			return d.InsertFilesys(&db.Filesys{
				FilsysID: id, Label: args[0], PhysID: physID, Type: fstype,
				MachID: mach.MachID, Name: args[3], Mount: args[4], Access: args[5],
				Comments: args[6], Owner: owner, Owners: owners,
				CreateFlg: create, LockerType: lockertype, Mod: cx.modInfo(),
			})
		},
	})

	register(&Query{
		Name: "update_filesys", Short: "ufil", Kind: Update,
		Args: []string{"name", "newname", "fstype", "machine", "packname",
			"mountpoint", "access", "comments", "owner", "owners", "create", "lockertype"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			f, err := oneFilesys(d, args[0])
			if err != nil {
				return err
			}
			newname := args[1]
			if err := checkNameChars(newname); err != nil {
				return err
			}
			if newname != f.Label && len(d.FilesysByLabel(newname)) > 0 {
				return mrerr.MrNotUnique
			}
			fstype, mach, physID, owner, owners, create, lockertype, err := validateFilesysArgs(d, args[1:])
			if err != nil {
				return err
			}
			d.SetFilesysLabel(f, newname)
			f.Type, f.MachID, f.PhysID = fstype, mach.MachID, physID
			f.Name, f.Mount, f.Access = args[4], args[5], args[6]
			f.Comments = args[7]
			f.Owner, f.Owners = owner, owners
			f.CreateFlg, f.LockerType = create, lockertype
			f.Mod = cx.modInfo()
			d.NoteUpdate(f)
			return nil
		},
	})

	register(&Query{
		Name: "delete_filesys", Short: "dfil", Kind: Delete,
		Args: []string{"name"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			f, err := oneFilesys(d, args[0])
			if err != nil {
				return err
			}
			// Drop quotas on the filesystem and return their allocation.
			var drop []*db.NFSQuota
			d.EachQuota(func(q *db.NFSQuota) bool {
				if q.FilsysID == f.FilsysID {
					drop = append(drop, q)
				}
				return true
			})
			for _, q := range drop {
				if p, ok := d.NFSPhysByID(q.PhysID); ok {
					p.Allocated -= q.Quota
					d.NoteUpdate(p)
				}
				if err := d.DeleteQuota(q.UsersID, q.FilsysID); err != nil {
					return mrerr.MrInternal
				}
			}
			d.DeleteFilesys(f)
			return nil
		},
	})

	register(&Query{
		Name: "get_all_nfsphys", Short: "ganf", Kind: Retrieve,
		Returns: []string{"machine", "dir", "device", "status", "allocated", "size",
			"modtime", "modby", "modwith"},
		Access: accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			var tuples [][]string
			d.EachNFSPhys(func(p *db.NFSPhys) bool {
				mname := "???"
				if m, ok := d.MachineByID(p.MachID); ok {
					mname = m.Name
				}
				tuples = append(tuples, []string{
					mname, p.Dir, p.Device, i2s(p.Status), i2s(p.Allocated),
					i2s(p.Size), i642s(p.Mod.Time), p.Mod.By, p.Mod.With,
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
		Name: "get_nfsphys", Short: "gnfp", Kind: Retrieve,
		Args: []string{"machine", "dir"},
		Returns: []string{"machine", "dir", "device", "status", "allocated", "size",
			"modtime", "modby", "modwith"},
		Access: accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			var tuples [][]string
			d.EachNFSPhys(func(p *db.NFSPhys) bool {
				if p.MachID == m.MachID && wildcard.Match(args[1], p.Dir) {
					tuples = append(tuples, []string{
						m.Name, p.Dir, p.Device, i2s(p.Status), i2s(p.Allocated),
						i2s(p.Size), i642s(p.Mod.Time), p.Mod.By, p.Mod.With,
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
		Name: "add_nfsphys", Short: "anfp", Kind: Append,
		Args: []string{"machine", "dir", "device", "status", "allocated", "size"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			status, err := parseInt(args[3])
			if err != nil {
				return err
			}
			allocated, err := parseInt(args[4])
			if err != nil {
				return err
			}
			size, err := parseInt(args[5])
			if err != nil {
				return err
			}
			id, err := d.AllocID("nfsphys_id")
			if err != nil {
				return err
			}
			return d.InsertNFSPhys(&db.NFSPhys{
				NFSPhysID: id, MachID: m.MachID, Dir: args[1], Device: args[2],
				Status: status, Allocated: allocated, Size: size, Mod: cx.modInfo(),
			})
		},
	})

	register(&Query{
		Name: "update_nfsphys", Short: "unfp", Kind: Update,
		Args: []string{"machine", "dir", "device", "status", "allocated", "size"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			p, ok := d.NFSPhysByMachDir(m.MachID, args[1])
			if !ok {
				return mrerr.MrNFSPhys
			}
			status, err := parseInt(args[3])
			if err != nil {
				return err
			}
			allocated, err := parseInt(args[4])
			if err != nil {
				return err
			}
			size, err := parseInt(args[5])
			if err != nil {
				return err
			}
			p.Device = args[2]
			p.Status, p.Allocated, p.Size = status, allocated, size
			p.Mod = cx.modInfo()
			d.NoteUpdate(p)
			return nil
		},
	})

	register(&Query{
		Name: "adjust_nfsphys_allocation", Short: "ajnf", Kind: Update,
		Args: []string{"machine", "dir", "delta"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			p, ok := d.NFSPhysByMachDir(m.MachID, args[1])
			if !ok {
				return mrerr.MrNFSPhys
			}
			delta, err := parseInt(args[2])
			if err != nil {
				return err
			}
			p.Allocated += delta
			p.Mod = cx.modInfo()
			d.NoteUpdate(p)
			return nil
		},
	})

	register(&Query{
		Name: "delete_nfsphys", Short: "dnfp", Kind: Delete,
		Args: []string{"machine", "dir"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			p, ok := d.NFSPhysByMachDir(m.MachID, args[1])
			if !ok {
				return mrerr.MrNFSPhys
			}
			inUse := false
			d.EachFilesys(func(f *db.Filesys) bool {
				if f.Type == db.FSTypeNFS && f.PhysID == p.NFSPhysID {
					inUse = true
					return false
				}
				return true
			})
			if inUse {
				return mrerr.MrInUse
			}
			d.DeleteNFSPhys(p)
			return nil
		},
	})

	register(&Query{
		Name: "get_nfs_quota", Short: "gnfq", Kind: Retrieve,
		Args: []string{"filesys", "login"},
		Returns: []string{"filesys", "login", "quota", "directory", "machine",
			"modtime", "modby", "modwith"},
		Access: func(cx *Context, args []string) error {
			if cx.onACL("get_nfs_quota") {
				return nil
			}
			// The owner of the target filesystem, or the user themselves.
			if cx.Principal != "" && args[1] == cx.Principal {
				return nil
			}
			if !wildcard.HasWildcards(args[0]) {
				if f, err := oneFilesys(cx.DB, args[0]); err == nil {
					if cx.UserID != 0 && (f.Owner == cx.UserID ||
						acl.IsUserInList(cx.DB, f.Owners, cx.UserID)) {
						return nil
					}
				}
			}
			return mrerr.MrPerm
		},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			u, err := oneUser(d, args[1])
			if err != nil {
				return mrerr.MrUser
			}
			var tuples [][]string
			d.EachQuota(func(q *db.NFSQuota) bool {
				if q.UsersID != u.UsersID {
					return true
				}
				f, ok := d.FilesysByID(q.FilsysID)
				if !ok || !wildcard.Match(args[0], f.Label) {
					return true
				}
				dir, mname := "", "???"
				if p, ok := d.NFSPhysByID(q.PhysID); ok {
					dir = p.Dir
					if m, ok := d.MachineByID(p.MachID); ok {
						mname = m.Name
					}
				}
				tuples = append(tuples, []string{
					f.Label, u.Login, i2s(q.Quota), dir, mname,
					i642s(q.Mod.Time), q.Mod.By, q.Mod.With,
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
		Name: "get_nfs_quotas_by_partition", Short: "gnqp", Kind: Retrieve,
		Args:    []string{"machine", "directory"},
		Returns: []string{"filesys", "login", "quota", "directory", "machine"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			m, err := oneMachine(d, args[0])
			if err != nil {
				return mrerr.MrMachine
			}
			var tuples [][]string
			d.EachQuota(func(q *db.NFSQuota) bool {
				p, ok := d.NFSPhysByID(q.PhysID)
				if !ok || p.MachID != m.MachID || !wildcard.Match(args[1], p.Dir) {
					return true
				}
				f, fok := d.FilesysByID(q.FilsysID)
				u, uok := d.UserByID(q.UsersID)
				if !fok || !uok {
					return true
				}
				tuples = append(tuples, []string{f.Label, u.Login, i2s(q.Quota), p.Dir, m.Name})
				return true
			})
			if len(tuples) == 0 {
				return mrerr.MrNoMatch
			}
			return emitSorted(tuples, emit)
		},
	})

	register(&Query{
		Name: "add_nfs_quota", Short: "anfq", Kind: Append,
		Args: []string{"filesys", "login", "quota"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			f, err := oneFilesys(d, args[0])
			if err != nil {
				return err
			}
			u, err := oneUser(d, args[1])
			if err != nil {
				return mrerr.MrUser
			}
			quota, err := parseInt(args[2])
			if err != nil {
				return err
			}
			if quota < 0 {
				return mrerr.MrInteger
			}
			if err := d.InsertQuota(&db.NFSQuota{
				UsersID: u.UsersID, FilsysID: f.FilsysID, PhysID: f.PhysID,
				Quota: quota, Mod: cx.modInfo(),
			}); err != nil {
				return err
			}
			if p, ok := d.NFSPhysByID(f.PhysID); ok {
				p.Allocated += quota
				d.NoteUpdate(p)
			}
			return nil
		},
	})

	register(&Query{
		Name: "update_nfs_quota", Short: "unfq", Kind: Update,
		Args: []string{"filesys", "login", "quota"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			f, err := oneFilesys(d, args[0])
			if err != nil {
				return err
			}
			u, err := oneUser(d, args[1])
			if err != nil {
				return mrerr.MrUser
			}
			quota, err := parseInt(args[2])
			if err != nil {
				return err
			}
			if quota < 0 {
				return mrerr.MrInteger
			}
			q, ok := d.QuotaOf(u.UsersID, f.FilsysID)
			if !ok {
				return mrerr.MrNoMatch
			}
			if p, ok := d.NFSPhysByID(q.PhysID); ok {
				p.Allocated += quota - q.Quota
				d.NoteUpdate(p)
			}
			q.Quota = quota
			q.Mod = cx.modInfo()
			d.NoteUpdate(q)
			return nil
		},
	})

	register(&Query{
		Name: "delete_nfs_quota", Short: "dnfq", Kind: Delete,
		Args: []string{"filesys", "login"},
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			d := cx.DB
			f, err := oneFilesys(d, args[0])
			if err != nil {
				return err
			}
			u, err := oneUser(d, args[1])
			if err != nil {
				return mrerr.MrUser
			}
			q, ok := d.QuotaOf(u.UsersID, f.FilsysID)
			if !ok {
				return mrerr.MrNoMatch
			}
			if p, ok := d.NFSPhysByID(q.PhysID); ok {
				p.Allocated -= q.Quota
				d.NoteUpdate(p)
			}
			return d.DeleteQuota(u.UsersID, f.FilsysID)
		},
	})
}
