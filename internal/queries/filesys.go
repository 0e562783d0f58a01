package queries

// Queries over filesystems, NFS physical partitions, and quotas
// (section 7.0.5).

import (
	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/wildcard"
)

var (
	filesysRow = Columns("name fstype machine packname mountpoint access comments owner owners create:bool lockertype modtime:time modby modwith")
	nfsphysRow = Columns("machine dir device status:int allocated:int size:int modtime:time modby modwith")
)

// filesys adds f's row.
func (r *Req) filesys(f *db.Filesys) {
	d, mname := r.DB, "???"
	if m, ok := db.Machines.ByID(d, f.MachID); ok {
		mname = m.Name
	}
	r.Row(txt(f.Label), txt(f.Type), txt(mname), txt(f.Name), txt(f.Mount), txt(f.Access), txt(f.Comments),
		txt(acl.NameOfACE(d, db.ACEUser, f.Owner)), txt(acl.NameOfACE(d, db.ACEList, f.Owners)),
		bit(f.CreateFlg), txt(f.LockerType), dec(f.Mod.Time), txt(f.Mod.By), txt(f.Mod.With))
}

// filesystems adds every filesystem keep accepts.
func (r *Req) filesystems(keep func(f *db.Filesys) bool) {
	db.Filesystems.Each(r.DB, func(f *db.Filesys) bool {
		if keep(f) {
			r.filesys(f)
		}
		return true
	})
}

func (r *Req) nfsphys(p *db.NFSPhys, mname string) {
	r.Row(txt(mname), txt(p.Dir), txt(p.Device), dec(p.Status), dec(p.Allocated), dec(p.Size),
		dec(p.Mod.Time), txt(p.Mod.By), txt(p.Mod.With))
}

// filesysArgs is add_filesys's and update_filesys's argument block
// after the name: the NFS packname is resolved against the machine's
// exported partitions.
var filesysArgs = []Arg{
	typed("fstype", "filesys", mrerr.MrFSType), machineArg("machine", mrerr.MrMachine),
	{Name: "packname", Kind: aPack}, arg("mountpoint"), arg("access"), arg("comments"),
	exact("owner", db.Users, mrerr.MrUser), exact("owners", db.Lists, mrerr.MrList),
	flag("create"), typed("lockertype", "lockertype", mrerr.MrType),
}

// nfsPack resolves an NFS filesystem's packname (argument i) to the
// exported partition holding it: an exact partition or a directory
// beneath one. The filesystem type, machine and access mode are
// arguments i-2, i-1 and i+2.
func nfsPack(r *Req, i int) error {
	if r.s[i-2] != db.FSTypeNFS {
		return nil
	}
	d, mach, pack := r.DB, obj[db.Machine](r, i-1).MachID, r.s[i]
	p, ok := partitionAt(d, mach, pack)
	if !ok {
		db.Partitions.Each(d, func(q *db.NFSPhys) bool {
			if q.MachID == mach && len(pack) > len(q.Dir) &&
				pack[:len(q.Dir)] == q.Dir && pack[len(q.Dir)] == '/' {
				p, ok = q, true
				return false
			}
			return true
		})
	}
	if !ok {
		return mrerr.MrNFS
	}
	r.n[i] = p.NFSPhysID
	if access := r.Args[i+2]; access != "r" && access != "w" {
		return mrerr.MrFilesysAccess
	}
	return nil
}

// partitionAt finds the partition exporting dir on the machine: a scan.
func partitionAt(d *db.DB, machID int, dir string) (*db.NFSPhys, bool) {
	return db.Partitions.First(d, func(p *db.NFSPhys) bool { return p.MachID == machID && p.Dir == dir })
}

// partition is a partition directory on the machine in argument 0.
func partition(name string, err error) Arg { return Arg{Name: name, Kind: aPhys, Err: err} }

func init() {
	machine := machineArg("machine", mrerr.MrMachine)
	fsys, login := one("filesys", db.Filesystems, nil), one("login", db.Users, mrerr.MrUser)
	quotaArgs := []Arg{fsys, login, {Name: "quota", Kind: aNonNeg}}
	register([]Query{
		{Name: "get_filesys_by_label", Short: "gfsl", In: []Arg{arg("name")}, Rows: filesysRow, Access: Anyone,
			Do: func(r *Req) error {
				// An exact label probes the label index, a pattern walks
				// its range.
				db.Filesystems.Match(r.DB, r.s[0], func(f *db.Filesys) bool {
					r.filesys(f)
					return true
				})
				return nil
			}},
		{Name: "get_filesys_by_machine", Short: "gfsm", In: []Arg{machine}, Rows: filesysRow, Access: Anyone,
			Do: func(r *Req) error {
				r.filesystems(func(f *db.Filesys) bool { return f.MachID == obj[db.Machine](r, 0).MachID })
				return nil
			}},
		{Name: "get_filesys_by_nfsphys", Short: "gfsn", In: []Arg{machine, partition("partition", mrerr.MrNoMatch)},
			Rows: filesysRow, Access: Anyone,
			Do: func(r *Req) error {
				r.filesystems(func(f *db.Filesys) bool {
					return f.Type == db.FSTypeNFS && f.PhysID == obj[db.NFSPhys](r, 1).NFSPhysID
				})
				return nil
			}},
		{Name: "get_filesys_by_group", Short: "gfsg", In: []Arg{exact("list", db.Lists, mrerr.MrList)},
			Rows: filesysRow, Access: custom(gfsgAccess),
			Do: func(r *Req) error {
				r.filesystems(func(f *db.Filesys) bool { return f.Owners == obj[db.List](r, 0).ListID })
				return nil
			}},
		{Name: "add_filesys", Short: "afil", Kind: Append,
			In: append([]Arg{fresh("name", db.Filesystems, mrerr.MrFilesysExists)}, filesysArgs...),
			Do: func(r *Req) error {
				id, err := r.DB.AllocID("filsys_id")
				if err != nil {
					return err
				}
				return db.Filesystems.Insert(r.DB, &db.Filesys{
					FilsysID: id, Label: r.s[0], PhysID: r.n[3], Type: r.s[1],
					MachID: obj[db.Machine](r, 2).MachID, Name: r.s[3], Mount: r.s[4], Access: r.s[5],
					Comments: r.s[6], Owner: obj[db.User](r, 7).UsersID, Owners: obj[db.List](r, 8).ListID,
					CreateFlg: r.flag(9), LockerType: r.s[10], Mod: r.modInfo(),
				})
			}},
		{Name: "update_filesys", Short: "ufil", Kind: Update,
			In: append([]Arg{one("name", db.Filesystems, nil), rename("newname", db.Filesystems)}, filesysArgs...),
			Do: func(r *Req) error {
				f := db.Edit(r.DB, db.Filesystems, obj[db.Filesys](r, 0))
				db.SetKey(r.DB, db.Filesystems, f, &f.Label, r.s[1])
				f.Type, f.MachID, f.PhysID = r.s[2], obj[db.Machine](r, 3).MachID, r.n[4]
				f.Name, f.Mount, f.Access, f.Comments = r.s[4], r.s[5], r.s[6], r.s[7]
				f.Owner, f.Owners = obj[db.User](r, 8).UsersID, obj[db.List](r, 9).ListID
				f.CreateFlg, f.LockerType = r.flag(10), r.s[11]
				f.Mod = r.modInfo()
				r.DB.NoteUpdate(f)
				return nil
			}},
		{Name: "delete_filesys", Short: "dfil", Kind: Delete, In: []Arg{one("name", db.Filesystems, nil)},
			Do: func(r *Req) error {
				d, f := r.DB, obj[db.Filesys](r, 0)
				// Drop quotas on the filesystem and return their allocation.
				var drop []*db.NFSQuota
				db.QuotasByFilesys.Each(d, f.FilsysID, func(q *db.NFSQuota) bool {
					drop = append(drop, q)
					return true
				})
				for _, q := range drop {
					if p, ok := db.Partitions.ByID(d, q.PhysID); ok {
						p = db.Edit(d, db.Partitions, p)
						p.Allocated -= q.Quota
						d.NoteUpdate(p)
					}
					db.Quotas.Delete(d, q)
				}
				db.Filesystems.Delete(d, f)
				return nil
			}},
		{Name: "get_all_nfsphys", Short: "ganf", Rows: nfsphysRow, Access: Anyone,
			Do: func(r *Req) error {
				db.Partitions.Each(r.DB, func(p *db.NFSPhys) bool {
					mname := "???"
					if m, ok := db.Machines.ByID(r.DB, p.MachID); ok {
						mname = m.Name
					}
					r.nfsphys(p, mname)
					return true
				})
				return nil
			}},
		{Name: "get_nfsphys", Short: "gnfp", In: []Arg{machine, arg("dir")}, Rows: nfsphysRow, Access: Anyone,
			Do: func(r *Req) error {
				m := obj[db.Machine](r, 0)
				db.Partitions.Each(r.DB, func(p *db.NFSPhys) bool {
					if p.MachID == m.MachID && wildcard.Match(r.s[1], p.Dir) {
						r.nfsphys(p, m.Name)
					}
					return true
				})
				return nil
			}},
		{Name: "add_nfsphys", Short: "anfp", Kind: Append,
			In: []Arg{machine, arg("dir"), arg("device"), num("status"), num("allocated"), num("size")},
			Do: func(r *Req) error {
				id, err := r.DB.AllocID("nfsphys_id")
				if err != nil {
					return err
				}
				return db.Partitions.Insert(r.DB, &db.NFSPhys{
					NFSPhysID: id, MachID: obj[db.Machine](r, 0).MachID, Dir: r.s[1], Device: r.s[2],
					Status: r.n[3], Allocated: r.n[4], Size: r.n[5], Mod: r.modInfo(),
				})
			}},
		{Name: "update_nfsphys", Short: "unfp", Kind: Update,
			In: []Arg{machine, partition("dir", mrerr.MrNFSPhys), arg("device"), num("status"), num("allocated"), num("size")},
			Do: func(r *Req) error {
				p := db.Edit(r.DB, db.Partitions, obj[db.NFSPhys](r, 1))
				p.Device, p.Status, p.Allocated, p.Size = r.s[2], r.n[3], r.n[4], r.n[5]
				p.Mod = r.modInfo()
				r.DB.NoteUpdate(p)
				return nil
			}},
		{Name: "adjust_nfsphys_allocation", Short: "ajnf", Kind: Update,
			In: []Arg{machine, partition("dir", mrerr.MrNFSPhys), num("delta")},
			Do: func(r *Req) error {
				p := db.Edit(r.DB, db.Partitions, obj[db.NFSPhys](r, 1))
				p.Allocated += r.n[2]
				p.Mod = r.modInfo()
				r.DB.NoteUpdate(p)
				return nil
			}},
		{Name: "delete_nfsphys", Short: "dnfp", Kind: Delete, In: []Arg{machine, partition("dir", mrerr.MrNFSPhys)},
			Do: func(r *Req) error {
				p, inUse := obj[db.NFSPhys](r, 1), false
				db.Filesystems.Each(r.DB, func(f *db.Filesys) bool {
					inUse = f.Type == db.FSTypeNFS && f.PhysID == p.NFSPhysID
					return !inUse
				})
				if inUse {
					return mrerr.MrInUse
				}
				db.Partitions.Delete(r.DB, p)
				return nil
			}},
		{Name: "get_nfs_quota", Short: "gnfq", In: []Arg{arg("filesys"), login},
			Rows:   Columns("filesys login quota:int directory machine modtime:time modby modwith"),
			Access: custom(gnfqAccess),
			Do: func(r *Req) error {
				d, u := r.DB, obj[db.User](r, 1)
				db.Quotas.Each(d, func(q *db.NFSQuota) bool {
					f, ok := db.Filesystems.ByID(d, q.FilsysID)
					if q.UsersID != u.UsersID || !ok || !wildcard.Match(r.s[0], f.Label) {
						return true
					}
					dir, mname := "", "???"
					if p, ok := db.Partitions.ByID(d, q.PhysID); ok {
						dir = p.Dir
						if m, ok := db.Machines.ByID(d, p.MachID); ok {
							mname = m.Name
						}
					}
					r.Row(txt(f.Label), txt(u.Login), dec(q.Quota), txt(dir), txt(mname), dec(q.Mod.Time), txt(q.Mod.By), txt(q.Mod.With))
					return true
				})
				return nil
			}},
		{Name: "get_nfs_quotas_by_partition", Short: "gnqp", In: []Arg{machine, arg("directory")},
			Rows: Columns("filesys login quota:int directory machine"), Access: Anyone,
			Do: func(r *Req) error {
				d, m := r.DB, obj[db.Machine](r, 0)
				db.Quotas.Each(d, func(q *db.NFSQuota) bool {
					p, ok := db.Partitions.ByID(d, q.PhysID)
					if !ok || p.MachID != m.MachID || !wildcard.Match(r.s[1], p.Dir) {
						return true
					}
					f, fok := db.Filesystems.ByID(d, q.FilsysID)
					u, uok := db.Users.ByID(d, q.UsersID)
					if fok && uok {
						r.Row(txt(f.Label), txt(u.Login), dec(q.Quota), txt(p.Dir), txt(m.Name))
					}
					return true
				})
				return nil
			}},
		{Name: "add_nfs_quota", Short: "anfq", Kind: Append, In: quotaArgs,
			Do: func(r *Req) error {
				f, quota := obj[db.Filesys](r, 0), r.n[2]
				if err := db.Quotas.Insert(r.DB, &db.NFSQuota{
					UsersID: obj[db.User](r, 1).UsersID, FilsysID: f.FilsysID, PhysID: f.PhysID,
					Quota: quota, Mod: r.modInfo(),
				}); err != nil {
					return err
				}
				if p, ok := db.Partitions.ByID(r.DB, f.PhysID); ok {
					p = db.Edit(r.DB, db.Partitions, p)
					p.Allocated += quota
					r.DB.NoteUpdate(p)
				}
				return nil
			}},
		{Name: "update_nfs_quota", Short: "unfq", Kind: Update, In: quotaArgs,
			Do: func(r *Req) error {
				u := obj[db.User](r, 1)
				q, ok := db.QuotasByFilesys.Find(r.DB, obj[db.Filesys](r, 0).FilsysID, func(q *db.NFSQuota) bool { return q.UsersID == u.UsersID })
				if !ok {
					return mrerr.MrNoMatch
				}
				if p, ok := db.Partitions.ByID(r.DB, q.PhysID); ok {
					p = db.Edit(r.DB, db.Partitions, p)
					p.Allocated += r.n[2] - q.Quota
					r.DB.NoteUpdate(p)
				}
				q = db.Edit(r.DB, db.Quotas, q)
				q.Quota, q.Mod = r.n[2], r.modInfo()
				r.DB.NoteUpdate(q)
				return nil
			}},
		{Name: "delete_nfs_quota", Short: "dnfq", Kind: Delete, In: []Arg{fsys, login},
			Do: func(r *Req) error {
				u, f := obj[db.User](r, 1), obj[db.Filesys](r, 0)
				q, ok := db.QuotasByFilesys.Find(r.DB, f.FilsysID, func(q *db.NFSQuota) bool { return q.UsersID == u.UsersID })
				if !ok {
					return mrerr.MrNoMatch
				}
				if p, ok := db.Partitions.ByID(r.DB, q.PhysID); ok {
					p = db.Edit(r.DB, db.Partitions, p)
					p.Allocated -= q.Quota
					r.DB.NoteUpdate(p)
				}
				db.Quotas.Delete(r.DB, q)
				return nil
			}},
	})
}

// gfsgAccess is get_filesys_by_group's rule: the query ACL or a member
// of the group.
func gfsgAccess(r *Req) error {
	if r.onACL(r.q.Name) {
		return nil
	}
	l, ok := r.DB.ListByName(r.Args[0])
	if !ok {
		return mrerr.MrList
	}
	if r.UserID != 0 && acl.IsUserInList(r.DB, l.ListID, r.UserID) {
		return nil
	}
	return mrerr.MrPerm
}

// gnfqAccess is get_nfs_quota's rule: the query ACL, the user asking
// about themselves, or an owner of the (exactly named) filesystem.
func gnfqAccess(r *Req) error {
	if r.onACL(r.q.Name) || (r.Principal != "" && r.Args[1] == r.Principal) {
		return nil
	}
	if !wildcard.HasWildcards(r.Args[0]) {
		if o, n := db.Filesystems.Resolve(r.DB, r.Args[0], false); n == 1 {
			f := o.(*db.Filesys)
			if r.UserID != 0 && (f.Owner == r.UserID || acl.IsUserInList(r.DB, f.Owners, r.UserID)) {
				return nil
			}
		}
	}
	return mrerr.MrPerm
}
