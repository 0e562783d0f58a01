package db

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"moira/internal/clock"
)

// mrbackup / mrrestore: dump every relation to a colon-escaped ASCII file
// and rebuild a database from such a dump. The dump is the designated
// disaster-recovery mechanism (section 5.2.2) because the binary database
// can corrupt silently; the ASCII files cannot.

// tableIO describes how to dump and load one relation.
type tableIO struct {
	name string
	dump func(d *DB) [][]string
	load func(d *DB, fields []string) error
}

func b2s(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func s2b(s string) bool { return s != "0" && s != "" }

func i2s(i int) string { return strconv.Itoa(i) }

func i642s(i int64) string { return strconv.FormatInt(i, 10) }

func modFields(m ModInfo) []string { return []string{i642s(m.Time), m.By, m.With} }

type fieldReader struct {
	fields []string
	i      int
	err    error
}

func (r *fieldReader) str() string {
	if r.err != nil {
		return ""
	}
	if r.i >= len(r.fields) {
		r.err = fmt.Errorf("db: row too short (%d fields)", len(r.fields))
		return ""
	}
	s := r.fields[r.i]
	r.i++
	return s
}

func (r *fieldReader) int() int {
	s := r.str()
	if r.err != nil {
		return 0
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		r.err = fmt.Errorf("db: bad integer %q", s)
	}
	return v
}

func (r *fieldReader) int64() int64 {
	s := r.str()
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		r.err = fmt.Errorf("db: bad integer %q", s)
	}
	return v
}

func (r *fieldReader) bool() bool { return s2b(r.str()) }

func (r *fieldReader) mod() ModInfo {
	return ModInfo{Time: r.int64(), By: r.str(), With: r.str()}
}

func (r *fieldReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.i != len(r.fields) {
		return fmt.Errorf("db: row too long: %d fields, consumed %d", len(r.fields), r.i)
	}
	return nil
}

var tableIOs = []tableIO{
	{
		name: TUsers,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachUser(func(u *User) bool {
				row := []string{
					i2s(u.UsersID), u.Login, i2s(u.UID), u.Shell, u.Last, u.First,
					u.Middle, i2s(u.Status), u.MITID, u.MITYear,
				}
				row = append(row, modFields(u.Mod)...)
				row = append(row, u.Fullname, u.Nickname, u.HomeAddr, u.HomePhone,
					u.OfficeAddr, u.OfficePhone, u.MITDept, u.MITAffil)
				row = append(row, modFields(u.FMod)...)
				row = append(row, u.PoType, i2s(u.PopID), i2s(u.BoxID))
				row = append(row, modFields(u.PMod)...)
				rows = append(rows, row)
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			u := &User{
				UsersID: r.int(), Login: r.str(), UID: r.int(), Shell: r.str(),
				Last: r.str(), First: r.str(), Middle: r.str(), Status: r.int(),
				MITID: r.str(), MITYear: r.str(), Mod: r.mod(),
				Fullname: r.str(), Nickname: r.str(), HomeAddr: r.str(),
				HomePhone: r.str(), OfficeAddr: r.str(), OfficePhone: r.str(),
				MITDept: r.str(), MITAffil: r.str(), FMod: r.mod(),
				PoType: r.str(), PopID: r.int(), BoxID: r.int(), PMod: r.mod(),
			}
			if err := r.done(); err != nil {
				return err
			}
			return loadRow(d, &d.users, u.UsersID, u)
		},
	},
	{
		name: TMachine,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachMachine(func(m *Machine) bool {
				rows = append(rows, append([]string{i2s(m.MachID), m.Name, m.Type}, modFields(m.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			m := &Machine{MachID: r.int(), Name: r.str(), Type: r.str(), Mod: r.mod()}
			if err := r.done(); err != nil {
				return err
			}
			return loadRow(d, &d.machines, m.MachID, m)
		},
	},
	{
		name: TCluster,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachCluster(func(c *Cluster) bool {
				rows = append(rows, append([]string{i2s(c.CluID), c.Name, c.Desc, c.Location}, modFields(c.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			c := &Cluster{CluID: r.int(), Name: r.str(), Desc: r.str(), Location: r.str(), Mod: r.mod()}
			if err := r.done(); err != nil {
				return err
			}
			return loadRow(d, &d.clusters, c.CluID, c)
		},
	},
	{
		name: TMCMap,
		dump: func(d *DB) [][]string {
			var rows [][]string
			for _, m := range d.mcmap {
				rows = append(rows, []string{i2s(m.MachID), i2s(m.CluID)})
			}
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			m := MCMap{MachID: r.int(), CluID: r.int()}
			if err := r.done(); err != nil {
				return err
			}
			d.mcmap = append(d.mcmap, m)
			return nil
		},
	},
	{
		name: TSvc,
		dump: func(d *DB) [][]string {
			var rows [][]string
			for _, s := range d.svc {
				rows = append(rows, []string{i2s(s.CluID), s.ServLabel, s.ServCluster})
			}
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			s := SvcData{CluID: r.int(), ServLabel: r.str(), ServCluster: r.str()}
			if err := r.done(); err != nil {
				return err
			}
			d.svc = append(d.svc, s)
			return nil
		},
	},
	{
		name: TList,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachList(func(l *List) bool {
				row := []string{
					i2s(l.ListID), l.Name, b2s(l.Active), b2s(l.Public), b2s(l.Hidden),
					b2s(l.Maillist), b2s(l.Group), i2s(l.GID), l.Desc, l.ACLType, i2s(l.ACLID),
				}
				rows = append(rows, append(row, modFields(l.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			l := &List{
				ListID: r.int(), Name: r.str(), Active: r.bool(), Public: r.bool(),
				Hidden: r.bool(), Maillist: r.bool(), Group: r.bool(), GID: r.int(),
				Desc: r.str(), ACLType: r.str(), ACLID: r.int(), Mod: r.mod(),
			}
			if err := r.done(); err != nil {
				return err
			}
			return loadRow(d, &d.lists, l.ListID, l)
		},
	},
	{
		name: TMembers,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachMembership(func(m Member) bool {
				rows = append(rows, []string{i2s(m.ListID), m.MemberType, i2s(m.MemberID)})
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			m := Member{ListID: r.int(), MemberType: r.str(), MemberID: r.int()}
			if err := r.done(); err != nil {
				return err
			}
			d.members[m.ListID] = append(d.members[m.ListID], m)
			return nil
		},
	},
	{
		name: TServers,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachServer(func(s *Server) bool {
				row := []string{
					s.Name, i2s(s.UpdateInt), s.TargetFile, s.Script,
					i642s(s.DFGen), i642s(s.DFCheck), s.Type, b2s(s.Enable),
					b2s(s.InProgress), i2s(s.HardError), s.ErrMsg, s.ACLType, i2s(s.ACLID),
				}
				rows = append(rows, append(row, modFields(s.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			s := &Server{
				Name: r.str(), UpdateInt: r.int(), TargetFile: r.str(), Script: r.str(),
				DFGen: r.int64(), DFCheck: r.int64(), Type: r.str(), Enable: r.bool(),
				InProgress: r.bool(), HardError: r.int(), ErrMsg: r.str(),
				ACLType: r.str(), ACLID: r.int(), Mod: r.mod(),
			}
			if err := r.done(); err != nil {
				return err
			}
			d.servers[s.Name] = s
			return nil
		},
	},
	{
		name: TServerHosts,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachServerHost(func(sh *ServerHost) bool {
				row := []string{
					sh.Service, i2s(sh.MachID), b2s(sh.Enable), b2s(sh.Override),
					b2s(sh.Success), b2s(sh.InProgress), i2s(sh.HostError), sh.HostErrMsg,
					i642s(sh.LastTry), i642s(sh.LastSuccess),
					i2s(sh.Value1), i2s(sh.Value2), sh.Value3,
				}
				rows = append(rows, append(row, modFields(sh.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			sh := &ServerHost{
				Service: r.str(), MachID: r.int(), Enable: r.bool(), Override: r.bool(),
				Success: r.bool(), InProgress: r.bool(), HostError: r.int(),
				HostErrMsg: r.str(), LastTry: r.int64(), LastSuccess: r.int64(),
				Value1: r.int(), Value2: r.int(), Value3: r.str(), Mod: r.mod(),
			}
			if err := r.done(); err != nil {
				return err
			}
			d.serverHosts = append(d.serverHosts, sh)
			return nil
		},
	},
	{
		name: TFilesys,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachFilesys(func(fs *Filesys) bool {
				row := []string{
					i2s(fs.FilsysID), fs.Label, i2s(fs.Order), i2s(fs.PhysID), fs.Type,
					i2s(fs.MachID), fs.Name, fs.Mount, fs.Access, fs.Comments,
					i2s(fs.Owner), i2s(fs.Owners), b2s(fs.CreateFlg), fs.LockerType,
				}
				rows = append(rows, append(row, modFields(fs.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			fs := &Filesys{
				FilsysID: r.int(), Label: r.str(), Order: r.int(), PhysID: r.int(),
				Type: r.str(), MachID: r.int(), Name: r.str(), Mount: r.str(),
				Access: r.str(), Comments: r.str(), Owner: r.int(), Owners: r.int(),
				CreateFlg: r.bool(), LockerType: r.str(), Mod: r.mod(),
			}
			if err := r.done(); err != nil {
				return err
			}
			return loadRow(d, &d.filesys, fs.FilsysID, fs)
		},
	},
	{
		name: TNFSPhys,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachNFSPhys(func(p *NFSPhys) bool {
				row := []string{
					i2s(p.NFSPhysID), i2s(p.MachID), p.Dir, p.Device, i2s(p.Status),
					i2s(p.Allocated), i2s(p.Size),
				}
				rows = append(rows, append(row, modFields(p.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			p := &NFSPhys{
				NFSPhysID: r.int(), MachID: r.int(), Dir: r.str(), Device: r.str(),
				Status: r.int(), Allocated: r.int(), Size: r.int(), Mod: r.mod(),
			}
			if err := r.done(); err != nil {
				return err
			}
			return loadRow(d, &d.nfsphys, p.NFSPhysID, p)
		},
	},
	{
		name: TNFSQuota,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachQuota(func(q *NFSQuota) bool {
				row := []string{i2s(q.UsersID), i2s(q.FilsysID), i2s(q.PhysID), i2s(q.Quota)}
				rows = append(rows, append(row, modFields(q.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			q := &NFSQuota{UsersID: r.int(), FilsysID: r.int(), PhysID: r.int(), Quota: r.int(), Mod: r.mod()}
			if err := r.done(); err != nil {
				return err
			}
			d.nfsquotas = append(d.nfsquotas, q)
			return nil
		},
	},
	{
		name: TZephyr,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachZephyr(func(z *ZephyrClass) bool {
				row := []string{
					z.Class, z.XmtType, i2s(z.XmtID), z.SubType, i2s(z.SubID),
					z.IwsType, i2s(z.IwsID), z.IuiType, i2s(z.IuiID),
				}
				rows = append(rows, append(row, modFields(z.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			z := &ZephyrClass{
				Class: r.str(), XmtType: r.str(), XmtID: r.int(), SubType: r.str(),
				SubID: r.int(), IwsType: r.str(), IwsID: r.int(), IuiType: r.str(),
				IuiID: r.int(), Mod: r.mod(),
			}
			if err := r.done(); err != nil {
				return err
			}
			d.zephyr[z.Class] = z
			return nil
		},
	},
	{
		name: THostAccess,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachHostAccess(func(h *HostAccess) bool {
				row := []string{i2s(h.MachID), h.ACLType, i2s(h.ACLID)}
				rows = append(rows, append(row, modFields(h.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			h := &HostAccess{MachID: r.int(), ACLType: r.str(), ACLID: r.int(), Mod: r.mod()}
			if err := r.done(); err != nil {
				return err
			}
			return loadRow(d, &d.hostaccess, h.MachID, h)
		},
	},
	{
		name: TStrings,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachString(func(s *StringRec) bool {
				rows = append(rows, []string{i2s(s.StringID), s.String})
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			s := &StringRec{StringID: r.int(), String: r.str()}
			if err := r.done(); err != nil {
				return err
			}
			return loadRow(d, &d.strings, s.StringID, s)
		},
	},
	{
		name: TServices,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachService(func(s *Service) bool {
				row := []string{s.Name, s.Protocol, i2s(s.Port), s.Desc}
				rows = append(rows, append(row, modFields(s.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			s := &Service{Name: r.str(), Protocol: r.str(), Port: r.int(), Desc: r.str(), Mod: r.mod()}
			if err := r.done(); err != nil {
				return err
			}
			d.services[s.Name] = s
			return nil
		},
	},
	{
		name: TPrintcap,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachPrintcap(func(p *Printcap) bool {
				row := []string{p.Name, i2s(p.MachID), p.Dir, p.RP, p.Comments}
				rows = append(rows, append(row, modFields(p.Mod)...))
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			p := &Printcap{Name: r.str(), MachID: r.int(), Dir: r.str(), RP: r.str(), Comments: r.str(), Mod: r.mod()}
			if err := r.done(); err != nil {
				return err
			}
			d.printcaps[p.Name] = p
			return nil
		},
	},
	{
		name: TCapACLs,
		dump: func(d *DB) [][]string {
			var rows [][]string
			d.EachCapACL(func(c *CapACL) bool {
				rows = append(rows, []string{c.Capability, c.Tag, i2s(c.ListID)})
				return true
			})
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			c := &CapACL{Capability: r.str(), Tag: r.str(), ListID: r.int()}
			if err := r.done(); err != nil {
				return err
			}
			d.capacls[c.Capability] = c
			return nil
		},
	},
	{
		name: TAlias,
		dump: func(d *DB) [][]string {
			var rows [][]string
			for _, a := range d.aliases {
				rows = append(rows, []string{a.Name, a.Type, a.Trans})
			}
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			a := Alias{Name: r.str(), Type: r.str(), Trans: r.str()}
			if err := r.done(); err != nil {
				return err
			}
			d.aliases = append(d.aliases, a)
			return nil
		},
	},
	{
		name: TValues,
		dump: func(d *DB) [][]string {
			var rows [][]string
			for _, name := range d.ValueNames() {
				rows = append(rows, []string{name, i2s(d.values[name])})
			}
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			name, v := r.str(), r.int()
			if err := r.done(); err != nil {
				return err
			}
			d.values[name] = v
			return nil
		},
	},
	{
		name: TTblStats,
		dump: func(d *DB) [][]string {
			var rows [][]string
			for _, s := range d.AllStats() {
				rows = append(rows, []string{
					s.Table, i642s(s.ModTime), i2s(s.Retrieves), i2s(s.Appends),
					i2s(s.Updates), i2s(s.Deletes),
				})
			}
			return rows
		},
		load: func(d *DB, f []string) error {
			r := &fieldReader{fields: f}
			s := &TblStat{
				Table: r.str(), ModTime: r.int64(), Retrieves: r.int(),
				Appends: r.int(), Updates: r.int(), Deletes: r.int(),
			}
			if err := r.done(); err != nil {
				return err
			}
			d.stats[s.Table] = s
			return nil
		},
	},
}

// loadRow installs one loaded row of a paged relation. A later row with
// the same id replaces an earlier one, as the row maps always did; an id
// no paged relation can hold is a corrupt dump.
func loadRow[R any](d *DB, rows *table[R], id int, r *R) error {
	if !validRowID(id) {
		return fmt.Errorf("db: row id %d out of range", id)
	}
	rows.put(id, r, d.bump())
	return nil
}

// DumpTable writes one relation to w in backup format. Caller must hold
// at least the shared lock.
func (d *DB) DumpTable(name string, w io.Writer) error {
	for _, t := range tableIOs {
		if t.name != name {
			continue
		}
		bw := bufio.NewWriter(w)
		for _, row := range t.dump(d) {
			if _, err := fmt.Fprintln(bw, EncodeRow(row)); err != nil {
				return err
			}
		}
		return bw.Flush()
	}
	return fmt.Errorf("db: unknown table %q", name)
}

// LoadTable reads one relation from r in backup format, appending its
// rows. Caller must hold the exclusive lock. The loaders install rows
// only, so the derived indexes are re-derived afterwards — index state
// is never persisted, it is always rebuilt from loaded rows.
func (d *DB) LoadTable(name string, r io.Reader) error {
	for _, t := range tableIOs {
		if t.name != name {
			continue
		}
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		lineno := 0
		for sc.Scan() {
			lineno++
			if sc.Text() == "" {
				continue
			}
			fields, err := DecodeRow(sc.Text())
			if err != nil {
				return fmt.Errorf("db: %s line %d: %w", name, lineno, err)
			}
			if err := t.load(d, fields); err != nil {
				return fmt.Errorf("db: %s line %d: %w", name, lineno, err)
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		d.rebuildIndexes()
		d.valueNames.invalidate()
		d.statNames.invalidate()
		for _, tbl := range AllTables {
			d.markDirty(tbl)
		}
		return nil
	}
	return fmt.Errorf("db: unknown table %q", name)
}

// dumpSnapshotLocked writes every relation plus a MANIFEST into dir
// (which must already exist), fsyncing each file. Caller holds at least
// the shared lock. gen and journalSeq are recorded in the manifest.
func (d *DB) dumpSnapshotLocked(dir string, gen, journalSeq int64) error {
	m := &Manifest{Generation: gen, Time: d.Now(), JournalSeq: journalSeq}
	for i, t := range tableIOs {
		if i == len(tableIOs)/2 {
			if err := fireCrash("checkpoint.midtables"); err != nil {
				return err
			}
		}
		f, err := os.Create(filepath.Join(dir, t.name))
		if err != nil {
			return err
		}
		hw := &hashingWriter{w: f, h: sha256.New()}
		err = d.DumpTable(t.name, hw)
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		m.Tables = append(m.Tables, ManifestTable{Name: t.name, SHA: hw.sum(), Rows: hw.rows})
	}
	return WriteManifest(dir, m)
}

// Backup dumps every relation to files named <dir>/<table> plus a
// MANIFEST recording each table's SHA-256 and row count. This is the
// mrbackup operation. It takes the shared lock itself; callers must not
// hold it.
//
// The dump is atomic in the sense that matters for 5.2.2's recovery
// story: at every instant a complete, manifest-verified backup exists
// on disk. It is written to a sibling temporary directory (dir.tmp,
// MANIFEST last) and swapped into place only once complete, so a crash
// mid-dump never damages the previous backup. The swap itself is two
// renames — dir moves aside to dir.prev, then dir.tmp moves in — so a
// crash between them leaves dir transiently missing, with the old
// backup intact at dir.prev and the new one complete at dir.tmp;
// Restore (and therefore mrrestore) resolves that window
// automatically, preferring the completed dir.tmp.
func (d *DB) Backup(dir string) error {
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	d.LockShared()
	err := d.dumpSnapshotLocked(tmp, 0, 0)
	d.UnlockShared()
	if err != nil {
		os.RemoveAll(tmp)
		return err
	}
	if err := fireCrash("checkpoint.prerename"); err != nil {
		return err
	}
	// Swap: the previous backup stays intact (as dir.prev) until the new
	// one is fully in place.
	prev := dir + ".prev"
	if err := os.RemoveAll(prev); err != nil {
		return err
	}
	if _, serr := os.Stat(dir); serr == nil {
		if err := os.Rename(dir, prev); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return err
	}
	return os.RemoveAll(prev)
}

// resolveBackupDir maps a backup path to the directory Restore should
// actually read. Normally that is dir itself; when dir does not exist,
// a crash between Backup's two renames is the likely cause, and the
// data survives as dir.tmp (the new backup, complete iff its MANIFEST
// verifies — it is written last) or dir.prev (the displaced previous
// backup). Preferring the verified tmp restores the newest state.
func resolveBackupDir(dir string) (string, error) {
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	} else if !os.IsNotExist(err) {
		return "", err
	}
	if tmp := dir + ".tmp"; manifestVerifies(tmp) {
		return tmp, nil
	}
	if prev := dir + ".prev"; dirExists(prev) {
		return prev, nil
	}
	return dir, nil // fail with the original not-exist error
}

// manifestVerifies reports whether dir holds a complete snapshot: a
// MANIFEST whose per-table hashes and row counts all check out.
func manifestVerifies(dir string) bool {
	m, err := ReadManifest(dir)
	return err == nil && m.Verify(dir) == nil
}

func dirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// Restore builds a fresh database from a backup directory. This is the
// mrrestore operation: the original insists on an empty target database,
// so Restore always returns a new DB rather than loading into an existing
// one. clk may be nil for the system clock.
//
// When the directory carries a MANIFEST (every snapshot written by this
// code does), Restore verifies every table file's SHA-256 and row count
// against it first and refuses a snapshot that fails — a backup with a
// single flipped byte must not silently become the authoritative
// database. Manifest-less directories (hand-edited dumps, pre-manifest
// backups) load unverified as before.
//
// When dir itself is missing, Restore checks for the debris of a crash
// inside Backup's two-rename swap window: a completed dir.tmp (its
// MANIFEST is written last and must verify) is the newer backup and is
// preferred; otherwise the displaced previous backup at dir.prev is
// used. Only with neither present does Restore fail.
func Restore(dir string, clk clock.Clock) (*DB, error) {
	dir, rerr := resolveBackupDir(dir)
	if rerr != nil {
		return nil, rerr
	}
	if m, err := ReadManifest(dir); err == nil {
		if err := m.Verify(dir); err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	d := New(clk)
	// Clear the seeded values so the dump's values relation governs.
	d.values = make(map[string]int)
	d.LockExclusive()
	defer d.UnlockExclusive()
	for _, t := range tableIOs {
		f, err := os.Open(filepath.Join(dir, t.name))
		if err != nil {
			return nil, err
		}
		err = d.LoadTable(t.name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	// The in-memory change sequence restarts at zero, but the dump may
	// carry the DCM's stored generation sequences; advance past them so
	// post-restore changes are never mistaken for "already generated".
	for name, v := range d.values {
		if strings.HasPrefix(name, GenSeqPrefix) && int64(v) > d.seqCounter {
			d.seqCounter = int64(v)
		}
	}
	return d, nil
}
