package db

import (
	"io"
	"sync"
	"sync/atomic"

	"moira/internal/clock"
	"moira/internal/mrerr"
	"moira/internal/stats"
)

// Table names, used for TBLSTATS and the backup file set.
const (
	TUsers       = "users"
	TMachine     = "machine"
	TCluster     = "cluster"
	TMCMap       = "mcmap"
	TSvc         = "svc"
	TList        = "list"
	TMembers     = "members"
	TServers     = "servers"
	TServerHosts = "serverhosts"
	TFilesys     = "filesys"
	TNFSPhys     = "nfsphys"
	TNFSQuota    = "nfsquota"
	TZephyr      = "zephyr"
	THostAccess  = "hostaccess"
	TStrings     = "strings"
	TServices    = "services"
	TPrintcap    = "printcap"
	TCapACLs     = "capacls"
	TAlias       = "alias"
	TValues      = "values"
	TTblStats    = "tblstats"
)

// AllTables lists every relation in a stable order (the backup order).
var AllTables = []string{
	TUsers, TMachine, TCluster, TMCMap, TSvc, TList, TMembers,
	TServers, TServerHosts, TFilesys, TNFSPhys, TNFSQuota, TZephyr,
	THostAccess, TStrings, TServices, TPrintcap, TCapACLs, TAlias,
	TValues, TTblStats,
}

// DB is the Moira database. All fields are guarded by the single lock;
// accessor methods document whether the caller needs a shared or
// exclusive hold. The query dispatcher takes the lock per query, which
// makes each query a serializable transaction, matching the single
// INGRES backend of the original.
type DB struct {
	mu  sync.RWMutex
	clk clock.Clock

	// The integer-keyed relations live in paged tables (table.go); their
	// secondary indexes (index.go) are derived from the rows, maintained
	// by the mutation accessors and re-derived by the load paths via
	// rebuildIndexes.
	users   table[User]
	userIdx userIndex

	machines table[Machine]
	machIdx  namedIndex

	clusters table[Cluster]
	cluIdx   namedIndex

	mcmap    []MCMap
	mcmapIdx map[pairKey]bool // (mach_id, clu_id) presence
	svc      []SvcData

	lists     table[List]
	listIdx   namedIndex
	members   map[int][]Member    // keyed by list id
	memberIdx map[memberKey][]int // (member type, id) -> list ids

	servers     map[string]*Server
	serverHosts []*ServerHost

	filesys    table[Filesys]
	filesysIdx filesysIndex
	nfsphys    table[NFSPhys]
	nfsquotas  []*NFSQuota
	quotaIdx   map[pairKey]*NFSQuota // (users_id, filsys_id) -> row

	zephyr     map[string]*ZephyrClass
	hostaccess table[HostAccess] // keyed by mach_id

	strings   table[StringRec]
	stringIdx namedIndex // keyed by the interned value

	services  map[string]*Service
	printcaps map[string]*Printcap
	capacls   map[string]*CapACL
	aliases   []Alias
	values    map[string]int
	stats     map[string]*TblStat

	valueNames *nameCache // sorted VALUES names (key-set changes only)
	statNames  *nameCache // sorted TBLSTATS table names

	// Snapshot machinery (snapshot.go). writeEpoch counts mutations; a
	// paged table stamps the pages a mutation touches with it, and
	// snapEpochs holds the same stamp per whole-table-copied relation, so
	// a rebuild copies only what is newer than the served snapshot's
	// builtEpoch and shares the rest with it.
	isFrozen       bool
	builtEpoch     int64
	snapEpochs     map[string]int64
	writeEpoch     atomic.Int64
	rebuildMu      sync.Mutex
	frozen         atomic.Pointer[DB]
	snapReads      atomic.Int64
	snapRebuilds   atomic.Int64
	snapRowsCopied atomic.Int64

	seqCounter int64
	tableSeq   map[string]int64

	journal     io.Writer
	journalErrs atomic.Int64 // failed journal appends, surfaced as journal.errors
	wedged      atomic.Bool  // fail-stop latch: set on the first journal write error
	adoptions   atomic.Int64 // AdoptFrom count; cached extract models key off it

	// ops mirrors the per-table op counts from TBLSTATS into atomics
	// under their own lock, so a stats snapshot taken while a query
	// holds the shared DB lock (the `_stats` handle does exactly that)
	// never touches d.mu.
	opsMu sync.Mutex
	ops   map[string]*tableOps

	// lookups tallies read-path shapes (hash/index probes vs. ordered
	// range scans vs. full-relation scans). Shared with every frozen
	// snapshot — that is where retrievals actually run.
	lookups *lookupOps

	// freezeHist, when BindStats wired a registry, times snapshot
	// rebuilds (snap.freeze.duration).
	freezeHist atomic.Pointer[stats.Histogram]
}

// tableOps is the lock-free mirror of one TblStat row's counts.
type tableOps struct {
	appends, updates, deletes atomic.Int64
}

// lookupOps tallies read-path shapes across live DB and snapshots.
type lookupOps struct {
	point atomic.Int64 // exact-key index probes
	rng   atomic.Int64 // wildcard range scans over an ordered index
	scan  atomic.Int64 // full-relation iterations
}

// NotePoint/NoteRange/NoteScan record one read of each shape; accessors
// call them so operators can see whether the query mix is hitting the
// indexes or falling back to scans.
func (d *DB) NotePoint() { d.lookups.point.Add(1) }

// NoteRange records one ordered-index range scan.
func (d *DB) NoteRange() { d.lookups.rng.Add(1) }

// NoteScan records one full-relation scan.
func (d *DB) NoteScan() { d.lookups.scan.Add(1) }

// LookupStats reports the point/range/scan tallies.
func (d *DB) LookupStats() (point, rng, scan int64) {
	return d.lookups.point.Load(), d.lookups.rng.Load(), d.lookups.scan.Load()
}

// New creates an empty database with the standard Values hints loaded.
// clk may be nil for the system clock.
func New(clk clock.Clock) *DB {
	if clk == nil {
		clk = clock.System
	}
	d := &DB{
		clk:        clk,
		members:    make(map[int][]Member),
		servers:    make(map[string]*Server),
		zephyr:     make(map[string]*ZephyrClass),
		services:   make(map[string]*Service),
		printcaps:  make(map[string]*Printcap),
		capacls:    make(map[string]*CapACL),
		values:     make(map[string]int),
		stats:      make(map[string]*TblStat),
		tableSeq:   make(map[string]int64),
		ops:        make(map[string]*tableOps),
		lookups:    &lookupOps{},
		snapEpochs: make(map[string]int64),
		valueNames: &nameCache{},
		statNames:  &nameCache{},
	}
	d.rebuildIndexes()
	for _, t := range AllTables {
		d.stats[t] = &TblStat{Table: t}
		d.ops[t] = &tableOps{}
	}
	// ID allocation hints and server state, as loaded by the db creation
	// scripts in the original.
	d.values["users_id"] = 100
	d.values["list_id"] = 100
	d.values["mach_id"] = 100
	d.values["clu_id"] = 100
	d.values["filsys_id"] = 100
	d.values["nfsphys_id"] = 100
	d.values["strings_id"] = 100
	d.values["uid"] = 6500
	d.values["gid"] = 10900
	d.values["def_quota"] = 300
	d.values["dcm_enable"] = 1
	return d
}

// Now returns the database's notion of the current unix time.
func (d *DB) Now() int64 { return d.clk.Now().Unix() }

// Clock returns the clock the database was built with.
func (d *DB) Clock() clock.Clock { return d.clk }

// LockShared takes the database lock for reading.
func (d *DB) LockShared() { d.mu.RLock() }

// UnlockShared releases a shared hold.
func (d *DB) UnlockShared() { d.mu.RUnlock() }

// LockExclusive takes the database lock for writing.
func (d *DB) LockExclusive() { d.mu.Lock() }

// UnlockExclusive releases an exclusive hold.
func (d *DB) UnlockExclusive() { d.mu.Unlock() }

// SetJournal directs the journal of successful changes to w (section
// 5.2.2: "the journal file kept by the Moira server daemon contains a
// listing of all successful changes to the database"). Pass nil to
// disable. Callers must not hold the lock. For a durable on-disk
// journal with sync policies and segment rotation, pass a
// *JournalWriter. Pointing the database at a new journal clears the
// fail-stop latch (JournalWedged): swapping the journal target is the
// operator action that makes the store durable again.
func (d *DB) SetJournal(w io.Writer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.journal = w
	d.wedged.Store(false)
}

// AdoptCount reports how many times AdoptFrom replaced this database's
// state. Derived caches built from a read of the database (the
// incremental extract models) record the count they were built at and
// discard themselves when it moves — an adopted snapshot invalidates
// every delta chain.
func (d *DB) AdoptCount() int64 { return d.adoptions.Load() }

// JournalWedged reports whether a journal append has failed since the
// journal was last (re)set. A wedged database is no longer durable —
// its memory already holds at least one change the journal does not —
// so the query layer fail-stops further mutations instead of widening
// the memory/disk divergence; reads keep serving.
func (d *DB) JournalWedged() bool { return d.wedged.Load() }

// JournalHead reports the durable journal's head position (current
// segment sequence and the count of records appended to it) when the
// attached journal exposes one (*JournalWriter does). ok is false for
// plain io.Writer journals and for no journal at all. Callers must
// hold the exclusive lock, which is what makes "the head right after
// my append" the committed position of that append.
func (d *DB) JournalHead() (seg, recs int64, ok bool) {
	type header interface{ Head() (int64, int64) }
	if h, is := d.journal.(header); is {
		seg, recs = h.Head()
		return seg, recs, true
	}
	return 0, 0, false
}

// AdoptFrom replaces d's entire data state with src's under d's
// exclusive lock, keeping d's identity — clock, journal target, stats
// mirror bindings, and every pointer other code holds to d. A replica
// uses it to swap in a freshly restored bootstrap snapshot without
// tearing down the server that is already serving reads from d. src
// must be a private database (typically just built by Restore) that no
// other goroutine touches; its contents are moved, not copied.
func (d *DB) AdoptFrom(src *DB) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.adoptions.Add(1)
	d.users, d.machines, d.clusters = src.users, src.machines, src.clusters
	d.mcmap, d.svc = src.mcmap, src.svc
	d.lists, d.members = src.lists, src.members
	d.servers, d.serverHosts = src.servers, src.serverHosts
	d.filesys, d.nfsphys, d.nfsquotas = src.filesys, src.nfsphys, src.nfsquotas
	d.zephyr, d.hostaccess, d.strings = src.zephyr, src.hostaccess, src.strings
	d.services, d.printcaps, d.capacls = src.services, src.printcaps, src.capacls
	d.aliases, d.values, d.stats = src.aliases, src.values, src.stats
	d.seqCounter, d.tableSeq = src.seqCounter, src.tableSeq
	// Index state is derived, never moved: re-derive it from the adopted
	// rows (which also re-stamps the adopted pages, whose stamps count
	// src's epochs, into d's), drop the lazy name caches, and dirty every
	// table so the next Reader() freezes a fresh snapshot of the adopted
	// state.
	d.rebuildIndexes()
	d.valueNames.invalidate()
	d.statNames.invalidate()
	for _, t := range AllTables {
		d.markDirty(t)
	}
}

// --- TBLSTATS maintenance. Caller must hold the exclusive lock. ---

func (d *DB) stat(table string) *TblStat {
	s, ok := d.stats[table]
	if !ok {
		s = &TblStat{Table: table}
		d.stats[table] = s
		d.statNames.invalidate() // key set grew
	}
	return s
}

// note stamps both the wall-clock modtime (the TBLSTATS field the paper
// records) and the monotonic change sequence the DCM's no-change
// detection uses — wall time alone would lose changes that land in the
// same second as a file generation.
func (d *DB) note(s *TblStat) {
	s.ModTime = d.Now()
	d.seqCounter++
	d.tableSeq[s.Table] = d.seqCounter
	d.markDirty(s.Table)
	// The stats row itself just changed in place, so snapshots must
	// re-copy the tblstats relation too.
	d.markDirty(TTblStats)
}

// opsFor returns table's atomic op-count mirror, creating it if needed.
func (d *DB) opsFor(table string) *tableOps {
	d.opsMu.Lock()
	defer d.opsMu.Unlock()
	o, ok := d.ops[table]
	if !ok {
		o = &tableOps{}
		d.ops[table] = o
	}
	return o
}

// BindStats publishes the per-table operation counts into reg as
// counters named db.<table>.appends/.updates/.deletes. The group
// callback reads only the atomic mirror — never the DB lock — so it is
// safe to snapshot from inside a query transaction.
func (d *DB) BindStats(reg *stats.Registry) {
	d.freezeHist.Store(reg.HistogramWith("snap.freeze.duration", stats.FastBuckets))
	reg.AddGroup(func(emit func(string, int64)) {
		if e := d.journalErrs.Load(); e > 0 {
			emit("journal.errors", e)
		}
		if d.wedged.Load() {
			emit("journal.wedged", 1)
		}
		if r := d.snapReads.Load(); r > 0 {
			emit("snap.reads", r)
		}
		if r := d.snapRebuilds.Load(); r > 0 {
			emit("snap.rebuilds", r)
		}
		if n := d.snapRowsCopied.Load(); n > 0 {
			emit("snap.rows.copied", n)
		}
		if n := d.lookups.point.Load(); n > 0 {
			emit("db.lookup.point", n)
		}
		if n := d.lookups.rng.Load(); n > 0 {
			emit("db.lookup.range", n)
		}
		if n := d.lookups.scan.Load(); n > 0 {
			emit("db.lookup.scan", n)
		}
		d.opsMu.Lock()
		defer d.opsMu.Unlock()
		for t, o := range d.ops {
			if a := o.appends.Load(); a > 0 {
				emit("db."+t+".appends", a)
			}
			if u := o.updates.Load(); u > 0 {
				emit("db."+t+".updates", u)
			}
			if del := o.deletes.Load(); del > 0 {
				emit("db."+t+".deletes", del)
			}
		}
	})
}

// NoteAppend records an append to table.
func (d *DB) NoteAppend(table string) {
	s := d.stat(table)
	s.Appends++
	d.note(s)
	d.opsFor(table).appends.Add(1)
}

// Row is a row of one of the relations whose rows are updated in place:
// what NoteUpdate takes, so that every in-place mutation names the row
// it changed and snapshot maintenance can re-copy just that row's page.
type Row interface{ relation() string }

func (*User) relation() string        { return TUsers }
func (*Machine) relation() string     { return TMachine }
func (*Cluster) relation() string     { return TCluster }
func (*List) relation() string        { return TList }
func (*Server) relation() string      { return TServers }
func (*ServerHost) relation() string  { return TServerHosts }
func (*Filesys) relation() string     { return TFilesys }
func (*NFSPhys) relation() string     { return TNFSPhys }
func (*NFSQuota) relation() string    { return TNFSQuota }
func (*ZephyrClass) relation() string { return TZephyr }
func (*HostAccess) relation() string  { return THostAccess }

// touchRow stamps the page of a paged relation's row with a fresh write
// epoch and returns the row's relation. r must be the live row itself.
// Rows of the other relations need no stamp: their relation's Note*
// marks the whole table.
func (d *DB) touchRow(r Row) string {
	switch r := r.(type) {
	case *User:
		d.users.touch(r.UsersID, r, d.bump())
	case *Machine:
		d.machines.touch(r.MachID, r, d.bump())
	case *Cluster:
		d.clusters.touch(r.CluID, r, d.bump())
	case *List:
		d.lists.touch(r.ListID, r, d.bump())
	case *Filesys:
		d.filesys.touch(r.FilsysID, r, d.bump())
	case *NFSPhys:
		d.nfsphys.touch(r.NFSPhysID, r, d.bump())
	case *HostAccess:
		d.hostaccess.touch(r.MachID, r, d.bump())
	}
	return r.relation()
}

// NoteUpdate records an in-place update of row r, which the caller has
// made (or is about to make, before releasing the exclusive lock) on
// the live row.
func (d *DB) NoteUpdate(r Row) { d.noteUpdate(d.touchRow(r)) }

// noteUpdate records an update to a relation whose rows are replaced,
// not mutated (values, capacls).
func (d *DB) noteUpdate(table string) {
	s := d.stat(table)
	s.Updates++
	d.note(s)
	d.opsFor(table).updates.Add(1)
}

// NoteDelete records a delete from table.
func (d *DB) NoteDelete(table string) {
	s := d.stat(table)
	s.Deletes++
	d.note(s)
	d.opsFor(table).deletes.Add(1)
}

// NoteUpdateInternal records an update that must NOT count as a data
// change: the DCM's own bookkeeping (set_server_internal_flags and
// set_server_host_internal, whose descriptions say "the modtime will NOT
// be set"). Without this distinction the DCM's flag writes would mark
// the serverhosts relation dirty and every pass would regenerate the
// hesiod sloc data forever.
func (d *DB) NoteUpdateInternal(r Row) {
	table := d.touchRow(r)
	d.stat(table).Updates++
	d.opsFor(table).updates.Add(1)
	// No modtime, no sequence bump — but the row did change in place,
	// so snapshot maintenance must still see it (and its relation's stats
	// row) as dirty or a frozen reader would race the writer.
	d.markDirty(table)
	d.markDirty(TTblStats)
}

// SeqOf returns the largest change-sequence number across the named
// tables: the value a generator snapshots so the next run can tell
// whether anything relevant changed. Caller holds at least the shared
// lock.
func (d *DB) SeqOf(tables ...string) int64 {
	var max int64
	for _, t := range tables {
		if s := d.tableSeq[t]; s > max {
			max = s
		}
	}
	return max
}

// CurSeq returns the current global change sequence.
func (d *DB) CurSeq() int64 { return d.seqCounter }

// GenSeqPrefix prefixes the values-relation entries in which the DCM
// stores each service's last-generated change sequence.
const GenSeqPrefix = "genseq_"

// Stats returns a copy of the stats row for table. Caller must hold at
// least the shared lock.
func (d *DB) Stats(table string) TblStat {
	if s, ok := d.stats[table]; ok {
		return *s
	}
	return TblStat{Table: table}
}

// AllStats returns all stats rows sorted by table name. Caller must hold
// at least the shared lock. The name ordering comes from a cache that is
// invalidated only when a new table appears, so the per-call sort the
// `_stats`-style paths used to pay is gone from the hot path.
func (d *DB) AllStats() []TblStat {
	names := d.statNames.get(sortedKeys(d.stats))
	out := make([]TblStat, 0, len(names))
	for _, n := range names {
		out = append(out, *d.stats[n])
	}
	return out
}

// LastModOf returns the most recent modification time across the named
// tables. The DCM's generators use this for MR_NO_CHANGE detection.
// Caller must hold at least the shared lock.
func (d *DB) LastModOf(tables ...string) int64 {
	var max int64
	for _, t := range tables {
		if s, ok := d.stats[t]; ok && s.ModTime > max {
			max = s.ModTime
		}
	}
	return max
}

// --- VALUES relation. Caller must hold the appropriate lock. ---

// GetValue looks up a value; MR_NO_MATCH if absent. Shared lock suffices.
func (d *DB) GetValue(name string) (int, error) {
	v, ok := d.values[name]
	if !ok {
		return 0, mrerr.MrNoMatch
	}
	return v, nil
}

// SetValue stores a value (creating or replacing). Exclusive lock.
func (d *DB) SetValue(name string, v int) {
	if _, ok := d.values[name]; ok {
		d.noteUpdate(TValues)
	} else {
		d.NoteAppend(TValues)
		d.valueNames.invalidate()
	}
	d.values[name] = v
}

// AddValue adds a new value; MR_EXISTS if present. Exclusive lock.
func (d *DB) AddValue(name string, v int) error {
	if _, ok := d.values[name]; ok {
		return mrerr.MrExists
	}
	d.values[name] = v
	d.NoteAppend(TValues)
	d.valueNames.invalidate()
	return nil
}

// UpdateValue replaces an existing value; MR_NO_MATCH if absent.
// Exclusive lock.
func (d *DB) UpdateValue(name string, v int) error {
	if _, ok := d.values[name]; !ok {
		return mrerr.MrNoMatch
	}
	d.values[name] = v
	d.noteUpdate(TValues)
	return nil
}

// DeleteValue removes a value; MR_NO_MATCH if absent. Exclusive lock.
func (d *DB) DeleteValue(name string) error {
	if _, ok := d.values[name]; !ok {
		return mrerr.MrNoMatch
	}
	delete(d.values, name)
	d.NoteDelete(TValues)
	d.valueNames.invalidate()
	return nil
}

// ValueNames returns all value names sorted. Shared lock. Cached: the
// sort reruns only after the key set changes, not per call.
func (d *DB) ValueNames() []string {
	return d.valueNames.get(sortedKeys(d.values))
}

// AllocID allocates the next ID from the named hint counter ("users_id",
// "list_id", ...). Exclusive lock required.
func (d *DB) AllocID(counter string) (int, error) {
	v, ok := d.values[counter]
	if !ok {
		return 0, mrerr.MrNoID
	}
	d.values[counter] = v + 1
	// Deliberately not a Note* (an allocation is not a data change the
	// DCM should chase), but the values row did move: snapshots must
	// re-copy the relation.
	d.markDirty(TValues)
	return v, nil
}
