package db

import (
	"io"
	"slices"
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
var AllTables = tableNames()

// DB is the Moira database. All fields are guarded by the single lock;
// accessor methods document whether the caller needs a shared or
// exclusive hold. The query dispatcher takes the lock per query, which
// makes each query a serializable transaction, matching the single
// INGRES backend of the original.
type DB struct {
	mu  sync.RWMutex
	clk clock.Clock

	// Every relation and every index is a paged table (relations).
	relations

	// Snapshot machinery (snapshot.go). writeEpoch counts mutations; a
	// mutation stamps the pages it touches with it, so a rebuild copies
	// only what is newer than the served snapshot's builtEpoch and shares
	// the rest with it. sharedEpoch is the build epoch of the latest
	// frozen generation, which shares every live row not written since:
	// freeze sets it under the shared lock, writers read it under the
	// exclusive one.
	isFrozen       bool
	builtEpoch     int64
	sharedEpoch    int64
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
	detached    atomic.Bool  // DetachJournal latch: mutations refused until SetJournal
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

// relations is the database's data: every relation and every secondary
// index, each a paged table (table.go). Relations with an integer key of
// their own are filed under it; the others under surrogate ids, which
// live in memory only and are assigned in insertion or load order, so
// an id-order walk is the order the rows came in. The indexes are
// derived from the rows (rebuildIndexes). Each relation, with its
// indexes, is declared in relationList (relation.go).
type relations struct {
	users    rowset[User]      // by users_id; login index
	uids     hashIndex[uidKey] // uid -> users_ids
	machines rowset[Machine]   // by mach_id; name index
	clusters rowset[Cluster]   // by clu_id; name index
	mcmap    rowset[MCMap]     // surrogate ids
	mcOfMach hashIndex[idKey]  // mach_id -> mcmap ids
	mcOfClu  hashIndex[idKey]  // clu_id -> mcmap ids
	svc      rowset[SvcData]   // surrogate ids

	lists    rowset[List]                       // by list_id; name index
	members  table[[]Member]                    // list_id -> the list's membership rows
	memberOf [len(memberTypes)]hashIndex[idKey] // member id -> list ids, per member type

	servers     rowset[Server]     // surrogate ids; name index
	serverHosts rowset[ServerHost] // surrogate ids; service index

	filesys      rowset[Filesys]  // by filsys_id; label index (not unique)
	nfsphys      rowset[NFSPhys]  // by nfsphys_id
	quotas       rowset[NFSQuota] // surrogate ids
	quotasOnFS   hashIndex[idKey] // filsys_id -> quota ids
	quotasOfUser hashIndex[idKey] // users_id -> quota ids

	zephyr     rowset[ZephyrClass] // surrogate ids; class index
	hostaccess rowset[HostAccess]  // by mach_id
	strings    rowset[StringRec]   // by string id; value index
	services   rowset[Service]     // surrogate ids; name index
	printcaps  rowset[Printcap]    // surrogate ids; name index
	capacls    rowset[CapACL]      // surrogate ids; capability index
	aliases    rowset[Alias]       // surrogate ids; name index (not unique)
	values     rowset[value]       // surrogate ids; name index
	stats      rowset[TblStat]     // surrogate ids; table-name index
}

// memberTypes are the member types the member → lists index covers.
var memberTypes = [...]string{ACEUser, ACEList, ACEString}

// memberType returns mtype's position in memberTypes, -1 for a type no
// query accepts (a load can carry one; fsck reports it).
func memberType(mtype string) int { return slices.Index(memberTypes[:], mtype) }

func newRelations() relations {
	var r relations
	for _, rel := range relationList {
		rel.init(&r)
	}
	return r
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
		clk:       clk,
		relations: newRelations(),
		tableSeq:  make(map[string]int64),
		ops:       make(map[string]*tableOps),
		lookups:   &lookupOps{},
	}
	w := d.bump()
	for _, t := range AllTables {
		d.stats.upsert(&TblStat{Table: t}, w)
		d.ops[t] = &tableOps{}
	}
	// ID allocation hints and server state, as loaded by the db creation
	// scripts in the original.
	for _, v := range []value{
		{"users_id", 100}, {"list_id", 100}, {"mach_id", 100}, {"clu_id", 100},
		{"filsys_id", 100}, {"nfsphys_id", 100}, {"strings_id", 100},
		{"uid", 6500}, {"gid", 10900}, {"def_quota", 300}, {"dcm_enable", 1},
	} {
		d.values.upsert(&v, w)
	}
	return d
}

// Now returns the database's notion of the current unix time.
func (d *DB) Now() int64 { return d.clk.Now().Unix() }

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
// operator action that makes the store durable again. It also lifts
// DetachJournal's latch.
func (d *DB) SetJournal(w io.Writer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.journal = w
	d.wedged.Store(false)
	d.detached.Store(false)
}

// DetachJournal removes the journal, as SetJournal(nil) does, and under
// the same lock latches the database against mutations: one that
// reaches the lock afterwards is refused (JournalDetached) instead of
// applied with nothing to record it. A fencing primary detaches so that
// a write which passed the server's gate just before the fence cannot
// leave memory holding a change no journal segment has. SetJournal
// lifts the latch. Callers must not hold the lock.
func (d *DB) DetachJournal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.journal = nil
	d.detached.Store(true)
}

// JournalDetached reports whether DetachJournal latched the database
// against mutations since the journal was last set.
func (d *DB) JournalDetached() bool { return d.detached.Load() }

// AdoptCount reports how many times AdoptFrom replaced this database's
// state; a snapshot reports the count it was frozen at. Derived caches
// built from a read of the database (the incremental extract models)
// record the count they were built at and discard themselves when it
// moves — an adopted snapshot invalidates every delta chain.
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
	d.relations = src.relations
	d.seqCounter, d.tableSeq = src.seqCounter, src.tableSeq
	// Index state is derived, never trusted: re-derive it from the adopted
	// rows, which also re-stamps every adopted page (its stamps count
	// src's epochs) into d's epoch domain, so the next Reader() freezes
	// the adopted state afresh.
	d.rebuildIndexes()
}

// --- TBLSTATS maintenance. Caller must hold the exclusive lock. ---

// stat returns table's stats row for the caller to update in place,
// creating it if needed; the row is private to the live relation and its
// page is stamped.
func (d *DB) stat(table string) *TblStat {
	w := d.bump()
	id, s, ok := d.stats.find(table)
	if !ok {
		s = &TblStat{Table: table}
		d.stats.insert(d.stats.rows.nextID(), s, w)
		return s
	}
	return d.stats.rows.edit(id, s, w)
}

// note stamps both the wall-clock modtime (the TBLSTATS field the paper
// records) and the monotonic change sequence the DCM's no-change
// detection uses — wall time alone would lose changes that land in the
// same second as a file generation.
func (d *DB) note(s *TblStat) {
	s.ModTime = d.Now()
	d.seqCounter++
	d.tableSeq[s.Table] = d.seqCounter
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
// it changed and snapshot maintenance re-copies just that row's page.
type Row interface {
	// touch stamps the page of the row, which must be the live row
	// itself and private to it (Edit), and returns the row's relation.
	touch(d *DB, w stamp) string
}

func (u *User) touch(d *DB, w stamp) string        { return Users.touch(d, u, w) }
func (m *Machine) touch(d *DB, w stamp) string     { return Machines.touch(d, m, w) }
func (c *Cluster) touch(d *DB, w stamp) string     { return Clusters.touch(d, c, w) }
func (l *List) touch(d *DB, w stamp) string        { return Lists.touch(d, l, w) }
func (s *Server) touch(d *DB, w stamp) string      { return Servers.touch(d, s, w) }
func (sh *ServerHost) touch(d *DB, w stamp) string { return ServerHosts.touch(d, sh, w) }
func (f *Filesys) touch(d *DB, w stamp) string     { return Filesystems.touch(d, f, w) }
func (p *NFSPhys) touch(d *DB, w stamp) string     { return Partitions.touch(d, p, w) }
func (q *NFSQuota) touch(d *DB, w stamp) string    { return Quotas.touch(d, q, w) }
func (z *ZephyrClass) touch(d *DB, w stamp) string { return ZephyrClasses.touch(d, z, w) }
func (h *HostAccess) touch(d *DB, w stamp) string  { return HostAccesses.touch(d, h, w) }

// NoteUpdate records an in-place update of row r, which the caller has
// made (or is about to make, before releasing the exclusive lock) on
// the live row that Edit returned. It panics on a row a snapshot shares.
func (d *DB) NoteUpdate(r Row) { d.noteUpdate(r.touch(d, d.bump())) }

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
	table := r.touch(d, d.bump())
	// No modtime, no sequence bump; the row's page and the stats row's
	// are stamped all the same.
	d.stat(table).Updates++
	d.opsFor(table).updates.Add(1)
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
	if s, ok := d.stats.byKey(table); ok {
		return *s
	}
	return TblStat{Table: table}
}

// AllStats returns all stats rows sorted by table name. Caller must hold
// at least the shared lock. The name ordering comes from a cache that is
// rebuilt only when a new table appears.
func (d *DB) AllStats() []TblStat {
	out := make([]TblStat, 0, d.stats.rows.len())
	d.stats.eachByName(func(s *TblStat) bool {
		out = append(out, *s)
		return true
	})
	return out
}

// LastModOf returns the most recent modification time across the named
// tables. The DCM's generators use this for MR_NO_CHANGE detection.
// Caller must hold at least the shared lock.
func (d *DB) LastModOf(tables ...string) int64 {
	var max int64
	for _, t := range tables {
		if s, ok := d.stats.byKey(t); ok && s.ModTime > max {
			max = s.ModTime
		}
	}
	return max
}

// --- VALUES relation. Caller must hold the appropriate lock. ---

// value is a row of the VALUES relation.
type value struct {
	Name  string
	Value int
}

func (v *value) columns(f *fields) { f.str(&v.Name).int(&v.Value) }

// GetValue looks up a value; MR_NO_MATCH if absent. Shared lock suffices.
func (d *DB) GetValue(name string) (int, error) {
	v, ok := d.values.byKey(name)
	if !ok {
		return 0, mrerr.MrNoMatch
	}
	return v.Value, nil
}

// SetValue stores a value (creating or replacing). Exclusive lock.
func (d *DB) SetValue(name string, v int) {
	if id, row, ok := d.values.find(name); ok {
		d.values.rows.edit(id, row, d.bump()).Value = v
		d.noteUpdate(TValues)
		return
	}
	valuesRel.add(d, -1, &value{name, v})
}

// AddValue adds a new value; MR_EXISTS if present. Exclusive lock.
func (d *DB) AddValue(name string, v int) error {
	if _, ok := d.values.byKey(name); ok {
		return mrerr.MrExists
	}
	d.SetValue(name, v)
	return nil
}

// UpdateValue replaces an existing value; MR_NO_MATCH if absent.
// Exclusive lock.
func (d *DB) UpdateValue(name string, v int) error {
	if _, ok := d.values.byKey(name); !ok {
		return mrerr.MrNoMatch
	}
	d.SetValue(name, v)
	return nil
}

// DeleteValue removes a value; MR_NO_MATCH if absent. Exclusive lock.
func (d *DB) DeleteValue(name string) error {
	v, ok := d.values.byKey(name)
	if !ok {
		return mrerr.MrNoMatch
	}
	valuesRel.Delete(d, v)
	return nil
}

// AllocID allocates the next ID from the named hint counter ("users_id",
// "list_id", ...). Exclusive lock required.
func (d *DB) AllocID(counter string) (int, error) {
	id, v, ok := d.values.find(counter)
	if !ok {
		return 0, mrerr.MrNoID
	}
	// Deliberately not a Note*: an allocation is not a data change the
	// DCM should chase.
	v = d.values.rows.edit(id, v, d.bump())
	v.Value++
	return v.Value - 1, nil
}
