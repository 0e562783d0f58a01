package db

import "time"

// MVCC-lite snapshots: retrievals run against an immutable frozen copy
// of the database instead of holding the shared lock, so reads never
// block the writer and a reader observes one committed state for its
// whole query — no torn multi-table views.
//
// The scheme is copy-on-write, rebuilt lazily, and sized to Moira's
// traffic: a large read-mostly catalogue with a trickle of one-row
// writes.
//
//   - Every mutation advances the global write epoch (bump) and leaves
//     that epoch as a stamp on what it changed. The integer-keyed
//     relations (users, machines, clusters, lists, filesys, nfsphys,
//     hostaccess, strings) live in paged tables (table.go) and stamp the
//     one page holding the row — every in-place update names its row
//     (NoteUpdate takes the row, not the table) so there is no way to
//     change a row without stamping it. Their secondary indexes carry a
//     key epoch that moves only when a key does (index.go). The small
//     string-keyed relations, and members/nfsquotas with their indexes,
//     keep one stamp per table (markDirty). Mutations happen under the
//     exclusive lock — the journal's global ordering requires a single
//     writer.
//   - Reader() returns the current frozen snapshot if its build epoch
//     still matches the write epoch (the no-new-commits fast path: one
//     atomic load). Otherwise it rebuilds: take the shared lock (which
//     only waits out an in-flight commit), deep-copy whatever is stamped
//     newer than the previous snapshot's build epoch — the touched
//     pages, the re-keyed indexes, the dirty small tables — and share
//     everything else with the previous snapshot. One update_user_shell
//     therefore costs the next reader one page of user rows, at 2,000
//     users or at a million.
//
// Lazy rebuild is the load-bearing choice: publishing a snapshot per
// commit would charge every write its copies, while rebuild-on-read
// charges one rebuild per write→read transition no matter how many
// writes batched up in between. Write-only phases (bulk load, replay)
// cost zero copies.
//
// A frozen snapshot shares nothing mutable with the live database: row
// structs are copied by value (they are flat), index maps and slices
// are cloned, and sharing is always with the previous frozen snapshot,
// never with live memory. The isFrozen latch makes every mutation
// accessor panic on a snapshot, so a retrieve handler that mutates is a
// loud bug, not silent corruption.

// bump advances the write epoch for a mutation and returns the new
// value: the stamp for whatever the caller is changing. It invalidates
// the served snapshot. Caller holds the exclusive lock.
func (d *DB) bump() int64 {
	if d.isFrozen {
		panic("db: mutation of a frozen snapshot (retrieve handlers must not write)")
	}
	return d.writeEpoch.Add(1)
}

// markDirty records a mutation of a relation that snapshots copy whole:
// the next freeze re-copies it. (On a paged relation it only advances
// the write epoch; their accessors stamp pages themselves.)
func (d *DB) markDirty(table string) { d.snapEpochs[table] = d.bump() }

// Reader returns an immutable snapshot of the database for lock-free
// retrieval. The snapshot reflects every committed mutation; the caller
// runs its whole query against it without taking the database lock.
// Accessor methods work on the snapshot unchanged. Mutating it panics.
func (d *DB) Reader() *DB {
	d.snapReads.Add(1)
	if f := d.frozen.Load(); f != nil && f.builtEpoch == d.writeEpoch.Load() {
		return f
	}
	d.rebuildMu.Lock()
	defer d.rebuildMu.Unlock()
	if f := d.frozen.Load(); f != nil && f.builtEpoch == d.writeEpoch.Load() {
		return f
	}
	d.mu.RLock()
	start := time.Now()
	epoch := d.writeEpoch.Load() // stable: writers are blocked
	f, copied := d.freeze(d.frozen.Load())
	f.builtEpoch = epoch
	d.mu.RUnlock()
	if h := d.freezeHist.Load(); h != nil {
		h.Observe(time.Since(start))
	}
	d.snapRebuilds.Add(1)
	d.snapRowsCopied.Add(int64(copied))
	d.frozen.Store(f)
	return f
}

// SnapshotStats reports how many Reader calls were served and how many
// had to rebuild the frozen snapshot (the difference is cache hits).
func (d *DB) SnapshotStats() (reads, rebuilds int64) {
	return d.snapReads.Load(), d.snapRebuilds.Load()
}

// freeze builds a new frozen snapshot from the live database, sharing
// with prev everything not stamped newer than prev's build epoch, and
// reports how many paged-relation rows it copied. Called with at least
// the shared lock held; prev may be nil (copy everything).
func (d *DB) freeze(prev *DB) (*DB, int) {
	if prev == nil {
		prev = &DB{builtEpoch: -1} // older than every stamp: shares nothing
	}
	since := prev.builtEpoch
	f := &DB{
		clk:        d.clk,
		isFrozen:   true,
		seqCounter: d.seqCounter,
		tableSeq:   copyVals(d.tableSeq),
		valueNames: &nameCache{},
		statNames:  &nameCache{},
		// ops is shared: frozen code never writes it (Note* panics via
		// bump) and BindStats is only ever bound on the live DB.
		ops: d.ops,
		// lookups is shared too: retrievals run on snapshots, and their
		// probes must land in the live DB's tallies.
		lookups: d.lookups,
	}

	copied := 0
	f.users = d.users.freeze(&prev.users, since, &copied)
	f.userIdx = d.userIdx.freeze(&prev.userIdx, since)
	f.machines = d.machines.freeze(&prev.machines, since, &copied)
	f.machIdx = d.machIdx.freeze(&prev.machIdx, since)
	f.clusters = d.clusters.freeze(&prev.clusters, since, &copied)
	f.cluIdx = d.cluIdx.freeze(&prev.cluIdx, since)
	f.lists = d.lists.freeze(&prev.lists, since, &copied)
	f.listIdx = d.listIdx.freeze(&prev.listIdx, since)
	f.filesys = d.filesys.freeze(&prev.filesys, since, &copied)
	f.filesysIdx = d.filesysIdx.freeze(&prev.filesysIdx, since)
	f.strings = d.strings.freeze(&prev.strings, since, &copied)
	f.stringIdx = d.stringIdx.freeze(&prev.stringIdx, since)
	f.nfsphys = d.nfsphys.freeze(&prev.nfsphys, since, &copied)
	f.hostaccess = d.hostaccess.freeze(&prev.hostaccess, since, &copied)

	dirty := func(t string) bool { return d.snapEpochs[t] > since }

	if dirty(TMCMap) {
		f.mcmap = append([]MCMap(nil), d.mcmap...)
		f.mcmapIdx = copyVals(d.mcmapIdx)
	} else {
		f.mcmap, f.mcmapIdx = prev.mcmap, prev.mcmapIdx
	}

	if dirty(TSvc) {
		f.svc = append([]SvcData(nil), d.svc...)
	} else {
		f.svc = prev.svc
	}

	if dirty(TMembers) {
		f.members = copySlices(d.members)
		f.memberIdx = copySlices(d.memberIdx)
	} else {
		f.members, f.memberIdx = prev.members, prev.memberIdx
	}

	if dirty(TServers) {
		f.servers = copyRows(d.servers)
	} else {
		f.servers = prev.servers
	}

	if dirty(TServerHosts) {
		f.serverHosts = copyRowSlice(d.serverHosts)
	} else {
		f.serverHosts = prev.serverHosts
	}

	if dirty(TNFSQuota) {
		f.nfsquotas = copyRowSlice(d.nfsquotas)
		f.quotaIdx = make(map[pairKey]*NFSQuota, len(f.nfsquotas))
		for _, q := range f.nfsquotas {
			f.quotaIdx[pairKey{q.UsersID, q.FilsysID}] = q
		}
	} else {
		f.nfsquotas, f.quotaIdx = prev.nfsquotas, prev.quotaIdx
	}

	if dirty(TZephyr) {
		f.zephyr = copyRows(d.zephyr)
	} else {
		f.zephyr = prev.zephyr
	}

	if dirty(TServices) {
		f.services = copyRows(d.services)
	} else {
		f.services = prev.services
	}

	if dirty(TPrintcap) {
		f.printcaps = copyRows(d.printcaps)
	} else {
		f.printcaps = prev.printcaps
	}

	if dirty(TCapACLs) {
		f.capacls = copyRows(d.capacls)
	} else {
		f.capacls = prev.capacls
	}

	if dirty(TAlias) {
		f.aliases = append([]Alias(nil), d.aliases...)
	} else {
		f.aliases = prev.aliases
	}

	if dirty(TValues) {
		f.values = copyVals(d.values)
	} else {
		f.values, f.valueNames = prev.values, prev.valueNames
	}

	if dirty(TTblStats) {
		f.stats = copyRows(d.stats)
	} else {
		f.stats, f.statNames = prev.stats, prev.statNames
	}

	return f, copied
}

// copyRows deep-copies a map of row pointers; row structs are flat, so
// a struct copy is a full copy.
func copyRows[K comparable, R any](m map[K]*R) map[K]*R {
	out := make(map[K]*R, len(m))
	for k, v := range m {
		c := *v
		out[k] = &c
	}
	return out
}

// copyRowSlice deep-copies a slice of row pointers.
func copyRowSlice[R any](s []*R) []*R {
	out := make([]*R, len(s))
	for i, v := range s {
		c := *v
		out[i] = &c
	}
	return out
}

// copyVals copies a map of plain (non-reference) values.
func copyVals[K comparable, V comparable](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// copySlices copies a map of slices, cloning each slice.
func copySlices[K comparable, E any](m map[K][]E) map[K][]E {
	out := make(map[K][]E, len(m))
	for k, v := range m {
		out[k] = append([]E(nil), v...)
	}
	return out
}

// Frozen reports whether d is an immutable snapshot from Reader.
func (d *DB) Frozen() bool { return d.isFrozen }
