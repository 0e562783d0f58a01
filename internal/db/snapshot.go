package db

import (
	"maps"
	"time"
)

// MVCC-lite snapshots: retrievals run against an immutable frozen copy
// of the database instead of holding the shared lock, so reads never
// block the writer and a reader observes one committed state for its
// whole query — no torn multi-table views.
//
// The scheme is copy-on-write, rebuilt lazily, and sized to Moira's
// traffic: a large read-mostly catalogue with a trickle of one-row
// writes. It has one rule, and every relation and every index keeps it
// because every one of them is a paged table (table.go):
//
//   - Every mutation advances the global write epoch (bump) and stamps
//     the pages it changes with it: the page of a row it inserts,
//     deletes or updates in place (NoteUpdate takes the row, not the
//     table, so there is no way to change a row without stamping it),
//     and the page of every index bucket whose entries it changes.
//     Mutations happen under the exclusive lock — the journal's global
//     ordering requires a single writer.
//   - Reader() returns the current frozen snapshot if its build epoch
//     still matches the write epoch (the no-new-commits fast path: one
//     atomic load). Otherwise it rebuilds: take the shared lock (which
//     only waits out an in-flight commit) and freeze every table, which
//     copies the pages stamped newer than the previous snapshot's build
//     epoch and shares every other page with the previous snapshot. One
//     write therefore costs the next reader the pages it touched,
//     whatever the relation and whatever the population.
//
// Lazy rebuild is the load-bearing choice: publishing a snapshot per
// commit would charge every write its copies, while rebuild-on-read
// charges one rebuild per write→read transition no matter how many
// writes batched up in between. Write-only phases (bulk load, replay)
// cost zero copies.
//
// A frozen page copies its rows by value, and sharing is always with
// the previous frozen snapshot, never with live pages. A row that holds
// a slice (an index bucket, a list's membership rows) shares its backing
// array with the live row, so live mutations never write an element a
// frozen copy can see: they append past the slice's end or replace the
// slice (push and pull in table.go). The sorted name caches are shared
// by the live database and its snapshots and keyed by the stamp of the
// index they were read from. The isFrozen latch makes every mutation
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

// Epoch reports the write epoch a snapshot from Reader() was frozen at.
// Of two snapshots of one database the one with the larger epoch is the
// newer; snapshots with equal epochs are the same snapshot.
func (d *DB) Epoch() int64 { return d.builtEpoch }

// SnapshotStats reports how many Reader calls were served and how many
// had to rebuild the frozen snapshot (the difference is cache hits).
func (d *DB) SnapshotStats() (reads, rebuilds int64) {
	return d.snapReads.Load(), d.snapRebuilds.Load()
}

// freeze builds a new frozen snapshot from the live database, sharing
// with prev every page not stamped newer than prev's build epoch, and
// reports how many rows it copied. Called with at least the shared lock
// held; prev may be nil (copy everything).
func (d *DB) freeze(prev *DB) (*DB, int) {
	if prev == nil {
		prev = &DB{builtEpoch: -1} // older than every stamp: shares nothing
	}
	f := &DB{
		clk:        d.clk,
		isFrozen:   true,
		seqCounter: d.seqCounter,
		tableSeq:   maps.Clone(d.tableSeq),
		// ops is shared: frozen code never writes it (Note* panics via
		// bump) and BindStats is only ever bound on the live DB.
		ops: d.ops,
		// lookups is shared too: retrievals run on snapshots, and their
		// probes must land in the live DB's tallies.
		lookups: d.lookups,
	}
	f.adoptions.Store(d.adoptions.Load())
	copied := 0
	for _, rel := range relationList {
		copied += rel.freeze(&f.relations, &d.relations, &prev.relations, prev.builtEpoch)
	}
	return f, copied
}

// Diff calls fn(old, new) for every row of the relation named table that
// differs between old and new, two snapshots from Reader() of one
// database, until fn returns false; it returns how many pages it
// compared. A row is a *R of the relation's row type (a *Member for the
// members relation, one call per membership added or removed); the side
// that lacks the row is nil. Branches and pages the two snapshots share
// are skipped by pointer identity and rows equal in every column are not
// reported, so the cost is what changed, and Diff allocates nothing
// beyond what fn does.
func Diff(table string, old, new *DB, fn func(o, n any) bool) int {
	for _, rel := range relationList {
		if rel.tableName() == table {
			return rel.diff(&old.relations, &new.relations, fn)
		}
	}
	panic("db: Diff of an unknown relation")
}

// Frozen reports whether d is an immutable snapshot from Reader.
func (d *DB) Frozen() bool { return d.isFrozen }
