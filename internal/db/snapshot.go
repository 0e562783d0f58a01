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
// writes. It has two rules, and every relation and every index keeps
// them because every one of them is a paged table (table.go):
//
//   - Every mutation advances the global write epoch (bump) and stamps
//     the pages it changes with it: the page of a row it inserts,
//     deletes or updates in place (NoteUpdate takes the row, not the
//     table, so there is no way to change a row without stamping it),
//     and the page of every index bucket whose entries it changes.
//     Mutations happen under the exclusive lock — the journal's global
//     ordering requires a single writer.
//   - A snapshot shares its rows with the live database, so the live
//     side writes in place only a row it has put or copied since the
//     latest freeze. An in-place update starts with Edit, which copies
//     a shared row into its slot (path copying, applied to the row);
//     NoteUpdate and SetKey panic on a row that is still shared, so an
//     update that skips Edit fails loudly rather than rewriting a
//     snapshot. Index buckets and membership slices follow the same rule
//     for their headers.
//
// Reader() returns the current frozen snapshot if its build epoch still
// matches the write epoch (the no-new-commits fast path: one atomic
// load). Otherwise it rebuilds: take the shared lock (which only waits
// out an in-flight commit) and freeze every table, which copies the row
// pointers of the pages stamped newer than the previous snapshot's build
// epoch and shares every other page with the previous snapshot. One
// write therefore costs the writer a copy of each row it edits and the
// next reader the pages it touched, whatever the relation and whatever
// the population; the first Reader() costs the pages, not the rows.
//
// Lazy rebuild is the load-bearing choice: publishing a snapshot per
// commit would charge every write its copies, while rebuild-on-read
// charges one rebuild per write→read transition no matter how many
// writes batched up in between. Write-only phases (bulk load, replay)
// cost zero copies.
//
// Pages are shared only with the previous frozen snapshot, never with
// live pages; rows are shared with both. The trade-off is what an old
// snapshot keeps alive: the rows later writes replaced, one per edited
// row, rather than a copy of every row of each touched page. A row that holds a slice (an index bucket, a list's
// membership rows) shares its backing array with every copy of the row,
// so live mutations never write an element a frozen copy can see: they
// append past the slice's end or replace the slice (push and pull in
// table.go). The sorted name caches are shared by the live database and
// its snapshots and keyed by the stamp of the index they were read from.
// The isFrozen latch makes every mutation accessor panic on a snapshot,
// so a retrieve handler that mutates is a loud bug, not silent
// corruption.

// bump advances the write epoch for a mutation and returns the stamp for
// whatever the caller is changing: the new epoch, and the build epoch of
// the latest frozen generation. It invalidates the served snapshot.
// Caller holds the exclusive lock.
func (d *DB) bump() stamp {
	if d.isFrozen {
		panic("db: mutation of a frozen snapshot (retrieve handlers must not write)")
	}
	return stamp{epoch: d.writeEpoch.Add(1), frozen: d.sharedEpoch, copies: &d.snapRowsCopied}
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
	f := d.freeze(d.frozen.Load())
	d.mu.RUnlock()
	if h := d.freezeHist.Load(); h != nil {
		h.Observe(time.Since(start))
	}
	d.snapRebuilds.Add(1)
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

// freeze builds a new frozen snapshot from the live database at the
// current write epoch, sharing with prev every page not stamped newer
// than prev's build epoch, and records that epoch as the one before which
// every live row is shared. It is recorded here, under the shared lock:
// a writer that ran between the lock's release and the snapshot's
// publication would otherwise take a row the snapshot holds for private.
// Called with the shared lock and rebuildMu held; prev may be nil (copy
// every page).
func (d *DB) freeze(prev *DB) *DB {
	if prev == nil {
		prev = &DB{builtEpoch: -1} // older than every stamp: shares nothing
	}
	f := &DB{
		clk:        d.clk,
		isFrozen:   true,
		builtEpoch: d.writeEpoch.Load(), // stable: writers are blocked
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
	for _, rel := range relationList {
		rel.freeze(&f.relations, &d.relations, &prev.relations, prev.builtEpoch)
	}
	d.sharedEpoch = f.builtEpoch
	return f
}

// Diff calls fn(old, new) for every row of the relation named table that
// differs between old and new, two snapshots from Reader() of one
// database, until fn returns false; it returns how many pages it
// compared. A row is a *R of the relation's row type (a *Member for the
// members relation, one call per membership added or removed); the side
// that lacks the row is nil. Branches, pages and rows the two snapshots
// share are skipped by pointer identity, and a row whose pointer differs
// (edited or replaced) but is equal in every column is not reported, so
// the cost is what changed, and Diff allocates nothing beyond what fn
// does.
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
