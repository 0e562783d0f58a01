package db

import "fmt"

// table is the one container every integer-keyed relation lives in, on
// the live database and on frozen snapshots alike: a three-level radix
// layout — a root slice of branches, each branch fanout pages, each page
// fanout row pointers — addressed by the row id alone (id >> pageBits
// selects the page). Ascending-id iteration falls out of walking it in
// order, so the relation needs no separate ordered-id index.
//
// Every node carries the write epoch of the last mutation beneath it.
// That stamp is what makes snapshots page-granular: freeze shares with
// the previous frozen generation every node whose stamp is not newer
// than that generation's build epoch and deep-copies only the others,
// so a one-row update costs one page of row copies plus the branch and
// root above it, whatever the relation's population. The stamps are
// only ordered within one database's epoch domain; restamp moves an
// adopted table into another's.
//
// Mutators take the epoch to stamp with; the caller holds the exclusive
// lock. The zero table is empty and ready to use.
type table[R any] struct {
	root  []*branch[R]
	n     int   // rows
	stamp int64 // write epoch of the last mutation anywhere in the table
}

const (
	pageBits = 6
	fanout   = 1 << pageBits // slots per page and pages per branch
	slotMask = fanout - 1

	// maxRowID bounds the root slice: ids are INGRES-style 32-bit keys,
	// and an id beyond that is corrupt input, not a reason to allocate a
	// root with billions of slots.
	maxRowID = 1<<31 - 1
)

type branch[R any] struct {
	stamp int64
	n     int // non-nil pages
	pages [fanout]*page[R]
}

type page[R any] struct {
	stamp int64
	n     int // non-nil rows
	rows  [fanout]*R
}

// validRowID reports whether id can key a paged relation.
func validRowID(id int) bool { return id >= 0 && id <= maxRowID }

// locate returns the branch and page holding id's slot, nil when the
// slot's page does not exist.
func (t *table[R]) locate(id int) (*branch[R], *page[R]) {
	bi := id >> (2 * pageBits)
	if id < 0 || bi >= len(t.root) || t.root[bi] == nil {
		return nil, nil
	}
	b := t.root[bi]
	return b, b.pages[id>>pageBits&slotMask]
}

// get returns the row with the given id.
func (t *table[R]) get(id int) (*R, bool) {
	if _, p := t.locate(id); p != nil {
		if r := p.rows[id&slotMask]; r != nil {
			return r, true
		}
	}
	return nil, false
}

// len reports the row count.
func (t *table[R]) len() int { return t.n }

// put stores r under id, replacing any row already there. The caller
// has checked validRowID(id).
func (t *table[R]) put(id int, r *R, epoch int64) {
	bi := id >> (2 * pageBits)
	if bi >= len(t.root) {
		t.root = append(t.root, make([]*branch[R], bi+1-len(t.root))...)
	}
	b := t.root[bi]
	if b == nil {
		b = &branch[R]{}
		t.root[bi] = b
	}
	pi := id >> pageBits & slotMask
	p := b.pages[pi]
	if p == nil {
		p = &page[R]{}
		b.pages[pi] = p
		b.n++
	}
	if p.rows[id&slotMask] == nil {
		p.n++
		t.n++
	}
	p.rows[id&slotMask] = r
	t.stamp, b.stamp, p.stamp = epoch, epoch, epoch
}

// del removes the row with the given id, if present, dropping pages and
// branches that empty out.
func (t *table[R]) del(id int, epoch int64) {
	b, p := t.locate(id)
	if p == nil || p.rows[id&slotMask] == nil {
		return
	}
	p.rows[id&slotMask] = nil
	p.n--
	t.n--
	t.stamp, b.stamp, p.stamp = epoch, epoch, epoch
	if p.n == 0 {
		b.pages[id>>pageBits&slotMask] = nil
		if b.n--; b.n == 0 {
			t.root[id>>(2*pageBits)] = nil
		}
	}
}

// touch records an in-place mutation of row r, which must be the row
// stored under id: handing it a copy, or a row read from a snapshot,
// means the mutation went somewhere no reader will ever see, which only
// a bug can do.
func (t *table[R]) touch(id int, r *R, epoch int64) {
	b, p := t.locate(id)
	if p == nil || p.rows[id&slotMask] != r {
		panic("db: update noted for a row that is not in its relation")
	}
	t.stamp, b.stamp, p.stamp = epoch, epoch, epoch
}

// each calls fn for every row in ascending id order until fn returns
// false. fn must not insert or delete rows.
func (t *table[R]) each(fn func(*R) bool) {
	for _, b := range t.root {
		if b == nil {
			continue
		}
		for _, p := range b.pages {
			if p == nil {
				continue
			}
			for _, r := range p.rows {
				if r != nil && !fn(r) {
					return
				}
			}
		}
	}
}

// audit checks the table's own invariants — every row sits in the slot
// its id selects, and the node counts add up to the row count —
// reporting each violation through fsck's add under the relation's name.
// id extracts a row's primary key.
func (t *table[R]) audit(relation string, id func(*R) int, add func(table, item, format string, args ...any)) {
	rows := 0
	for bi, b := range t.root {
		if b == nil {
			continue
		}
		pages := 0
		for pi, p := range b.pages {
			if p == nil {
				continue
			}
			pages++
			n := 0
			for si, r := range p.rows {
				if r == nil {
					continue
				}
				n++
				slot := bi<<(2*pageBits) | pi<<pageBits | si
				if got := id(r); got != slot {
					add(relation, fmt.Sprintf("id %d", got), "row sits in the page slot of id %d", slot)
				}
			}
			if n != p.n || n == 0 {
				add(relation, fmt.Sprintf("page %d", bi<<pageBits|pi), "page counts %d rows, holds %d", p.n, n)
			}
			rows += n
		}
		if pages != b.n || pages == 0 {
			add(relation, fmt.Sprintf("branch %d", bi), "branch counts %d pages, holds %d", b.n, pages)
		}
	}
	if rows != t.n {
		add(relation, "row count", "relation counts %d rows, its pages hold %d", t.n, rows)
	}
}

// restamp marks every node as mutated at epoch: the table's stamps came
// from another database's epoch domain (AdoptFrom, a load), so no page
// may be taken to match any earlier frozen generation.
func (t *table[R]) restamp(epoch int64) {
	t.stamp = epoch
	for _, b := range t.root {
		if b == nil {
			continue
		}
		b.stamp = epoch
		for _, p := range b.pages {
			if p != nil {
				p.stamp = epoch
			}
		}
	}
}

// freeze returns an immutable copy of t for a snapshot, adding the number
// of rows it had to copy to *copied. prev is the previous frozen generation of the
// same table, built when the write epoch was since (an empty table and
// -1 to copy everything). A node whose stamp is not newer than since has not
// changed since prev copied it, so prev's node stands in for it; every
// other node is copied from live into fresh memory. Nothing is ever
// shared between t and the result. Caller holds at least the shared
// lock.
func (t *table[R]) freeze(prev *table[R], since int64, copied *int) table[R] {
	if t.stamp <= since {
		return *prev
	}
	f := table[R]{root: make([]*branch[R], len(t.root)), n: t.n, stamp: t.stamp}
	for bi, b := range t.root {
		if b == nil {
			continue
		}
		if b.stamp <= since {
			f.root[bi] = prev.root[bi]
			continue
		}
		fb := &branch[R]{stamp: b.stamp, n: b.n}
		for pi, p := range b.pages {
			if p == nil {
				continue
			}
			if p.stamp <= since {
				fb.pages[pi] = prev.root[bi].pages[pi]
				continue
			}
			// One slab per page rather than one allocation per row: a
			// frozen page's rows live and die together.
			fp := &page[R]{stamp: p.stamp, n: p.n}
			slab := make([]R, 0, p.n)
			for i, r := range p.rows {
				if r != nil {
					slab = append(slab, *r)
					fp.rows[i] = &slab[len(slab)-1]
				}
			}
			*copied += p.n
			fb.pages[pi] = fp
		}
		f.root[bi] = fb
	}
	return f
}
