package db

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// table is the one container every relation and every index lives in,
// on the live database and on frozen snapshots alike: a three-level
// radix layout — a root slice of branches, each branch branchFanout
// pages, each page fanout row pointers — addressed by an integer id alone
// (split). Ascending-id iteration falls out of walking it in order, so a
// relation needs no separate ordered-id index. Relations without an
// integer key of their own file their rows under surrogate ids (nextID);
// an index files its buckets under the key's slot (hashIndex).
//
// Every node carries the write epoch of the last mutation beneath it.
// That stamp is what makes snapshots page-granular: freeze shares with
// the previous frozen generation every node whose stamp is not newer
// than that generation's build epoch and copies only the others, so a
// one-row update costs the next reader one page of row pointers plus the
// branch and root above it, whatever the relation's population. The
// stamps are only ordered within one database's epoch domain; restamp
// moves an adopted table into another's.
//
// Rows are copy-on-write, and the copy falls to the writer: a frozen page
// holds the same row pointers as the live page it was copied from, so
// the live table may write in place only a row it has put or copied since
// the latest freeze. Each live page keeps a mask of those private rows
// (page.mine); edit copies a shared row into its slot before the caller
// writes it, and touch refuses a row that is still shared. A row that
// holds a slice (an index bucket, a list's membership rows) shares its
// backing array with its frozen copies too: push appends past the end,
// everything else builds a new slice.
//
// Mutators take the stamp to write with; the caller holds the exclusive
// lock. The zero table is empty and ready to use.
type table[R any] struct {
	root  []*branch[R]
	n     int   // rows
	stamp int64 // write epoch of the last mutation anywhere in the table
}

// A page is small, because a touched page is what a write→read
// transition copies; a branch is wide, because the root above the
// touched branches is copied whole and grows with the highest id.
const (
	pageBits     = 5
	fanout       = 1 << pageBits // rows per page
	slotMask     = fanout - 1
	branchBits   = 7
	branchFanout = 1 << branchBits // pages per branch

	// maxRowID bounds the root slice: ids are INGRES-style 32-bit keys,
	// and an id beyond that is corrupt input, not a reason to allocate a
	// root with billions of slots.
	maxRowID = 1<<31 - 1
)

type branch[R any] struct {
	stamp int64
	n     int // non-nil pages
	pages [branchFanout]*page[R]
}

type page[R any] struct {
	stamp int64
	n     int // non-nil rows
	// mine has a bit for every row the live table put or copied since the
	// latest freeze: the rows no frozen generation shares. It counts only
	// while stamp is newer than that freeze (private).
	mine uint32
	rows [fanout]*R
}

// stamp is what a mutation writes with: its write epoch, which it stamps
// on the nodes it changes, and frozen, the build epoch of the latest
// frozen generation, which shares every row of a page stamped no later.
// copies counts the rows mutations copy because a frozen generation
// shares them.
type stamp struct {
	epoch, frozen int64
	copies        *atomic.Int64
}

// private reports whether slot si of p holds a row no frozen generation
// shares.
func (p *page[R]) private(si int, frozen int64) bool {
	return p.stamp > frozen && p.mine&(1<<si) != 0
}

// write stamps p with w's epoch, first dropping its mask when the latest
// frozen generation shares every row the page holds.
func (p *page[R]) write(w stamp) {
	if p.stamp <= w.frozen {
		p.mine = 0
	}
	p.stamp = w.epoch
}

// split returns the root, branch and page indexes of id's slot.
func split(id int) (bi, pi, si int) {
	return id >> (pageBits + branchBits), id >> pageBits & (branchFanout - 1), id & slotMask
}

// join is split's inverse.
func join(bi, pi, si int) int { return bi<<(pageBits+branchBits) | pi<<pageBits | si }

// validRowID reports whether id can key a paged relation.
func validRowID(id int) bool { return id >= 0 && id <= maxRowID }

// locate returns the branch and page holding id's slot, nil when the
// slot's page does not exist.
func (t *table[R]) locate(id int) (*branch[R], *page[R]) {
	bi, pi, _ := split(id)
	if id < 0 || bi >= len(t.root) || t.root[bi] == nil {
		return nil, nil
	}
	b := t.root[bi]
	return b, b.pages[pi]
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

// put stores r, a row no frozen generation holds, under id, replacing
// any row already there. The caller has checked validRowID(id).
func (t *table[R]) put(id int, r *R, w stamp) {
	bi, pi, si := split(id)
	if bi >= len(t.root) {
		t.root = append(t.root, make([]*branch[R], bi+1-len(t.root))...)
	}
	b := t.root[bi]
	if b == nil {
		b = &branch[R]{}
		t.root[bi] = b
	}
	p := b.pages[pi]
	if p == nil {
		p = &page[R]{}
		b.pages[pi] = p
		b.n++
	}
	if p.rows[si] == nil {
		p.n++
		t.n++
	}
	p.rows[si] = r
	p.write(w)
	p.mine |= 1 << si
	t.stamp, b.stamp = w.epoch, w.epoch
}

// del removes the row with the given id, if present, dropping pages and
// branches that empty out.
func (t *table[R]) del(id int, w stamp) {
	b, p := t.locate(id)
	bi, pi, si := split(id)
	if p == nil || p.rows[si] == nil {
		return
	}
	p.rows[si] = nil
	p.n--
	t.n--
	p.write(w)
	p.mine &^= 1 << si
	t.stamp, b.stamp = w.epoch, w.epoch
	if p.n == 0 {
		b.pages[pi] = nil
		if b.n--; b.n == 0 {
			t.root[bi] = nil
		}
	}
}

// touch records an in-place mutation of row r, which must be the row
// stored under id and private to the live table. Handing it a copy, or a
// row read from a snapshot, means the mutation went somewhere no reader
// will ever see; handing it a row a frozen generation shares means the
// mutation changed that generation too (edit first). Only a bug does
// either.
func (t *table[R]) touch(id int, r *R, w stamp) {
	if t.shared(id, r, w.frozen) {
		panic("db: update noted for a row a snapshot shares (Edit it before writing)")
	}
	b, p := t.locate(id)
	t.stamp, b.stamp, p.stamp = w.epoch, w.epoch, w.epoch
}

// shared reports whether the row r stored under id is shared with a
// frozen generation built at frozen. r must be the row stored under id.
func (t *table[R]) shared(id int, r *R, frozen int64) bool {
	_, p := t.locate(id)
	if p == nil || p.rows[id&slotMask] != r {
		panic("db: update noted for a row that is not in its relation")
	}
	return !p.private(id&slotMask, frozen)
}

// edit stamps the slot of id, which must hold r, and returns its row for
// the caller to write in place: r itself when it is private to the live
// table, else a copy of r put in the slot, leaving r to the frozen
// generations that share it.
func (t *table[R]) edit(id int, r *R, w stamp) *R {
	if !t.shared(id, r, w.frozen) {
		t.touch(id, r, w)
		return r
	}
	c := new(R)
	*c = *r
	t.put(id, c, w)
	w.copies.Add(1)
	return c
}

// each calls fn for every row in ascending id order until fn returns
// false. fn must not insert or delete rows.
func (t *table[R]) each(fn func(*R) bool) {
	t.eachID(func(_ int, r *R) bool { return fn(r) })
}

// eachID is each with every row's id.
func (t *table[R]) eachID(fn func(int, *R) bool) {
	for bi, b := range t.root {
		if b == nil {
			continue
		}
		for pi, p := range b.pages {
			if p == nil {
				continue
			}
			for si, r := range p.rows {
				if r != nil && !fn(join(bi, pi, si), r) {
					return
				}
			}
		}
	}
}

// nextID returns one past the highest id in the table, 0 when it is
// empty: the surrogate id of a relation's next row, so that ascending id
// order is insertion (or load) order.
func (t *table[R]) nextID() int {
	for bi := len(t.root) - 1; bi >= 0; bi-- {
		if b := t.root[bi]; b != nil {
			for pi := branchFanout - 1; pi >= 0; pi-- {
				if p := b.pages[pi]; p != nil {
					for si := fanout - 1; si >= 0; si-- {
						if p.rows[si] != nil {
							return join(bi, pi, si) + 1
						}
					}
				}
			}
		}
	}
	return 0
}

// push files e under key in a table whose rows are slices, appending
// past the end of the key's slice (see the type comment).
func push[E any](t *table[[]E], key int, e E, w stamp) {
	if s, ok := t.get(key); ok {
		s = t.edit(key, s, w)
		*s = append(*s, e)
		return
	}
	s := []E{e}
	t.put(key, &s, w)
}

// pull removes the first element of key's slice that match accepts.
// What is left goes into a new slice, so that a frozen copy of the old
// one keeps its elements.
func pull[E any](t *table[[]E], key int, match func(E) bool, w stamp) {
	s, ok := t.get(key)
	if !ok {
		return
	}
	switch i := slices.IndexFunc(*s, match); {
	case i < 0:
	case len(*s) == 1:
		t.del(key, w)
	default:
		s = t.edit(key, s, w)
		*s = slices.Concat((*s)[:i], (*s)[i+1:])
	}
}

// diff calls fn(old, new) for every slot whose row pointer differs
// between a and b, two frozen generations of one table (nil for a row
// the generation lacks), in ascending id order until fn returns false,
// and returns how many pages it compared. freeze hands a later
// generation every node that did not change since the earlier one, so a
// root, branch or page the two share is skipped by pointer identity and
// the walk costs what changed. Within a page that differs, the two share
// every row no write copied or replaced, so a differing pointer is a row
// that was edited, replaced, added or deleted; it reaches fn even when
// the values are equal (an edit may write what was there), and the
// caller compares them.
func (a *table[R]) diff(b *table[R], fn func(o, n *R) bool) (pages int) {
	if len(a.root) == len(b.root) && (len(a.root) == 0 || &a.root[0] == &b.root[0]) {
		return 0
	}
	for bi := 0; bi < max(len(a.root), len(b.root)); bi++ {
		ba, bb := nodeAt(a.root, bi), nodeAt(b.root, bi)
		if ba == bb {
			continue
		}
		for pi := 0; pi < branchFanout; pi++ {
			var pa, pb *page[R]
			if ba != nil {
				pa = ba.pages[pi]
			}
			if bb != nil {
				pb = bb.pages[pi]
			}
			if pa == pb {
				continue
			}
			pages++
			for si := 0; si < fanout; si++ {
				var ra, rb *R
				if pa != nil {
					ra = pa.rows[si]
				}
				if pb != nil {
					rb = pb.rows[si]
				}
				if ra != rb && !fn(ra, rb) {
					return pages
				}
			}
		}
	}
	return pages
}

// nodeAt returns root[i], nil past the end.
func nodeAt[R any](root []*branch[R], i int) *branch[R] {
	if i < len(root) {
		return root[i]
	}
	return nil
}

// audit checks the table's own invariants — every row sits in the slot
// its id selects, and the node counts add up to the row count —
// reporting each violation through fsck's add under the relation's name.
// id extracts a row's primary key; it is nil for rows that do not carry
// their id (surrogate ids, index buckets).
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
				if slot := join(bi, pi, si); id != nil && id(r) != slot {
					add(relation, fmt.Sprintf("id %d", id(r)), "row sits in the page slot of id %d", slot)
				}
			}
			if n != p.n || n == 0 {
				add(relation, fmt.Sprintf("page %d", bi<<branchBits|pi), "page counts %d rows, holds %d", p.n, n)
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

// restamp marks every node as mutated at epoch and every row as shared:
// the table's stamps and masks came from another database's epoch domain
// (AdoptFrom, a load), so no page may be taken to match any earlier frozen
// generation, and no row to be one no snapshot holds.
func (t *table[R]) restamp(epoch int64) {
	t.stamp = epoch
	for _, b := range t.root {
		if b == nil {
			continue
		}
		b.stamp = epoch
		for _, p := range b.pages {
			if p != nil {
				p.stamp, p.mine = epoch, 0
			}
		}
	}
}

// freeze returns an immutable copy of t for a snapshot. prev is the
// previous frozen generation of the same table, built when the write
// epoch was since (an empty table and -1 to copy everything). A node
// whose stamp is not newer than since has not changed since prev copied
// it, so prev's node stands in for it; every other node is copied from
// live into fresh memory. A page copy holds the live page's row pointers:
// the rows themselves are shared, and the live table copies one before it
// writes it (edit). Caller holds at least the shared lock.
func (t *table[R]) freeze(prev *table[R], since int64) table[R] {
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
			fb.pages[pi] = &page[R]{stamp: p.stamp, n: p.n, rows: p.rows}
		}
		f.root[bi] = fb
	}
	return f
}
