package db

import (
	"fmt"
	"slices"
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
	rows  [fanout]*R
}

// frozenPage is a frozen page and its rows in one allocation of a fixed
// size: what a write→read transition pays for a touched page does not
// depend on how full the page is.
type frozenPage[R any] struct {
	page[R]
	slab [fanout]R
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

// put stores r under id, replacing any row already there. The caller
// has checked validRowID(id).
func (t *table[R]) put(id int, r *R, epoch int64) {
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
	t.stamp, b.stamp, p.stamp = epoch, epoch, epoch
}

// del removes the row with the given id, if present, dropping pages and
// branches that empty out.
func (t *table[R]) del(id int, epoch int64) {
	b, p := t.locate(id)
	bi, pi, si := split(id)
	if p == nil || p.rows[si] == nil {
		return
	}
	p.rows[si] = nil
	p.n--
	t.n--
	t.stamp, b.stamp, p.stamp = epoch, epoch, epoch
	if p.n == 0 {
		b.pages[pi] = nil
		if b.n--; b.n == 0 {
			t.root[bi] = nil
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
func push[E any](t *table[[]E], key int, e E, epoch int64) {
	if s, ok := t.get(key); ok {
		*s = append(*s, e)
		t.touch(key, s, epoch)
		return
	}
	s := []E{e}
	t.put(key, &s, epoch)
}

// pull removes the first element of key's slice that match accepts.
// What is left goes into a new slice, so that a frozen copy of the old
// one keeps its elements.
func pull[E any](t *table[[]E], key int, match func(E) bool, epoch int64) {
	s, ok := t.get(key)
	if !ok {
		return
	}
	switch i := slices.IndexFunc(*s, match); {
	case i < 0:
	case len(*s) == 1:
		t.del(key, epoch)
	default:
		*s = slices.Concat((*s)[:i], (*s)[i+1:])
		t.touch(key, s, epoch)
	}
}

// diff calls fn(old, new) for every slot whose row pointer differs
// between a and b, two frozen generations of one table (nil for a row
// the generation lacks), in ascending id order until fn returns false,
// and returns how many pages it compared. freeze hands a later
// generation every node that did not change since the earlier one, so a
// root, branch or page the two share is skipped by pointer identity and
// the walk costs what changed. Rows of a page that was re-copied reach fn
// even when their values are equal; the caller compares them.
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
// other node is copied from live into fresh memory, rows by value (see
// the type comment for what that means for rows holding slices). Caller
// holds at least the shared lock.
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
			// The page and its rows are one allocation: a frozen page's
			// rows live and die together.
			fp := &frozenPage[R]{page: page[R]{stamp: p.stamp, n: p.n}}
			for i, r := range p.rows {
				if r != nil {
					fp.slab[i] = *r
					fp.rows[i] = &fp.slab[i]
				}
			}
			*copied += p.n
			fb.pages[pi] = &fp.page
		}
		f.root[bi] = fb
	}
	return f
}
