package db

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"moira/internal/wildcard"
)

// Secondary indexes: derived, in-memory structures that turn the query
// layer's hot retrieval shapes — point lookup by login, uid or label,
// wildcard retrieval by name, the lists a member is on — from
// full-table scans with per-call sorts into index probes. (Ordered
// iteration by primary key needs no index: the paged table in table.go
// iterates in id order.) Every index is a hashIndex, itself a paged
// table stamped and frozen like the rows, whose key type picks the
// slot: a row id is its own slot, a string its hash, a uid its low
// bits. Index state is never persisted: the journal and checkpoints carry only rows,
// and every load path (restore, replay, AdoptFrom) re-derives the
// indexes from the rows it installs via rebuildIndexes. Fsck verifies
// index ↔ row agreement, so a maintenance bug surfaces as a boot-time
// finding instead of silently wrong query results.

// hashBits is how many bits of a key's hash pick its bucket: 16,384
// buckets, so a 100,000-key index holds about six keys a bucket and
// takes less memory than a Go map of the same keys. Wider hashes spread
// the keys over more, emptier buckets and cost more.
const hashBits = 14

// hashKey is a key type a hashIndex can file under: a string, hashed;
// a row id, which is its own slot; or a uid, which users choose and so
// need not fit a table's id range.
type hashKey interface {
	comparable
	slot() int
	// fixed reports whether the keys hash into a fixed, small set of
	// slots, as strings do; ids and uids name their own (see remove).
	fixed() bool
	// valid reports whether the key can be filed: an id must be one a
	// table can hold.
	valid() bool
}

type (
	strKey string
	idKey  int
	uidKey int
)

// fnv32 is the FNV-1a basis and prime. The hash is fixed, not seeded:
// a key's slot is the same in every process.
const (
	fnvBasis = 2166136261
	fnvPrime = 16777619
)

func (strKey) fixed() bool { return true }
func (idKey) fixed() bool  { return false }
func (uidKey) fixed() bool { return false }

func (strKey) valid() bool  { return true }
func (k idKey) valid() bool { return validRowID(int(k)) }
func (uidKey) valid() bool  { return true }

func (k strKey) slot() int {
	h := uint32(fnvBasis)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint32(k[i])) * fnvPrime
	}
	return int(h >> (32 - hashBits))
}

// An id index is a table keyed by the id itself, so it walks in id
// order. The caller has checked validRowID.
func (k idKey) slot() int { return int(k) }

// uidBits is how many low bits of a uid pick its slot: every uid below
// 2^20 has a slot of its own, so a uid index is keyed by the uid, and a
// negative or larger uid still lands in the table's id range.
const uidBits = 20

func (k uidKey) slot() int { return int(uint(k) & (1<<uidBits - 1)) }

// entry files one id under one key.
type entry[K hashKey] struct {
	key K
	id  int
}

// hashIndex files ids under keys: a table whose row at slot s is the
// bucket of every (key, id) entry whose key hashes to s. A key may carry
// several ids (filesystem labels, uids); unique indexes check before
// they add. A bucket's entries are small and immutable: a mutation
// builds an exactly sized new slice and never edits one in place. The
// bucket's header is rewritten in place only while no frozen generation
// shares it; otherwise the new slice goes into a new header (set).
type hashIndex[K hashKey] struct {
	table[[]entry[K]]
	// spare holds preallocated bucket headers, each with room for one
	// entry: for keys landing in an empty slot, so that a sparse index (a
	// small population) does not pay an allocation per insert, and for
	// the new header of a bucket a frozen generation shares. Only the live
	// index takes from it. It sits behind a pointer because every frozen
	// snapshot carries the index's header and leaves it nil.
	spare *[]box[K]
}

// box is a bucket's slice header and room for its first entry in one
// allocation.
type box[K hashKey] struct {
	b     []entry[K]
	first [1]entry[K]
}

// under calls fn for every id filed under k, in order, until fn returns
// false; it reports whether fn did.
func (x *hashIndex[K]) under(k K, fn func(id int) bool) bool {
	if b, ok := x.get(k.slot()); ok {
		for _, e := range *b {
			if e.key == k && !fn(e.id) {
				return false
			}
		}
	}
	return true
}

// find returns the first id filed under k that match accepts, -1 when
// there is none.
func (x *hashIndex[K]) find(k K, match func(id int) bool) int {
	found := -1
	x.under(k, func(id int) bool {
		if match(id) {
			found = id
		}
		return found < 0
	})
	return found
}

// lookup returns the first id filed under k (-1, false when none).
func (x *hashIndex[K]) lookup(k K) (int, bool) {
	if b, ok := x.get(k.slot()); ok {
		for _, e := range *b {
			if e.key == k {
				return e.id, true
			}
		}
	}
	return -1, false
}

// appendIDs appends every id filed under k to dst.
func (x *hashIndex[K]) appendIDs(dst []int, k K) []int {
	x.under(k, func(id int) bool { dst = append(dst, id); return true })
	return dst
}

// ids returns the ids filed under k in a slice of their number (nil
// when there are none).
func (x *hashIndex[K]) ids(k K) []int {
	n := 0
	x.under(k, func(int) bool { n++; return true })
	if n == 0 {
		return nil
	}
	return x.appendIDs(make([]int, 0, n), k)
}

// add files id under k. The ids under one key stay in the order less
// puts them in (id order when less is nil), so a probe returns them
// sorted.
func (x *hashIndex[K]) add(k K, id int, less func(a, b int) bool, w stamp) {
	slot, e := k.slot(), entry[K]{k, id}
	if b, ok := x.get(slot); ok {
		x.set(slot, b, slices.Insert(slices.Clip(*b), insertAt(*b, e, less), e), w)
		return
	}
	bx := x.box()
	bx.first[0] = e
	bx.b = bx.first[:]
	x.put(slot, &bx.b, w)
}

// box takes a header from spare.
func (x *hashIndex[K]) box() *box[K] {
	if x.spare == nil {
		x.spare = new([]box[K])
	}
	if len(*x.spare) == 0 {
		*x.spare = make([]box[K], fanout)
	}
	bx := &(*x.spare)[0]
	*x.spare = (*x.spare)[1:]
	return bx
}

// set makes s the bucket at slot, whose header is b: in b when the live
// index alone holds it, else in a new header from spare, leaving b to the
// frozen generations that share it.
func (x *hashIndex[K]) set(slot int, b *[]entry[K], s []entry[K], w stamp) {
	if !x.shared(slot, b, w.frozen) {
		*b = s
		x.touch(slot, b, w)
		return
	}
	bx := x.box()
	bx.b = s
	x.put(slot, &bx.b, w)
	w.copies.Add(1)
}

// insertAt returns where e goes in bucket b: among the entries of its
// key, which stay together, in the order add keeps.
func insertAt[K hashKey](b []entry[K], e entry[K], less func(a, b int) bool) int {
	at := len(b)
	for i, o := range b {
		if o.key != e.key {
			continue
		}
		if less == nil && e.id < o.id || less != nil && less(e.id, o.id) {
			return i
		}
		at = i + 1
	}
	return at
}

// eachKey calls fn once for every key in the index.
func (x *hashIndex[K]) eachKey(fn func(K)) {
	x.each(func(b *[]entry[K]) bool {
		for i, e := range *b {
			if i == 0 || (*b)[i-1].key != e.key {
				fn(e.key)
			}
		}
		return true
	})
}

// move refiles id from key old to key k, as a rename does. When both
// buckets keep entries and both change, the two new buckets share one
// allocation.
func (x *hashIndex[K]) move(old, k K, id int, less func(a, b int) bool, w stamp) {
	from, _ := x.get(old.slot())
	to, ok := x.get(k.slot())
	i := -1
	if from != nil {
		i = slices.Index(*from, entry[K]{old, id})
	}
	if !ok || from == to || i < 0 || len(*from) == 1 {
		x.remove(old, id, w)
		x.add(k, id, less, w)
		return
	}
	e := entry[K]{k, id}
	buf := slices.Concat((*from)[:i], (*from)[i+1:], *to, []entry[K]{e})
	n := len(*from) - 1
	rest, moved := buf[:n:n], buf[n:]
	at := insertAt(moved[:len(moved)-1], e, less)
	copy(moved[at+1:], moved[at:len(moved)-1])
	moved[at] = e
	x.set(old.slot(), from, rest, w)
	x.set(k.slot(), to, moved, w)
}

// remove drops id from under k. A bucket of a fixed slot set that
// empties stays, empty: that costs at most one bucket a slot, and a
// removal costs the next reader the same page whether or not it was the
// bucket's last entry. A bucket of a key that names its own slot goes,
// or every id ever deleted would keep one.
func (x *hashIndex[K]) remove(k K, id int, w stamp) {
	slot := k.slot()
	if b, ok := x.get(slot); ok {
		switch i := slices.Index(*b, entry[K]{k, id}); {
		case i < 0:
		case len(*b) == 1 && !k.fixed():
			x.del(slot, w)
		default:
			x.set(slot, b, slices.Concat((*b)[:i], (*b)[i+1:]), w)
		}
	}
}

func (x *hashIndex[K]) freeze(prev *hashIndex[K], since int64) hashIndex[K] {
	return hashIndex[K]{table: x.table.freeze(&prev.table, since)}
}

// audit adds to fsck's findings every bucket entry whose key hashes to
// another slot or sits apart from its key's other entries, and the
// table's own node findings.
func (x *hashIndex[K]) audit(relation, what string, add func(table, item, format string, args ...any)) {
	x.table.audit(relation, nil, add)
	x.eachID(func(slot int, b *[]entry[K]) bool {
		for i, e := range *b {
			if e.key.slot() != slot {
				add(relation, fmt.Sprint(e.key), "%s key sits in hash slot %d, hashes to %d", what, slot, e.key.slot())
			}
			if i > 0 && e.key != (*b)[i-1].key && slices.ContainsFunc((*b)[:i-1], func(o entry[K]) bool { return o.key == e.key }) {
				add(relation, fmt.Sprint(e.key), "%s key's entries are not together in bucket %d", what, slot)
			}
		}
		return true
	})
}

// rowset is a relation's rows, filed under their own id or a surrogate
// id from nextID, and the hashed index on its name column (relation.go):
// a unique name, a login, or a non-unique label or service name. With no
// name column (name nil) the name index stays empty.
type rowset[R any] struct {
	rows   table[R]
	byName hashIndex[strKey]
	name   func(*R) string
	// order sorts the rows sharing a name (nil: by id). The columns it
	// reads are set when a row goes in and never change in place.
	order func(a, b *R) int
	// sorted caches the names in order. It is shared by the live relation
	// and its frozen copies: an entry is good for the index stamp it was
	// built at, whichever of them asks.
	sorted *nameCache
}

func newRowset[R any](name func(*R) string, order func(a, b *R) int) rowset[R] {
	return rowset[R]{name: name, order: order, sorted: &nameCache{}}
}

// less orders two ids filed under one name by order.
func (n *rowset[R]) less(a, b int) bool { return before(&n.rows, n.order, a, b) }

// before orders the ids a and b by order of their rows in rows, by id
// when order is nil.
func before[R any](rows *table[R], order func(a, b *R) int, a, b int) bool {
	if order == nil {
		return a < b
	}
	ra, _ := rows.get(a)
	rb, _ := rows.get(b)
	return order(ra, rb) < 0
}

// byKey returns the first row filed under name.
func (n *rowset[R]) byKey(name string) (*R, bool) {
	_, r, ok := n.find(name)
	return r, ok
}

// find returns the first row filed under name and its id.
func (n *rowset[R]) find(name string) (int, *R, bool) {
	id, _ := n.byName.lookup(strKey(name))
	r, ok := n.rows.get(id)
	return id, r, ok
}

func (n *rowset[R]) insert(id int, r *R, w stamp) {
	n.rows.put(id, r, w)
	if n.name != nil {
		n.byName.add(strKey(n.name(r)), id, n.less, w)
	}
}

// upsert files r under its name, replacing the row that had it, and
// reports whether there was one: the load rule for surrogate-id
// relations, where the name is the key.
func (n *rowset[R]) upsert(r *R, w stamp) bool {
	if id, ok := n.byName.lookup(strKey(n.name(r))); ok {
		n.rows.put(id, r, w)
		return true
	}
	n.insert(n.rows.nextID(), r, w)
	return false
}

func (n *rowset[R]) remove(id int, r *R, w stamp) {
	if n.name != nil {
		n.byName.remove(strKey(n.name(r)), id, w)
	}
	n.rows.del(id, w)
}

// names returns every name in order (from the cache).
func (n *rowset[R]) names() []string { return n.sorted.get(&n.byName) }

// eachRow calls fn for every row filed under name, in order, until fn
// returns false; it reports whether fn did.
func (n *rowset[R]) eachRow(name string, fn func(*R) bool) bool {
	return n.byName.under(strKey(name), func(id int) bool {
		r, ok := n.rows.get(id)
		return !ok || fn(r)
	})
}

// eachByName calls fn for every row in name order until fn returns
// false.
func (n *rowset[R]) eachByName(fn func(*R) bool) {
	for _, name := range n.names() {
		if !n.eachRow(name, fn) {
			return
		}
	}
}

func (n *rowset[R]) freeze(prev *rowset[R], since int64) rowset[R] {
	f := *n
	f.rows, f.byName = n.rows.freeze(&prev.rows, since), n.byName.freeze(&prev.byName, since)
	return f
}

// rebuild re-stamps the rows into w's epoch and derives the name index
// from them.
func (n *rowset[R]) rebuild(w stamp) {
	n.rows.restamp(w.epoch)
	n.byName = hashIndex[strKey]{}
	if n.name != nil {
		n.rows.eachID(func(id int, r *R) bool {
			n.byName.add(strKey(n.name(r)), id, n.less, w)
			return true
		})
	}
	n.byName.restamp(w.epoch)
}

// nameCache is a lazily built, ordered name index: the sorted keys of a
// hashIndex, used for wildcard range scans and name-order walks. It is
// rebuilt on first use after the index's keys change (its stamp moves)
// rather than maintained per mutation — keeping a large sorted string
// slice ordered under random-order inserts would cost O(n) per insert,
// while the lazy rebuild costs one O(n log n) sort per key change
// followed by a wildcard read, and nothing at all on write-only or
// read-only phases. The build is safe under concurrent shared holds and
// concurrent readers of frozen snapshots.
type nameCache struct {
	mu sync.Mutex
	p  atomic.Pointer[sortedNames]
}

type sortedNames struct {
	stamp int64 // the index stamp the names were read at
	names []string
}

// get returns x's keys in order.
func (c *nameCache) get(x *hashIndex[strKey]) []string {
	if s := c.p.Load(); s != nil && s.stamp == x.stamp {
		return s.names
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.p.Load(); s != nil && s.stamp == x.stamp {
		return s.names
	}
	n := 0
	x.eachKey(func(strKey) { n++ })
	names := make([]string, 0, n)
	x.eachKey(func(k strKey) { names = append(names, string(k)) })
	sort.Strings(names)
	c.p.Store(&sortedNames{stamp: x.stamp, names: names})
	return names
}

// --- wildcard range planning ---

// WildcardRange plans an ordered-index scan for a wildcard pattern: it
// returns the half-open key range [lo, hi) that must contain every
// string matching the pattern. hi == "" means the range is unbounded
// above. The range is derived from the pattern's literal prefix (the
// bytes before the first '*' or '?'), so the planner can never miss a
// match; candidates inside the range still need wildcard.Match, so it
// can never produce a false hit either. FuzzWildcardIndex holds the
// planner to exactly that contract against the matcher.
func WildcardRange(pattern string) (lo, hi string) {
	i := 0
	for i < len(pattern) && pattern[i] != '*' && pattern[i] != '?' {
		i++
	}
	prefix := pattern[:i]
	return prefix, prefixSuccessor(prefix)
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix, or "" when no such bound exists (empty prefix
// or all-0xff). The classic construction: increment the last
// incrementable byte and truncate after it.
func prefixSuccessor(prefix string) string {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			// Byte-wise append: string(b) would encode b as a rune, turning
			// bytes >= 0x80 into two UTF-8 bytes and breaking the ordering.
			return prefix[:i] + string([]byte{prefix[i] + 1})
		}
	}
	return ""
}

// scanRange returns the subslice of the sorted names that lies inside
// [lo, hi) (hi == "" meaning unbounded).
func scanRange(names []string, lo, hi string) []string {
	start := sort.SearchStrings(names, lo)
	end := len(names)
	if hi != "" {
		end = start + sort.SearchStrings(names[start:], hi)
	}
	return names[start:end]
}

// matchNames resolves a wildcard pattern against an ordered name index:
// range scan by literal prefix, then exact matching inside the range. It
// calls fn for every match in order until fn returns false.
func matchNames(sorted []string, pattern string, fn func(name string) bool) {
	lo, hi := WildcardRange(pattern)
	for _, n := range scanRange(sorted, lo, hi) {
		if wildcard.Match(pattern, n) && !fn(n) {
			return
		}
	}
}

// rebuildIndexes derives every secondary index from the current rows
// and moves every table into this database's epoch domain. It is the
// load-path entry point: Restore and AdoptFrom install rows wholesale —
// with only the indexes a load needs, and in AdoptFrom's case with page
// stamps from the source database — and call it to re-derive the rest.
// Caller holds the exclusive lock (or owns the DB privately).
func (d *DB) rebuildIndexes() {
	w := d.bump()
	for _, rel := range relationList {
		rel.rebuild(&d.relations, w)
	}
}
