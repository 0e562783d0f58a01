package db

import (
	"sort"
	"sync"
	"sync/atomic"

	"moira/internal/wildcard"
)

// Secondary indexes: derived, in-memory structures that turn the query
// layer's hot retrieval shapes — point lookup by login, uid or label,
// wildcard retrieval by name — from full-table scans with per-call
// sorts into index probes. (Ordered iteration by primary key needs no
// index: the paged table in table.go iterates in id order.) Index state
// is never persisted: the journal and checkpoints carry only rows, and
// every load path (restore, replay, AdoptFrom) re-derives the indexes
// from the rows it installs via rebuildIndexes. Fsck verifies index ↔
// row agreement, so a maintenance bug surfaces as a boot-time finding
// instead of silently wrong query results.
//
// Each paged relation's indexes sit behind one key epoch: the write
// epoch of the last mutation that changed a key — insert, delete,
// rename, SetUserUID, SetFilesysLabel. An update that leaves the keys
// alone leaves the epoch alone, and freeze then hands the new snapshot
// the previous generation's index maps and sorted-name cache instead of
// copying them. A key change still copies that relation's maps whole:
// the remaining O(n) write→read transition.

// nameCache is a lazily built, ordered name index: the sorted keys of a
// by-name map, used for wildcard range scans. It is rebuilt on first
// use after an invalidation rather than maintained per-mutation —
// keeping a large sorted string slice ordered under random-order
// inserts would cost O(n) per insert, while the lazy rebuild costs one
// O(n log n) sort per write→wildcard-read transition and nothing at
// all on write-only or read-only phases. The build is safe under
// concurrent shared holds (and under concurrent readers of a frozen
// snapshot, which never invalidates).
type nameCache struct {
	mu sync.Mutex
	p  atomic.Pointer[[]string]
}

// invalidate drops the cache; the next get rebuilds. Callers hold the
// exclusive lock (it accompanies a mutation).
func (c *nameCache) invalidate() { c.p.Store(nil) }

// get returns the sorted names, building them with build() if needed.
func (c *nameCache) get(build func() []string) []string {
	if s := c.p.Load(); s != nil {
		return *s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.p.Load(); s != nil {
		return *s
	}
	s := build()
	sort.Strings(s)
	c.p.Store(&s)
	return s
}

// sortedKeys materializes a string-keyed map's keys for a nameCache
// build callback.
func sortedKeys[V any](m map[string]V) func() []string {
	return func() []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		return out
	}
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
// range scan by literal prefix, then exact matching inside the range.
func matchNames(sorted []string, pattern string) []string {
	lo, hi := WildcardRange(pattern)
	var out []string
	for _, n := range scanRange(sorted, lo, hi) {
		if wildcard.Match(pattern, n) {
			out = append(out, n)
		}
	}
	return out
}

// --- composite-key hash indexes ---

// memberKey indexes membership rows by who the member is.
type memberKey struct {
	Type string
	ID   int
}

// pairKey indexes two-integer composite keys (mcmap, nfsquota).
type pairKey struct{ A, B int }

// removeInt drops one occurrence of v from s (order not preserved).
func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// userIndex carries the USERS relation's secondary indexes: the login
// hash index, the uid hash index, and the ordered login index for
// wildcards.
type userIndex struct {
	epoch   int64          // key epoch
	byLogin map[string]int // login -> users_id
	byUID   map[int][]int  // unix uid -> users_ids (normally one)
	logins  *nameCache
}

// namedIndex is the shared shape for relations with an integer primary
// key and a unique name: the name hash index plus the ordered name
// index. STRINGS uses it too, keyed by the interned value.
type namedIndex struct {
	epoch  int64 // key epoch
	byName map[string]int
	names  *nameCache
}

// filesysIndex is the label hash index (labels are not unique; the
// (label, order) pair is).
type filesysIndex struct {
	epoch   int64            // key epoch
	byLabel map[string][]int // label -> filsys_ids
}

// freeze returns the index for a snapshot: the previous generation's
// when no key has changed since it was built at epoch since, otherwise a
// copy of the live one with a fresh (empty) name cache.
func (x *userIndex) freeze(prev *userIndex, since int64) userIndex {
	if x.epoch <= since {
		return *prev
	}
	return userIndex{epoch: x.epoch, byLogin: copyVals(x.byLogin), byUID: copySlices(x.byUID), logins: &nameCache{}}
}

func (x *namedIndex) freeze(prev *namedIndex, since int64) namedIndex {
	if x.epoch <= since {
		return *prev
	}
	return namedIndex{epoch: x.epoch, byName: copyVals(x.byName), names: &nameCache{}}
}

func (x *filesysIndex) freeze(prev *filesysIndex, since int64) filesysIndex {
	if x.epoch <= since {
		return *prev
	}
	return filesysIndex{epoch: x.epoch, byLabel: copySlices(x.byLabel)}
}

// rebuildIndexes derives every secondary index from the current rows
// and moves every paged relation into this database's epoch domain. It
// is the load-path entry point: LoadTable and AdoptFrom install rows
// wholesale — with no index maintenance, and in AdoptFrom's case with
// page stamps from the source database — and call it to re-derive the
// rest. Caller holds the exclusive lock (or owns the DB privately).
func (d *DB) rebuildIndexes() {
	e := d.bump()

	d.users.restamp(e)
	d.userIdx = userIndex{epoch: e, byLogin: make(map[string]int, d.users.len()), byUID: make(map[int][]int, d.users.len()), logins: &nameCache{}}
	d.users.each(func(u *User) bool {
		d.userIdx.byLogin[u.Login] = u.UsersID
		d.userIdx.byUID[u.UID] = append(d.userIdx.byUID[u.UID], u.UsersID)
		return true
	})

	d.machIdx = rebuildNamed(&d.machines, e, func(m *Machine) (string, int) { return m.Name, m.MachID })
	d.cluIdx = rebuildNamed(&d.clusters, e, func(c *Cluster) (string, int) { return c.Name, c.CluID })
	d.listIdx = rebuildNamed(&d.lists, e, func(l *List) (string, int) { return l.Name, l.ListID })
	d.stringIdx = rebuildNamed(&d.strings, e, func(s *StringRec) (string, int) { return s.String, s.StringID })

	d.filesys.restamp(e)
	d.filesysIdx = filesysIndex{epoch: e, byLabel: make(map[string][]int, d.filesys.len())}
	d.filesys.each(func(f *Filesys) bool {
		d.filesysIdx.byLabel[f.Label] = append(d.filesysIdx.byLabel[f.Label], f.FilsysID)
		return true
	})

	d.nfsphys.restamp(e)
	d.hostaccess.restamp(e)

	d.memberIdx = make(map[memberKey][]int)
	for listID, ms := range d.members {
		for _, m := range ms {
			k := memberKey{m.MemberType, m.MemberID}
			d.memberIdx[k] = append(d.memberIdx[k], listID)
		}
	}

	d.mcmapIdx = make(map[pairKey]bool, len(d.mcmap))
	for _, mc := range d.mcmap {
		d.mcmapIdx[pairKey{mc.MachID, mc.CluID}] = true
	}

	d.quotaIdx = make(map[pairKey]*NFSQuota, len(d.nfsquotas))
	for _, q := range d.nfsquotas {
		d.quotaIdx[pairKey{q.UsersID, q.FilsysID}] = q
	}

	// The serverhosts and nfsquotas slices double as their relations'
	// ordered indexes: enforce the sort invariant on load.
	sort.Slice(d.serverHosts, func(i, j int) bool {
		a, b := d.serverHosts[i], d.serverHosts[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		return a.MachID < b.MachID
	})
	sort.Slice(d.nfsquotas, func(i, j int) bool {
		a, b := d.nfsquotas[i], d.nfsquotas[j]
		if a.FilsysID != b.FilsysID {
			return a.FilsysID < b.FilsysID
		}
		return a.UsersID < b.UsersID
	})
}

// rebuildNamed re-stamps a relation's pages and derives its namedIndex
// from the rows (the sorted name cache rebuilds itself lazily from the
// by-name map).
func rebuildNamed[R any](rows *table[R], epoch int64, key func(*R) (string, int)) namedIndex {
	rows.restamp(epoch)
	ni := namedIndex{epoch: epoch, byName: make(map[string]int, rows.len()), names: &nameCache{}}
	rows.each(func(r *R) bool {
		name, id := key(r)
		ni.byName[name] = id
		return true
	})
	return ni
}
