// Package extract is the incremental extract subsystem: it turns a DCM
// pass from O(population) into O(changes). A generator builds a keyed
// Model of its extract files once; after that, the delta Planner diffs
// the database snapshot the model reflects against the current one, maps
// each changed row to the logical keys that read it, and the generator
// recomputes only those keys. Rendering a file from the model is
// byte-identical to a from-scratch generation by construction: the full
// build and the incremental patch go through the same per-key emit.
package extract

import (
	"bytes"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// sep joins sort-key components. It is below every printable byte, so
// K("a")-prefixed keys order exactly like Go string comparison of the
// components themselves ("a" < "ab" stays true after joining).
const sep = "\x1f"

// K builds a sort key from components: ints render zero-padded to 12
// digits so numeric order and lexical order agree, strings pass
// through. The resulting keys order entries within a file exactly the
// way the full-scan emit order would.
func K(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteString(sep)
		}
		switch v := p.(type) {
		case int:
			b.WriteString(pad(int64(v)))
		case int64:
			b.WriteString(pad(v))
		case string:
			b.WriteString(v)
		default:
			panic("extract.K: unsupported component type")
		}
	}
	return b.String()
}

func pad(v int64) string {
	s := strconv.FormatInt(v, 10)
	if len(s) >= 12 {
		return s
	}
	return strings.Repeat("0", 12-len(s)) + s
}

// entry is one keyed span of bytes at one position in one file.
type entry struct {
	sort string // position within the file
	key  string // the logical key that owns the span
	data []byte
}

// File is one extract file: a sequence of entries ordered by sort key.
// Mutations that hit the middle of the sequence are buffered in an
// overlay (dirty + pending) and merged into the sorted slice in one
// pass at render time, so a delta patch of k keys against an n-entry
// file costs O(n + k log k) instead of k point insertions at O(n) each.
//
// Once rendered, a file records what each merge changed: version names
// its bytes, and changes take the bytes of version from to them.
type File struct {
	name    string
	entries []entry
	n       int // live entry count (entries plus overlay effects)

	// Overlay: dirty maps a sort key to its pending index, or -1 for a
	// deletion. A dirty sort key shadows any base entry with that key.
	dirty   map[string]int
	pending []entry

	// sealed is set by the first render: from then on every mutation
	// goes through the overlay, so each merge knows what it changed.
	sealed        bool
	version, from uint64
	changes       []change
}

// change is one stretch of a file a merge replaced: del bytes at off of
// the file as it was, by ins bytes.
type change struct{ off, del, ins int }

// versions numbers file versions model-wide: a version names one file's
// bytes at one time, never reused.
var versions atomic.Uint64

func newFile(name string) *File { return &File{name: name, version: versions.Add(1)} }

// find returns the index of sortKey in the base entry slice, or the
// insertion point and false. Overlay-blind; callers outside flush use
// lookup.
func (f *File) find(sortKey string) (int, bool) {
	i := sort.Search(len(f.entries), func(i int) bool {
		return f.entries[i].sort >= sortKey
	})
	return i, i < len(f.entries) && f.entries[i].sort == sortKey
}

// lookup returns the live entry at sortKey, seeing through the overlay.
func (f *File) lookup(sortKey string) (entry, bool) {
	if j, ok := f.dirty[sortKey]; ok {
		if j < 0 {
			return entry{}, false
		}
		return f.pending[j], true
	}
	i, ok := f.find(sortKey)
	if !ok {
		return entry{}, false
	}
	return f.entries[i], true
}

func (f *File) set(e entry) {
	// Append fast path: full builds emit in sort order, so they stay on
	// the contiguous slice and never pay for the overlay.
	if !f.sealed && len(f.dirty) == 0 && (len(f.entries) == 0 || f.entries[len(f.entries)-1].sort < e.sort) {
		f.entries = append(f.entries, e)
		f.n++
		return
	}
	if j, ok := f.dirty[e.sort]; ok {
		if j >= 0 {
			f.pending[j] = e
			return
		}
		// Re-setting a key deleted earlier in this batch.
		f.n++
	} else if _, exists := f.find(e.sort); !exists {
		f.n++
	}
	if f.dirty == nil {
		f.dirty = map[string]int{}
	}
	f.dirty[e.sort] = len(f.pending)
	f.pending = append(f.pending, e)
}

func (f *File) del(sortKey string) {
	if _, ok := f.lookup(sortKey); !ok {
		return
	}
	f.n--
	if f.dirty == nil {
		f.dirty = map[string]int{}
	}
	f.dirty[sortKey] = -1
}

// flush merges the overlay into the sorted base slice in place: it
// finds the shadowed entries by binary search and closes their gaps,
// then merges the sorted adds in from the back, moving the entries
// between two adds as one block. A patch of k keys costs k binary
// searches and block moves, and allocates only when the file outgrows
// its array (then with append's headroom, so the next few growths do
// not allocate either). It records the merge's changes and moves the
// file to a new version.
func (f *File) flush() {
	f.sealed = true
	if len(f.dirty) == 0 {
		return
	}
	// Live pending entries: the ones their dirty marker still points at
	// (a later delete or re-set leaves stale pending slots behind).
	adds := f.pending[:0]
	for j := range f.pending {
		if k, ok := f.dirty[f.pending[j].sort]; ok && k == j {
			adds = append(adds, f.pending[j])
		}
	}
	sort.Slice(adds, func(a, b int) bool { return adds[a].sort < adds[b].sort })
	// A dirty sort key shadows the base entry it names: deleted, or
	// replaced by an add.
	var gone []int
	for sortKey := range f.dirty {
		if i, ok := f.find(sortKey); ok {
			gone = append(gone, i)
		}
	}
	sort.Ints(gone)
	f.record(gone, adds)
	n, kept := len(f.entries), len(f.entries)
	if len(gone) > 0 {
		kept = gone[0]
		for x, g := range gone {
			end := n
			if x+1 < len(gone) {
				end = gone[x+1]
			}
			kept += copy(f.entries[kept:], f.entries[g+1:end])
		}
	}
	// es[:hi] are the kept entries not yet in place. Those sorting after
	// adds[j] have j+1 adds before them, so they shift up by j+1, and
	// adds[j] lands just below them.
	es := slices.Grow(f.entries[:kept], len(adds))[:kept+len(adds)]
	hi := kept
	for j := len(adds) - 1; j >= 0; j-- {
		p := sort.Search(hi, func(i int) bool { return es[i].sort > adds[j].sort })
		copy(es[p+j+1:], es[p:hi])
		es[p+j] = adds[j]
		hi = p
	}
	if len(es) < n {
		clear(f.entries[len(es):n]) // drop the removed entries' data
	}
	f.entries, f.dirty, f.pending = es, nil, nil
}

// record sets the file's changes to those of a merge that removes the
// entries at gone (sorted indices) and adds adds (sorted), and moves it
// to a new version. An add that replaces an entry by the same bytes
// changes nothing. It walks the entries once, up to the last change, and
// allocates only when there are more changes than the last merge had.
func (f *File) record(gone []int, adds []entry) {
	f.from, f.version = f.version, versions.Add(1)
	f.changes = f.changes[:0]
	at, off := 0, 0 // off is where entry at starts
	step := func(i int) {
		for ; at < i; at++ {
			off += len(f.entries[at].data)
		}
	}
	// open returns the change ending at off, opening one there if none.
	open := func() *change {
		if k := len(f.changes); k > 0 && f.changes[k-1].off+f.changes[k-1].del == off {
			return &f.changes[k-1]
		}
		f.changes = append(f.changes, change{off: off})
		return &f.changes[len(f.changes)-1]
	}
	for a, g := 0, 0; a < len(adds) || g < len(gone); {
		if a < len(adds) {
			p, same := f.find(adds[a].sort)
			if same && g < len(gone) && gone[g] == p && bytes.Equal(f.entries[p].data, adds[a].data) {
				a, g = a+1, g+1
				continue
			}
			if g == len(gone) || p <= gone[g] {
				step(p)
				open().ins += len(adds[a].data)
				a++
				continue
			}
		}
		step(gone[g])
		c := open()
		c.del += len(f.entries[gone[g]].data)
		step(gone[g] + 1)
		g++
	}
}

// size merges the overlay and returns the rendered length.
func (f *File) size() int {
	f.flush()
	n := 0
	for i := range f.entries {
		n += len(f.entries[i].data)
	}
	return n
}

// loc names one entry: which file, at which position.
type loc struct {
	f    *File
	sort string
}

// Model is the keyed representation of one generator's extract files.
// Every byte of every file is owned by exactly one logical key; a full
// build emits every key of the domain, an incremental patch deletes the
// dirty keys' entries and re-emits just those keys.
type Model struct {
	files map[string]*File
	locs  map[string][]loc
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{files: map[string]*File{}, locs: map[string][]loc{}}
}

// Emit places data at sortKey in file, owned by the logical key. A file
// exists once anything — even a zero-length presence entry — was
// emitted into it; generators emit presence entries for files whose
// existence is unconditional.
func (m *Model) Emit(file, sortKey, key string, data []byte) {
	f := m.files[file]
	if f == nil {
		f = newFile(file)
		m.files[file] = f
	}
	if old, ok := f.lookup(sortKey); ok {
		// Replacing an entry: drop the old owner's location record
		// first so ownership never dangles.
		if old.key != key {
			m.dropLoc(old.key, loc{f, sortKey})
		} else {
			f.set(entry{sort: sortKey, key: key, data: data})
			return
		}
	}
	f.set(entry{sort: sortKey, key: key, data: data})
	m.locs[key] = append(m.locs[key], loc{f, sortKey})
}

func (m *Model) dropLoc(key string, l loc) {
	ls := m.locs[key]
	for i := range ls {
		if ls[i] == l {
			m.locs[key] = append(ls[:i], ls[i+1:]...)
			break
		}
	}
	if len(m.locs[key]) == 0 {
		delete(m.locs, key)
	}
}

// DeleteKey removes every entry the logical key owns, across all files.
// A file left with no entries is absent (a zephyr class whose last ACE
// went away loses its files, exactly as a full build would never create
// them), but kept with its version and changes until Names drops it: a
// key re-emitted into it, as a patch re-emits its dirty keys, changes
// the file's bytes as an edit of the version last rendered.
func (m *Model) DeleteKey(key string) {
	for _, l := range m.locs[key] {
		l.f.del(l.sort)
	}
	delete(m.locs, key)
}

// file returns the named file, nil if it does not exist or has no
// entries.
func (m *Model) file(name string) *File {
	if f := m.files[name]; f != nil && f.n > 0 {
		return f
	}
	return nil
}

// KeysWithPrefix lists the logical keys currently in the model that
// start with prefix, for dependency functions that dirty a whole key
// family ("shcred:*").
func (m *Model) KeysWithPrefix(prefix string) []string {
	var out []string
	for k := range m.locs {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Bytes renders one file into a new slice; nil if the file does not
// exist.
func (m *Model) Bytes(file string) []byte {
	if m.file(file) == nil {
		return nil
	}
	b := bytes.NewBuffer(make([]byte, 0, m.Size(file)))
	m.WriteFile(b, file)
	return b.Bytes()
}

// Names lists the files, sorted. It is where a file that lost its
// entries ceases to exist: a render lists the files first.
func (m *Model) Names() []string {
	names := make([]string, 0, len(m.files))
	for name, f := range m.files {
		if f.n == 0 {
			delete(m.files, name)
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Size reports the length of a file's rendered bytes; 0 if the file
// does not exist.
func (m *Model) Size(file string) int {
	if f := m.file(file); f != nil {
		return f.size()
	}
	return 0
}

// WriteFile writes a file's rendered bytes to w entry by entry, without
// rendering them into a buffer of the file's own: a caller that packs
// the files into a bundle holds them once, in the bundle.
func (m *Model) WriteFile(w io.Writer, file string) error {
	f := m.file(file)
	if f == nil {
		return nil
	}
	f.flush()
	for i := range f.entries {
		if _, err := w.Write(f.entries[i].data); err != nil {
			return err
		}
	}
	return nil
}

// Version names the bytes file renders to now: a file's bytes change
// only with its version, and a file made anew gets a version no file
// had. 0 means the file does not exist.
func (m *Model) Version(file string) uint64 {
	f := m.file(file)
	if f == nil {
		return 0
	}
	f.flush()
	return f.version
}

// Changes calls fn with each change that takes file's bytes at version
// from to its bytes now, in order: del bytes at off of the old bytes
// are replaced by ins bytes. ok is false when the model does not know
// them: from is neither the file's version nor the one its last merge
// left.
func (m *Model) Changes(file string, from uint64, fn func(off, del, ins int)) (ok bool) {
	f := m.file(file)
	if f == nil || from == 0 {
		return false
	}
	f.flush()
	switch from {
	case f.version:
		return true
	case f.from:
		for _, c := range f.changes {
			if c.del > 0 || c.ins > 0 {
				fn(c.off, c.del, c.ins)
			}
		}
		return true
	}
	return false
}

// CopyChanges writes into dst, which is as long as file's bytes now,
// the bytes each change since version from inserted (the ins bytes
// Changes reports), each at its offset in the file now; the other bytes
// of dst are left as they are. It walks the file's entries once and
// allocates nothing. ok is false when Changes's is.
func (m *Model) CopyChanges(dst []byte, file string, from uint64) (ok bool) {
	f := m.file(file)
	if f == nil || from == 0 {
		return false
	}
	f.flush()
	switch from {
	case f.version:
		return true
	case f.from:
	default:
		return false
	}
	i, at, shift := 0, 0, 0 // entry i starts at offset at of the file now
	for _, c := range f.changes {
		lo, hi := c.off+shift, c.off+shift+c.ins
		shift += c.ins - c.del
		for lo < hi {
			for at+len(f.entries[i].data) <= lo {
				at += len(f.entries[i].data)
				i++
			}
			lo += copy(dst[lo:hi], f.entries[i].data[lo-at:])
		}
	}
	return true
}

// Files renders every file into new slices.
func (m *Model) Files() map[string][]byte {
	out := make(map[string][]byte, len(m.files))
	for name, f := range m.files {
		if f.n > 0 {
			out[name] = m.Bytes(name)
		}
	}
	return out
}

// NumEntries reports the total entry count, for stats and tests.
func (m *Model) NumEntries() int {
	n := 0
	for _, f := range m.files {
		n += f.n
	}
	return n
}
