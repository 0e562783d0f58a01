package update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path"
	"sync"
)

// Install is an exec command's view of the push that runs it. For each
// "extract <member> <dest>" of the session, File(dest) hands the service
// the member as it arrived and as it was in the bundle the target held
// before, so a reload can apply what changed instead of re-reading and
// re-parsing the installed file. The view lives only as long as the
// session: it reads the staged bundle through the session's open
// handle, which the session closes when it ends.
//
// A nil *Install is a valid view with no files (local tooling, or a
// session that transferred nothing): services then read from disk.
type Install struct {
	old, new     Text // the bundles the target held before and holds now
	oldID, newID string
	anchors      []anchor // runs the bundles share, in order

	// oldIndex and newIndex map each bundle's member names to their data
	// (Lo < 0: not a plain file), built by one header walk on first use:
	// the session's extracts and views share newIndex.
	oldIndex, newIndex map[string]Range

	members map[string]string // cleaned dest -> member
	files   map[string]*File
}

// File is one extracted member, seen from both sides of the push.
type File struct {
	// New is the member as installed, read by range: the pushed chunks
	// the session holds in memory and, between them, ranges of the
	// staged bundle file, read through the session's handle. It is valid
	// until the exec command returns; services copy what they keep
	// (Lines and String copy), and read the whole member into memory
	// only to parse it whole.
	New Text
	// Old is the same member in the bundle the target held before the
	// push, read the same way; empty when there was no such bundle or
	// member.
	Old Text
	// NewID and OldID identify the bytes of the new and old bundles. A
	// service that tags its parsed state with the ID it reflects knows,
	// by comparing tags, whether it already holds New (skip), holds Old
	// (apply Edits), or neither (parse New whole). OldID is "" when the
	// target held no bundle.
	NewID, OldID string
	// Edits are the line-aligned changes from Old to New, in order:
	// replacing Old[e.Old] by New[e.New] for every edit reproduces New.
	// Every line outside them is byte-identical on both sides.
	Edits []Edit
}

// Action is what a reload does with one file, given the tag of the
// parsed state it holds for it.
type Action int

const (
	// Keep: the state already reflects New (a re-install, or another
	// exec of the same push).
	Keep Action = iota
	// Patch: the state reflects Old, so applying Edits to it is exact.
	Patch
	// Parse: the state reflects neither (a cold service, or a crash
	// between install and exec); parse New whole.
	Parse
)

// Action decides a reload by the tag of the state held: the install ID
// of the bytes it was parsed from, "" when unknown (read from disk).
func (f *File) Action(tag string) Action {
	switch {
	case tag == f.NewID:
		return Keep
	case tag != "" && tag == f.OldID:
		return Patch
	}
	return Parse
}

// Lines calls fn with each line of t in r as a string fn may keep, and
// the offset the line starts at. A whole file is copied into one string
// its kept lines share; part of one, such as an edit, line by line, so
// what one patch keeps never pins lines a later patch replaced.
func Lines(t Text, r Range, fn func(line string, off int) error) error {
	if r.Lo == 0 && r.Hi == t.Len() {
		return EachLine(t.String(r), r, fn)
	}
	return t.Lines(r, func(line []byte, off int) error { return fn(string(line), off) })
}

// EachLine calls fn with each line of b[r.Lo:r.Hi], without its newline,
// and the offset the line starts at, stopping at fn's first error.
func EachLine[T string | []byte](b T, r Range, fn func(line T, off int) error) error {
	for off := r.Lo; off < r.Hi; {
		n := off
		for n < r.Hi && b[n] != '\n' {
			n++
		}
		if err := fn(b[off:n], off); err != nil {
			return err
		}
		off = n + 1
	}
	return nil
}

// Range is the byte range [Lo, Hi) of a file.
type Range struct{ Lo, Hi int }

// Edit replaces Old's lines in the Old range by New's lines in the New
// range. Every end of both ranges sits on a line boundary: 0, the
// file's length, or just after a newline.
type Edit struct{ Old, New Range }

// anchor is a run of bytes the two bundles share, in the same order on
// both sides: old[o:o+n] == new[p:p+n].
type anchor struct{ o, p, n int }

// NewInstall builds the view of a push of newBundle over oldBundle (nil
// when the target held nothing), with each entry of members mapping an
// extract's dest to the member it extracts. Agents build the same view
// from the chunk manifests of the transfer; this form chunks both
// bundles itself, for tests and tools that stage a push by hand.
func NewInstall(oldBundle, newBundle []byte, members map[string]string) *Install {
	newChunks := SplitChunks(newBundle)
	var old *oldSide
	if oldBundle != nil {
		old = wholeSide(oldBundle, newChunks)
	}
	in := newInstall(old, TextOf(newBundle), newChunks)
	for dest, member := range members {
		in.extracted(member, dest)
	}
	return in
}

// StageInstall stages newBundle in a new file at path (whatever was
// there is removed first) as an agent stages a push of it over a target
// holding oldBundle (nil when it holds nothing) whose chunk list the
// agent kept: the chunks the bundles share in order are read from
// oldBundle and checked, the others taken as if pushed. It returns the
// view the push's exec commands would get, reading the staged file;
// Close releases it. For tests and tools.
func StageInstall(path string, oldBundle, newBundle []byte, members map[string]string) (*Install, error) {
	chunks := SplitChunks(newBundle)
	var old *oldSide
	if oldBundle != nil {
		var ok bool
		if old, ok = keptSide(bytes.NewReader(oldBundle), len(oldBundle), SplitChunks(oldBundle), chunks); !ok {
			return nil, fmt.Errorf("update: a kept list rejected its own bundle")
		}
	}
	have := map[[sha256.Size]byte][]byte{}
	if old != nil {
		old.reuse(have)
	}
	inRun := runCursor(old.runs())
	for _, c := range chunks {
		if _, ok := have[c.Sum]; !ok && !inRun(c) {
			have[c.Sum] = newBundle[c.Off : c.Off+c.Len]
		}
	}
	os.Remove(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	pieces, err := stage(f, chunks, have, bytes.NewReader(oldBundle), old.runs(), sha256.Sum256(newBundle))
	if err != nil {
		f.Close()
		return nil, err
	}
	in := newInstall(old, Text{n: len(newBundle), pieces: pieces, src: &source{f: f}}, chunks)
	for dest, member := range members {
		in.extracted(member, dest)
	}
	return in, nil
}

// Close ends the view: it closes the staged bundle's handle and puts its
// read windows back. A view built in memory has nothing to close.
func (in *Install) Close() error {
	if in == nil || in.new.src == nil {
		return nil
	}
	in.old.src.release()
	in.new.src.release()
	return in.new.src.f.Close()
}

// newInstall starts the view of a transfer: what the session knew of the
// target's old bundle (nil when it held none), and the new bundle with
// the chunk list the manifest exchange already carried for it.
func newInstall(old *oldSide, new Text, newChunks []Chunk) *Install {
	in := &Install{
		new:     new,
		newID:   manifestID(newChunks),
		members: map[string]string{},
		files:   map[string]*File{},
	}
	if old != nil {
		in.old = old.text(new)
		in.oldID = manifestID(old.chunks)
		in.anchors = old.anchors
	}
	return in
}

// oldSide is what a transfer knows of the bundle its target holds: its
// chunk list, the runs the new bundle shares with it, and its bytes
// outside those runs, every chunk of them checked against its sum. When
// the agent re-chunked the target, held is the whole bundle.
type oldSide struct {
	chunks  []Chunk
	anchors []anchor
	held    []piece // in order
	// onDisk: the anchors' bytes were checked in the target, not held;
	// assembling the new bundle reads them from there.
	onDisk bool
}

// wholeSide is the old side of a bundle held whole.
func wholeSide(old []byte, newChunks []Chunk) *oldSide {
	chunks := SplitChunks(old)
	return &oldSide{chunks: chunks, anchors: bundleAnchors(chunks, newChunks), held: TextOf(old).pieces}
}

// keptSide is the old side of the bundle a kept chunk list says src (of
// size bytes) holds, against the new bundle's chunks. It reads the
// anchored chunks through one chunk-sized buffer and the rest into held
// pieces, checking every chunk's sum; false means src is not what kept
// says (a short, grown or rewritten target), and nothing was kept.
func keptSide(src io.ReaderAt, size int, kept, newChunks []Chunk) (*oldSide, bool) {
	if n := len(kept); (n == 0 && size != 0) || (n > 0 && kept[n-1].Off+kept[n-1].Len != size) {
		return nil, false
	}
	o := &oldSide{chunks: kept, anchors: bundleAnchors(kept, newChunks), onDisk: true}
	bp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bp)
	buf := *bp
	ci := 0
	// read reads kept[ci:cj] into b, which they exactly fill, and checks
	// each one's sum.
	read := func(b []byte, cj int) bool {
		w := kept[ci].Off
		if _, err := src.ReadAt(b, int64(w)); err != nil {
			return false
		}
		for ; ci < cj; ci++ {
			c := kept[ci]
			if sha256.Sum256(b[c.Off-w:c.Off-w+c.Len]) != c.Sum {
				return false
			}
		}
		return true
	}
	// The anchors tile part of the target in order; the sentinel closes
	// the gap after the last one.
	lo := 0
	for _, a := range append(o.anchors[:len(o.anchors):len(o.anchors)], anchor{o: size}) {
		if lo < a.o {
			cj := ci
			for cj < len(kept) && kept[cj].Off < a.o {
				cj++
			}
			gap := make([]byte, a.o-lo)
			if !read(gap, cj) {
				return nil, false
			}
			o.held = append(o.held, piece{off: lo, n: len(gap), data: gap})
		}
		for ci < len(kept) && kept[ci].Off < a.o+a.n {
			// One read takes as many whole chunks as fit in buf.
			w, cj := kept[ci].Off, ci+1
			for cj < len(kept) && kept[cj].Off < a.o+a.n && kept[cj].Off+kept[cj].Len-w <= len(buf) {
				cj++
			}
			if !read(buf[:kept[cj-1].Off+kept[cj-1].Len-w], cj) {
				return nil, false
			}
		}
		lo = a.o + a.n
	}
	return o, true
}

// runs are the anchors whose bytes only the target holds (none for a
// nil side): assembling the new bundle reads them from it.
func (o *oldSide) runs() []anchor {
	if o == nil || !o.onDisk {
		return nil
	}
	return o.anchors
}

// chunkBufs holds chunk-sized buffers for checking chunks in place.
var chunkBufs = sync.Pool{New: func() any {
	b := make([]byte, chunkMax)
	return &b
}}

// reuse adds every held chunk to have, the first of equal sums winning.
func (o *oldSide) reuse(have map[[sha256.Size]byte][]byte) {
	k := 0
	for _, c := range o.chunks {
		for k < len(o.held) && o.held[k].end() <= c.Off {
			k++
		}
		if k == len(o.held) {
			return
		}
		if p := o.held[k]; p.off <= c.Off {
			if _, dup := have[c.Sum]; !dup {
				have[c.Sum] = p.data[c.Off-p.off : c.Off-p.off+c.Len]
			}
		}
	}
}

// text is the old bundle as a Text: the held pieces, and under each
// anchor the new bundle's pieces there, which hold the old bytes. It
// reads the new bundle's file through a source of its own.
func (o *oldSide) text(new Text) Text {
	t := Text{src: new.src.twin()}
	if k := len(o.chunks); k > 0 {
		t.n = o.chunks[k-1].Off + o.chunks[k-1].Len
	}
	if !o.onDisk {
		t.pieces = o.held
		return t
	}
	t.pieces = make([]piece, 0, len(o.held)+len(o.anchors))
	h := o.held
	for _, a := range o.anchors {
		for len(h) > 0 && h[0].off < a.o {
			t.pieces, h = append(t.pieces, h[0]), h[1:]
		}
		t.pieces = new.appendPieces(t.pieces, Range{a.p, a.p + a.n}, a.o)
	}
	t.pieces = append(t.pieces, h...)
	return t
}

// manifestID is a bundle's content identity, derived from its chunk
// sums rather than another pass over its bytes. Chunking is a function
// of content alone, so equal bytes always give equal IDs.
func manifestID(chunks []Chunk) string {
	h := sha256.New()
	for i := range chunks {
		h.Write(chunks[i].Sum[:])
	}
	var id [sha256.Size]byte
	return hex.EncodeToString(h.Sum(id[:0]))
}

func cleanDest(dest string) string { return path.Clean("/" + dest) }

// extracted records that the session extracted member to dest.
func (in *Install) extracted(member, dest string) {
	key := cleanDest(dest)
	in.members[key] = member
	delete(in.files, key)
}

// File returns the view of the member the session extracted to dest; ok
// is false when it extracted nothing there (or the view is nil).
func (in *Install) File(dest string) (f *File, ok bool) {
	if in == nil {
		return nil, false
	}
	key := cleanDest(dest)
	if f, ok := in.files[key]; ok {
		return f, true
	}
	member, ok := in.members[key]
	if !ok {
		return nil, false
	}
	nr, ok := in.member(member)
	if !ok {
		return nil, false
	}
	f = &File{New: in.new.Sub(nr), NewID: in.newID, OldID: in.oldID}
	if in.oldIndex == nil {
		in.oldIndex = indexTar(in.old, in.old.Len())
	}
	var anchors []anchor
	if or, ok := in.oldIndex[member]; ok && or.Lo >= 0 {
		f.Old = in.old.Sub(or)
		anchors = clipAnchors(in.anchors, or, nr)
	}
	f.Edits = lineEdits(f.Old, f.New, anchors)
	in.files[key] = f
	return f, true
}

// member returns the range of member's data in the new bundle, under
// ExtractMember's rules, from the session's one index of its headers.
func (in *Install) member(name string) (Range, bool) {
	if in.newIndex == nil {
		in.newIndex = indexTar(in.new, in.new.Len())
	}
	r, ok := in.newIndex[name]
	return r, ok && r.Lo >= 0
}

// Read returns dest as a reload should see it: the push's view of it and
// its new bytes (File.New, read from the staged bundle by range), or,
// when the push extracted nothing to dest (or there is no push), a nil
// view and the file as it is on ag's host, read whole. Either Text is
// valid until the exec command returns.
func (in *Install) Read(ag *Agent, dest string) (*File, Text, error) {
	if f, ok := in.File(dest); ok {
		return f, f.New, nil
	}
	data, err := ag.ReadHostFile(dest)
	return nil, TextOf(data), err
}

// bundleAnchors pairs the new bundle's reused chunks with the old
// bundle's: of the chunks whose sums appear on both sides, the longest
// run that keeps its order (a longest increasing subsequence of old
// positions), with neighbours that are contiguous on both sides merged.
func bundleAnchors(oldChunks, newChunks []Chunk) []anchor {
	at := make(map[[sha256.Size]byte]int, len(oldChunks))
	for i := len(oldChunks) - 1; i >= 0; i-- {
		at[oldChunks[i].Sum] = i // first occurrence wins
	}
	type pair struct{ oi, ni int }
	var seq []pair
	for ni, c := range newChunks {
		if oi, ok := at[c.Sum]; ok {
			seq = append(seq, pair{oi, ni})
		}
	}
	// Patience sort: tails[k] is the seq index ending the best run of
	// length k+1 found so far, prev links each element to its
	// predecessor in that run.
	tails := make([]int, 0, len(seq))
	prev := make([]int, len(seq))
	for i, s := range seq {
		lo, hi := 0, len(tails)
		for lo < hi {
			if mid := (lo + hi) / 2; seq[tails[mid]].oi < s.oi {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		prev[i] = -1
		if lo > 0 {
			prev[i] = tails[lo-1]
		}
		if lo == len(tails) {
			tails = append(tails, i)
		} else {
			tails[lo] = i
		}
	}
	run := make([]pair, len(tails))
	for k, i := len(tails)-1, -1; k >= 0; k-- {
		if i < 0 {
			i = tails[k] // the end of the longest run
		}
		run[k] = seq[i]
		i = prev[i]
	}
	var anchors []anchor
	for _, s := range run {
		oc, nc := oldChunks[s.oi], newChunks[s.ni]
		if l := len(anchors) - 1; l >= 0 && anchors[l].o+anchors[l].n == oc.Off && anchors[l].p+anchors[l].n == nc.Off {
			anchors[l].n += nc.Len
			continue
		}
		anchors = append(anchors, anchor{oc.Off, nc.Off, nc.Len})
	}
	return anchors
}

// clipAnchors clips bundle anchors to one member, whose data is the old
// bundle's range or and the new bundle's range nr, in member coordinates.
func clipAnchors(anchors []anchor, or, nr Range) []anchor {
	var out []anchor
	for _, a := range anchors {
		lo := max(0, or.Lo-a.o, nr.Lo-a.p)
		hi := min(a.n, or.Hi-a.o, nr.Hi-a.p)
		if lo < hi {
			out = append(out, anchor{a.o + lo - or.Lo, a.p + lo - nr.Lo, hi - lo})
		}
	}
	return out
}

// lineEdits turns the anchors shared by old and new into line-aligned
// edits: each anchor shrinks to the whole lines inside it (a line is
// whole when it starts and ends on a boundary on both sides, and the
// bytes between are the anchor's, so identical), the gaps between them
// are the edits, and each edit sheds the whole lines it begins and ends
// with in common. Under an anchor the old bytes are the new ones, so
// only the edits read old.
func lineEdits(old, new Text, anchors []anchor) []Edit {
	var edits []Edit
	add := func(e Edit) {
		e = trimEdit(old, new, e)
		if e.Old.Lo < e.Old.Hi || e.New.Lo < e.New.Hi {
			edits = append(edits, e)
		}
	}
	po, pn := 0, 0
	for _, a := range anchors {
		s, e := a.p, a.p+a.n // the whole lines of the anchor, in new
		if !old.boundary(a.o) || !new.boundary(a.p) {
			s = new.lineEnd(a.p, e) + 1
		}
		if !(a.o+a.n == old.Len() && e == new.Len()) && new.at(e-1) != '\n' {
			e = new.lastNewline(a.p, e) + 1
		}
		if s >= e {
			continue
		}
		add(Edit{Old: Range{po, a.o + s - a.p}, New: Range{pn, s}})
		po, pn = a.o+e-a.p, e
	}
	add(Edit{Old: Range{po, old.Len()}, New: Range{pn, new.Len()}})
	return edits
}

// trimEdit drops the whole lines an edit's two sides begin and end with
// in common: a chunk-sized edit shrinks to the lines that changed. The
// common ends are the same bytes on both sides, so the newline searches
// in them read new.
func trimEdit(old, new Text, e Edit) Edit {
	k := old.prefixLen(e.Old, new, e.New)
	k = new.lastNewline(e.New.Lo, e.New.Lo+k) + 1 - e.New.Lo
	e.Old.Lo += k
	e.New.Lo += k
	m := old.suffixLen(e.Old, new, e.New)
	if m > 0 && !(old.boundary(e.Old.Hi-m) && new.boundary(e.New.Hi-m)) {
		m = e.New.Hi - new.lineEnd(e.New.Hi-m, e.New.Hi) - 1
		m = max(m, 0)
	}
	e.Old.Hi -= m
	e.New.Hi -= m
	return e
}
