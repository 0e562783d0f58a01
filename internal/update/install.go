package update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path"
)

// Install is an exec command's view of the push that runs it. For each
// "extract <member> <dest>" of the session, File(dest) hands the service
// the member as it arrived and as it was in the bundle the target held
// before, so a reload can apply what changed instead of re-reading and
// re-parsing the installed file. The view lives only as long as the
// session: nothing here outlives the push.
//
// A nil *Install is a valid view with no files (local tooling, or a
// session that transferred nothing): services then read from disk.
type Install struct {
	oldBundle, newBundle []byte
	oldID, newID         string
	anchors              []anchor // runs the bundles share, in order

	// oldIndex and newIndex map each bundle's member names to their data
	// (Lo < 0: not a plain file), built by one header walk on first use.
	oldIndex, newIndex map[string]Range

	members map[string]string // cleaned dest -> member
	files   map[string]*File
}

// File is one extracted member, seen from both sides of the push.
type File struct {
	// New is the member as installed: a sub-slice of the verified bundle,
	// valid until the exec command returns. Services must copy what they
	// keep.
	New []byte
	// Old is the same member in the bundle the target held before the
	// push; nil when there was no such bundle or member.
	Old []byte
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

// Lines calls fn with each line of data[r.Lo:r.Hi] as a string fn may
// keep, and the offset the line starts at. A whole file is copied into
// one string its kept lines share; part of one, such as an edit, line by
// line, so what one patch keeps never pins lines a later patch replaced.
func Lines(data []byte, r Range, fn func(line string, off int) error) error {
	if r.Lo == 0 && r.Hi == len(data) {
		text := string(data)
		return EachLine(text, r, fn)
	}
	return EachLine(data, r, func(line []byte, off int) error { return fn(string(line), off) })
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

// LineNo is the 1-based number of the line of b starting at off.
func LineNo(b []byte, off int) int { return bytes.Count(b[:off], []byte{'\n'}) + 1 }

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
	var oldChunks []Chunk
	if oldBundle != nil {
		oldChunks = SplitChunks(oldBundle)
	}
	in := newInstall(oldBundle, oldChunks, newBundle, SplitChunks(newBundle))
	for dest, member := range members {
		in.extracted(member, dest)
	}
	return in
}

// newInstall starts the view of a transfer: the bundles on both sides
// and the chunk lists the manifest exchange already computed for them.
func newInstall(oldBundle []byte, oldChunks []Chunk, newBundle []byte, newChunks []Chunk) *Install {
	in := &Install{
		oldBundle: oldBundle, newBundle: newBundle,
		newID:   manifestID(newChunks),
		anchors: bundleAnchors(oldChunks, newChunks),
		members: map[string]string{},
		files:   map[string]*File{},
	}
	if oldBundle != nil {
		in.oldID = manifestID(oldChunks)
	}
	return in
}

// manifestID is a bundle's content identity, derived from its chunk
// sums rather than another pass over its bytes. Chunking is a function
// of content alone, so equal bytes always give equal IDs.
func manifestID(chunks []Chunk) string {
	sums := make([]byte, 0, len(chunks)*2*sha256.Size)
	for _, c := range chunks {
		sums = append(sums, c.Sum...)
	}
	id := sha256.Sum256(sums)
	return hex.EncodeToString(id[:])
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
	if in.newIndex == nil {
		in.oldIndex, in.newIndex = indexTar(in.oldBundle), indexTar(in.newBundle)
	}
	nr, ok := in.newIndex[member]
	if !ok || nr.Lo < 0 {
		return nil, false
	}
	f = &File{New: in.newBundle[nr.Lo:nr.Hi:nr.Hi], NewID: in.newID, OldID: in.oldID}
	var anchors []anchor
	if or, ok := in.oldIndex[member]; ok && or.Lo >= 0 {
		f.Old = in.oldBundle[or.Lo:or.Hi:or.Hi]
		anchors = clipAnchors(in.anchors, or, nr)
	}
	f.Edits = lineEdits(f.Old, f.New, anchors)
	in.files[key] = f
	return f, true
}

// Read returns dest as a reload should see it: the push's view of it and
// its new bytes, or, when the push extracted nothing to dest (or there
// is no push), a nil view and the file as it is on ag's host.
func (in *Install) Read(ag *Agent, dest string) (*File, []byte, error) {
	if f, ok := in.File(dest); ok {
		return f, f.New, nil
	}
	data, err := ag.ReadHostFile(dest)
	return nil, data, err
}

// indexTar maps each member name of archive to its data range, the
// first header of a name winning as in ExtractMember. A damaged archive
// indexes what precedes the damage.
func indexTar(archive []byte) map[string]Range {
	idx := map[string]Range{}
	_ = walkTar(archive, func(name string, r Range, plain bool) bool {
		if _, dup := idx[name]; !dup {
			if !plain {
				r.Lo = -1
			}
			idx[name] = r
		}
		return true
	})
	return idx
}

// bundleAnchors pairs the new bundle's reused chunks with the old
// bundle's: of the chunks whose sums appear on both sides, the longest
// run that keeps its order (a longest increasing subsequence of old
// positions), with neighbours that are contiguous on both sides merged.
func bundleAnchors(oldChunks, newChunks []Chunk) []anchor {
	at := make(map[string]int, len(oldChunks))
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

// boundary reports whether offset i of b is a line boundary.
func boundary(b []byte, i int) bool { return i == 0 || i == len(b) || b[i-1] == '\n' }

// lineEdits turns the anchors shared by old and new into line-aligned
// edits: each anchor shrinks to the whole lines inside it (a line is
// whole when it starts and ends on a boundary on both sides, and the
// bytes between are the anchor's, so identical), the gaps between them
// are the edits, and each edit sheds the whole lines it begins and ends
// with on both sides.
func lineEdits(old, new []byte, anchors []anchor) []Edit {
	var edits []Edit
	add := func(e Edit) {
		e = trimEdit(old, new, e)
		if e.Old.Lo < e.Old.Hi || e.New.Lo < e.New.Hi {
			edits = append(edits, e)
		}
	}
	po, pn := 0, 0
	for _, a := range anchors {
		s, e := 0, a.n
		if !boundary(old, a.o) || !boundary(new, a.p) {
			j := bytes.IndexByte(old[a.o:a.o+a.n], '\n')
			if j < 0 {
				continue
			}
			s = j + 1
		}
		if !(a.o+a.n == len(old) && a.p+a.n == len(new)) && old[a.o+a.n-1] != '\n' {
			e = bytes.LastIndexByte(old[a.o:a.o+a.n], '\n') + 1
		}
		if s >= e {
			continue
		}
		add(Edit{Old: Range{po, a.o + s}, New: Range{pn, a.p + s}})
		po, pn = a.o+e, a.p+e
	}
	add(Edit{Old: Range{po, len(old)}, New: Range{pn, len(new)}})
	return edits
}

// trimEdit drops the whole lines an edit's two sides begin and end with
// in common: a chunk-sized edit shrinks to the lines that changed.
func trimEdit(old, new []byte, e Edit) Edit {
	o, n := old[e.Old.Lo:e.Old.Hi], new[e.New.Lo:e.New.Hi]
	k := 0
	for k < len(o) && k < len(n) && o[k] == n[k] {
		k++
	}
	k = bytes.LastIndexByte(o[:k], '\n') + 1
	e.Old.Lo += k
	e.New.Lo += k
	o, n = o[k:], n[k:]
	m := 0
	for m < len(o) && m < len(n) && o[len(o)-1-m] == n[len(n)-1-m] {
		m++
	}
	if m > 0 && !(boundary(old, e.Old.Hi-m) && boundary(new, e.New.Hi-m)) {
		if j := bytes.IndexByte(o[len(o)-m:], '\n'); j >= 0 {
			m -= j + 1
		} else {
			m = 0
		}
	}
	e.Old.Hi -= m
	e.New.Hi -= m
	return e
}
