package update

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path"

	"moira/internal/mrerr"
)

// Install is an exec command's view of the push that runs it. For each
// "extract <member> <dest>" of the session, File(dest) hands the service
// the member as it arrived and as it was in the bundle the target held
// before, so a reload can apply what changed instead of re-reading and
// re-parsing the installed file. The view lives only as long as the
// session: it reads the staged bundle and the bundle the target held
// before through the session's open handles, which the session closes
// when it ends.
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
	// New is the member as installed, read by range from the staged
	// bundle file through the session's handle. It is valid until the
	// exec command returns; services copy what they keep (Lines and
	// String copy), and read the whole member into memory only to parse
	// it whole.
	New Text
	// Old is the same member in the bundle the target held before the
	// push, read the same way from that file's inode, which the rename
	// unlinked and the session's handle keeps readable; empty when there
	// was no such bundle or member.
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
// over the files of the transfer; this form holds both bundles in
// memory and chunks them itself, for tests and tools that stage a push
// by hand.
func NewInstall(oldBundle, newBundle []byte, members map[string]string) *Install {
	newChunks := SplitChunks(newBundle)
	in := newInstall(TextOf(newBundle), newChunks)
	if oldBundle != nil {
		oldChunks := SplitChunks(oldBundle)
		in.old, in.oldID, in.anchors = TextOf(oldBundle), manifestID(oldChunks), bundleAnchors(oldChunks, newChunks)
	}
	for dest, member := range members {
		in.extracted(member, dest)
	}
	return in
}

// StageInstall stages a push of newBundle to path as an agent does over
// a target holding oldBundle (nil when it holds nothing), whose chunk
// list the agent kept: oldBundle is written to path (whatever was there
// is removed first) and opened, its chunks checked against the kept
// list; the chunks the new bundle does not share in order with it are
// written, as if pushed, into the staging file beside path, which is
// assembled and renamed over path. It returns the view the push's exec
// commands would get, reading both files through their handles; Close
// releases it. For tests and tools.
func StageInstall(path string, oldBundle, newBundle []byte, members map[string]string) (*Install, error) {
	os.Remove(path)
	var kept []Chunk
	if oldBundle != nil {
		if err := os.WriteFile(path, oldBundle, 0o644); err != nil {
			return nil, err
		}
		kept = SplitChunks(oldBundle)
	}
	chunks := SplitChunks(newBundle)
	old, dropped := openOld(path, kept, chunks)
	if dropped {
		old.close()
		return nil, fmt.Errorf("update: a kept list rejected its own bundle")
	}
	x, needed, err := beginXfer(path, old, chunks, sha256.Sum256(newBundle))
	if err != nil {
		return nil, err
	}
	for _, i := range needed {
		if code := x.put(i, newBundle[chunks[i].Off:chunks[i].Off+chunks[i].Len]); code != mrerr.Success {
			x.abort()
			return nil, code
		}
	}
	in, code := x.assemble()
	if code != mrerr.Success {
		return nil, code
	}
	for dest, member := range members {
		in.extracted(member, dest)
	}
	return in, nil
}

// Close ends the view: it puts both bundles' read windows back and
// closes their files. A view built in memory has nothing to close.
func (in *Install) Close() error {
	if in == nil {
		return nil
	}
	return errors.Join(in.new.src.close(), in.old.src.close())
}

// newInstall starts the view of a transfer of new, whose chunk list the
// manifest exchange already carried, over a target that held nothing.
func newInstall(new Text, newChunks []Chunk) *Install {
	return &Install{
		new:     new,
		newID:   manifestID(newChunks),
		members: map[string]string{},
		files:   map[string]*File{},
	}
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
