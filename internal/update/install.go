package update

import (
	"crypto/sha256"
	"errors"
	"os"
	"path"
	"strings"

	"moira/internal/mrerr"
	"moira/internal/stats"
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
	base, sum    Sum  // their sums; base is zero when old is empty
	oldID, newID string
	edits        []Edit // the edits that made new from old, in order

	// oldIndex and newIndex index each bundle's members, built on first
	// use: oldIndex by one walk of old's headers unless the agent kept it
	// from the push that assembled old, newIndex from oldIndex and the
	// edits when there is one (indexFrom), else by one walk of new's
	// headers. The session's extracts and views share both; headers
	// counts the headers their walks read (nil: not counted).
	oldIndex, newIndex *tarIndex
	headers            *stats.Counter

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

// NewInstall builds the view of a push of newBundle over oldBundle (nil
// when the target held nothing), with each entry of members mapping an
// extract's dest to the member it extracts. Agents build the same view
// over the files of the transfer; this form holds both bundles in
// memory, for tests and tools that stage a push by hand. The push's
// edit is the bundles' difference (diffBundles).
func NewInstall(oldBundle, newBundle []byte, members map[string]string) *Install {
	in := newInstall(TextOf(newBundle), sha256.Sum256(newBundle), []Edit{{New: Range{0, len(newBundle)}}})
	if len(oldBundle) > 0 {
		in.old, in.base = TextOf(oldBundle), sha256.Sum256(oldBundle)
		in.oldID = in.base.String()
		in.edits = nil
		if e, ok := diffBundles(oldBundle, newBundle); ok {
			in.edits = []Edit{{Old: Range{e.Off, e.Off + e.Len}, New: Range{e.Off, e.Off + len(e.Data)}}}
		}
	}
	for dest, member := range members {
		in.extracted(member, dest)
	}
	return in
}

// StageInstall stages a push of newBundle to path as an agent does over
// a target holding oldBundle (nil when it holds nothing): oldBundle is
// written to path (whatever was there is removed first), and the
// bundles' difference (diffBundles) is applied to it, through the
// agent's transfer, into the staging file beside path, which is checked
// and renamed over path. It returns the view the push's exec commands
// would get, reading both files through their handles; Close releases
// it. For tests and tools.
func StageInstall(path string, oldBundle, newBundle []byte, members map[string]string) (*Install, error) {
	os.Remove(path)
	base, edit := emptySum, Splice{Data: newBundle}
	if len(oldBundle) > 0 {
		if err := os.WriteFile(path, oldBundle, 0o644); err != nil {
			return nil, err
		}
		base = sha256.Sum256(oldBundle)
		edit, _ = diffBundles(oldBundle, newBundle)
	}
	x, err := beginXfer(path, base, sha256.Sum256(newBundle))
	if err != nil {
		return nil, err
	}
	if code := x.apply(edit.Off, edit.Len, edit.Data); code != mrerr.Success {
		x.abort()
		return nil, code
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

// diffBundles is the one edit that makes new from old: what lies between
// their common prefix and their common suffix. ok is false when they are
// equal.
func diffBundles(old, new []byte) (e Splice, ok bool) {
	p := 0
	for p < len(old) && p < len(new) && old[p] == new[p] {
		p++
	}
	s := 0
	for s < len(old)-p && s < len(new)-p && old[len(old)-1-s] == new[len(new)-1-s] {
		s++
	}
	if p == len(old) && p == len(new) {
		return e, false
	}
	return Splice{Off: p, Len: len(old) - s - p, Data: new[p : len(new)-s]}, true
}

// Close ends the view: it puts both bundles' read windows back and
// closes their files. A view built in memory has nothing to close.
func (in *Install) Close() error {
	if in == nil {
		return nil
	}
	return errors.Join(in.new.src.close(), in.old.src.close())
}

// newInstall starts the view of a transfer of new, whose sum is sum,
// made by edits (in bundle coordinates) from a target that held nothing.
func newInstall(new Text, sum Sum, edits []Edit) *Install {
	return &Install{
		new:     new,
		sum:     sum,
		newID:   sum.String(),
		edits:   edits,
		members: map[string]string{},
		files:   map[string]*File{},
	}
}

// cleanDest is dest as an absolute clean path, allocating only when it
// is not one already.
func cleanDest(dest string) string {
	if strings.HasPrefix(dest, "/") {
		return path.Clean(dest)
	}
	return path.Clean("/" + dest)
}

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
	exact := []Edit{{New: Range{0, f.New.Len()}}}
	if or, ok := in.oldMember(member); ok {
		f.Old = in.old.Sub(or)
		exact[0].Old.Hi = f.Old.Len()
		if es, ok := memberEdits(in.edits, or, nr); ok {
			exact = es
		}
	}
	f.Edits = lineEdits(f.Old, f.New, exact)
	in.files[key] = f
	return f, true
}

// member returns the range of member's data in the new bundle, under
// ExtractMember's rules, from the session's one index of its headers.
func (in *Install) member(name string) (Range, bool) {
	if in.newIndex == nil {
		n := 0
		if in.oldIndex != nil {
			in.newIndex, n = indexFrom(in.oldIndex, in.edits, in.new, in.new.Len())
			in.headers.Add(int64(n))
		}
		if in.newIndex == nil {
			in.newIndex, n = indexTar(in.new, in.new.Len())
			in.headers.Add(int64(n))
		}
	}
	return in.newIndex.get(name)
}

// oldMember is member for the bundle the target held before.
func (in *Install) oldMember(name string) (Range, bool) {
	if in.oldIndex == nil {
		var n int
		in.oldIndex, n = indexTar(in.old, in.old.Len())
		in.headers.Add(int64(n))
	}
	return in.oldIndex.get(name)
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

// memberEdits clips a bundle's edits to one member, whose data is the
// old bundle's range or and the new bundle's range nr, in member
// coordinates. ok is false when the bytes around the member's edits are
// not the shared bytes between the bundle's (a member the edits moved
// across other members): the caller then takes the member as one edit.
func memberEdits(edits []Edit, or, nr Range) (out []Edit, ok bool) {
	clip := func(i int, r Range) int { return min(max(i, r.Lo), r.Hi) }
	// po, pn: where the member's shared bytes resume, on each side;
	// shift: new offset less old offset of the shared bytes from there.
	po, pn, shift := or.Lo, nr.Lo, 0
	shared := func(o, n int) bool { return o-po == n-pn && (o == po || po+shift == pn) }
	for _, e := range edits {
		a, b := clip(e.Old.Lo, or), clip(e.Old.Hi, or)
		c, d := clip(e.New.Lo, nr), clip(e.New.Hi, nr)
		if shift = e.New.Lo - e.Old.Lo; !shared(a, c) {
			return nil, false
		}
		if a < b || c < d {
			out = append(out, Edit{Old: Range{a - or.Lo, b - or.Lo}, New: Range{c - nr.Lo, d - nr.Lo}})
		}
		po, pn, shift = b, d, e.New.Hi-e.Old.Hi
	}
	return out, shared(or.Hi, nr.Hi)
}

// lineEdits widens exact edits of old into new (in order, the bytes
// between them shared) to line-aligned ones: each edit's start moves
// back to its line's start, its end on to where both sides end a line,
// taking in the edits it reaches, and each then sheds the whole lines it
// begins and ends with in common. Only the edits' ends read old.
func lineEdits(old, new Text, exact []Edit) []Edit {
	var out []Edit
	for i := 0; i < len(exact); {
		e := exact[i]
		i++
		lim := 0 // the previous edit's end, a boundary on both sides
		if k := len(out); k > 0 {
			lim = out[k-1].New.Hi
		}
		k := e.New.Lo - new.lastNewline(lim, e.New.Lo) - 1
		e.Old.Lo -= k
		e.New.Lo -= k
		for !old.boundary(e.Old.Hi) || !new.boundary(e.New.Hi) {
			hi := new.Len()
			if i < len(exact) {
				hi = exact[i].New.Lo
			}
			j := new.lineEnd(e.New.Hi, hi)
			if j < hi {
				hi = j + 1
			}
			e.Old.Hi += hi - e.New.Hi
			e.New.Hi = hi
			if j < hi || i == len(exact) {
				break
			}
			e.Old.Hi, e.New.Hi = exact[i].Old.Hi, exact[i].New.Hi
			i++
		}
		if k := len(out) - 1; k >= 0 && out[k].New.Hi == e.New.Lo {
			out[k].Old.Hi, out[k].New.Hi = e.Old.Hi, e.New.Hi
		} else {
			out = append(out, e)
		}
	}
	edits := out[:0]
	for _, e := range out {
		if e = trimEdit(old, new, e); e.Old.Lo < e.Old.Hi || e.New.Lo < e.New.Hi {
			edits = append(edits, e)
		}
	}
	return edits
}

// trimEdit drops the whole lines an edit's two sides begin and end with
// in common: an edit of whole model entries shrinks to the lines that
// changed. The common ends are the same bytes on both sides, so the
// newline searches in them read new.
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
