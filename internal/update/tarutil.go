// Package update implements the Moira-to-server update protocol
// (section 5.9): the reliable, atomic mechanism by which the DCM
// delivers generated configuration files to managed hosts and runs the
// installation instruction sequence there.
//
// The protocol has two phases. The transfer phase authenticates, ships
// the data file (usually a tar bundle) with a checksum, and ships the
// installation script. The execution phase runs the script: extracting
// members from the tar, swapping files in with atomic renames, reverting
// erroneous installations, signalling daemons, and running registered
// commands. All steps are idempotent, so "extra installations are not
// harmful" and a crashed update is simply retried.
package update

import (
	"archive/tar"
	"bytes"
	"io"
	"slices"
	"sort"
	"strings"

	"moira/internal/mrerr"
)

// BuildTar packs the files (name -> content) into a tar archive with
// deterministic member order.
func BuildTar(files map[string][]byte) ([]byte, error) {
	return BuildTarInto(nil, files)
}

// BuildTarInto is BuildTar reusing prev's backing array when it is big
// enough — a DCM pass re-bundles tens of megabytes whose allocation
// (and collection) would otherwise dominate an incremental pass. The
// returned archive aliases prev; callers own the rotation and must be
// done with the previous archive before rebuilding into it.
func BuildTarInto(prev []byte, files map[string][]byte) ([]byte, error) {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	archive, _, err := BuildTarFrom(prev, names, func(i int) int { return len(files[names[i]]) },
		func(w io.Writer, i int) error {
			_, err := w.Write(files[names[i]])
			return err
		})
	return archive, err
}

// BuildTarFrom packs members named names, in that order, into a tar
// archive reusing prev's backing array when it is big enough: member i
// holds size(i) bytes, which write(w, i) writes to w. It returns the
// archive and where each member's data starts in it. When prev is too
// small the archive gets a new array with an eighth to spare, so a
// bundle that grows a little from pass to pass is not reallocated each
// time, and one that grew once does not keep twice its size.
func BuildTarFrom(prev []byte, names []string, size func(i int) int, write func(w io.Writer, i int) error) ([]byte, []int, error) {
	total := 1024 // the two terminating zero blocks
	for i := range names {
		// One 512-byte header plus the data rounded up to a block.
		total += 512 + (size(i)+511)&^511
	}
	if cap(prev) < total {
		prev = make([]byte, 0, total+total/8)
	}
	buf := bytes.NewBuffer(prev[:0])
	tw := tar.NewWriter(buf)
	offs := make([]int, len(names))
	for i, n := range names {
		hdr := &tar.Header{Name: n, Mode: 0o644, Size: int64(size(i))}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, nil, err
		}
		offs[i] = buf.Len()
		if err := write(tw, i); err != nil {
			return nil, nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), offs, nil
}

// ExtractMember finds one member of a tar archive in an index of its
// headers, by the rules an agent's "extract" follows. The instruction
// sequence extracts "only the ones that are needed ... one at a time".
//
// The result aliases archive: it is the member's sub-slice, never a
// copy, capped so an append cannot reach the next header. The caller
// must not modify it, and it is valid only as long as archive is. A
// missing member, a member that is not a plain regular file, or one
// whose header claims more bytes than archive holds is UpdNoFile.
func ExtractMember(archive []byte, name string) ([]byte, error) {
	idx, _ := indexTar(bytes.NewReader(archive), len(archive))
	r, ok := idx.get(name)
	if !ok {
		return nil, mrerr.UpdNoFile
	}
	return archive[r.Lo:r.Hi:r.Hi], nil
}

// tarIndex is a tar archive's members in the order a walk of its headers
// finds them, and the first member of each name. A damaged archive
// indexes what precedes the damage.
type tarIndex struct {
	members []tarMember
	byName  map[string]int
	size    int // the archive's length
}

// tarMember is one member of an indexed archive.
type tarMember struct {
	name string
	data Range // its data, as long as its header's size says
	// end is where the member's stored bytes end, so where the walk
	// resumes (the next header follows the padding): data.Lo for a type
	// that stores none, -1 when the walk cannot tell (a sparse file).
	end int
	reg bool // a regular file stored contiguously
}

// get returns the range of name's data under ExtractMember's rules:
// the first member of the name, a regular file stored contiguously that
// the archive holds whole.
func (x *tarIndex) get(name string) (Range, bool) {
	i, ok := x.byName[name]
	if !ok {
		return Range{}, false
	}
	m := x.members[i]
	return m.data, m.reg && m.data.Hi <= x.size
}

// indexTar indexes the archive of size bytes by one walk of its headers,
// and counts the headers it read.
func indexTar(archive io.ReaderAt, size int) (*tarIndex, int) {
	x := &tarIndex{size: size}
	walkTar(archive, 0, size, func(m tarMember) bool {
		x.members = append(x.members, m)
		return true
	})
	x.nameMembers(nil)
	return x, len(x.members)
}

// nameMembers maps each name to its first member, sharing old's map
// when old holds the same names in the same order.
func (x *tarIndex) nameMembers(old *tarIndex) {
	if old != nil && slices.EqualFunc(old.members, x.members, func(a, b tarMember) bool { return a.name == b.name }) {
		x.byName = old.byName
		return
	}
	x.byName = make(map[string]int, len(x.members))
	for i, m := range x.members {
		if _, dup := x.byName[m.name]; !dup {
			x.byName[m.name] = i
		}
	}
}

// walkTar walks the headers of a tar archive of size bytes from at, a
// member's end (or 0), calling fn with each member until fn returns
// false, the archive ends, or a header is damaged (the error). It reads
// the headers only: the reader seeks past member data.
func walkTar(archive io.ReaderAt, at, size int, fn func(m tarMember) bool) error {
	at = blockEnd(at) // past a member's padding
	if at > size {
		return io.ErrUnexpectedEOF
	}
	rd := io.NewSectionReader(archive, int64(at), int64(size-at))
	tr := tar.NewReader(rd)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		// Next stops at the member's first data byte.
		off, _ := rd.Seek(0, io.SeekCurrent)
		m := tarMember{name: hdr.Name, data: Range{at + int(off), at + int(off+hdr.Size)}, reg: plainFile(hdr)}
		switch {
		case headerOnly(hdr.Typeflag):
			m.end = m.data.Lo
		case hdr.Typeflag == tar.TypeGNUSparse || sparse(hdr):
			m.end = -1
		default:
			m.end = m.data.Hi
		}
		if !fn(m) {
			return nil
		}
	}
}

// indexFrom indexes new, the archive of size bytes that edits (in order,
// in both archives' offsets) made from the one old indexes, reading only
// the headers the edits may have changed, and counts the headers it
// read. A member whose header region (its header blocks, from the block
// after the previous member's stored bytes to its data) no edit touches,
// and which the walk of new reaches there, keeps its name and size, its
// range shifted; padding is never read, so an edit of it only shifts
// what follows. Each run of other members, and the trailer when an edit
// touches it, is walked in new from its start up to where the next
// untouched member's header starts; a walk that does not land exactly
// there goes on to the end. nil when old holds a member whose end it
// cannot tell that new keeps.
func indexFrom(old *tarIndex, edits []Edit, new io.ReaderAt, size int) (*tarIndex, int) {
	x := &tarIndex{members: make([]tarMember, 0, len(old.members)), size: size}
	walked := 0
	// The header region of old member k (the trailer at k = len): where
	// it starts in old (-1: unknown) and in new; ok is false when an
	// edit touches it.
	e, shift := 0, 0
	region := func(k int) (at, to int, ok bool) {
		if k > 0 {
			if at = old.members[k-1].end; at < 0 {
				return -1, -1, false
			}
			at = blockEnd(at)
		}
		for ; e < len(edits) && edits[e].Old.Hi <= at; e++ {
			shift = edits[e].New.Hi - edits[e].Old.Hi
		}
		if k == len(old.members) {
			return at, at + shift, e == len(edits)
		}
		return at, at + shift, e == len(edits) || edits[e].Old.Lo >= old.members[k].data.Lo
	}
	pos := 0 // where new's walk is: the last member's end
	for k := 0; k <= len(old.members); {
		at, to, ok := region(k)
		if ok && to == blockEnd(pos) {
			if k == len(old.members) {
				break // the trailer: new's walk ends as old's did
			}
			m := old.members[k]
			if m.end < 0 {
				return nil, walked
			}
			d := to - at
			m.data.Lo, m.data.Hi, m.end = m.data.Lo+d, m.data.Hi+d, m.end+d
			x.members = append(x.members, m)
			pos = m.end
			k++
			continue
		}
		// Walk to the next untouched region new's walk can land on.
		j, target := k, -1
		for ; j <= len(old.members); j++ {
			if at, to, ok := region(j); ok && at >= 0 && to >= blockEnd(pos) {
				target = to
				break
			}
		}
		if target != blockEnd(pos) {
			landed := false
			walkTar(new, pos, size, func(m tarMember) bool {
				walked++
				x.members = append(x.members, m)
				pos = m.end
				landed = pos >= 0 && blockEnd(pos) == target
				return !landed
			})
			if !landed {
				break
			}
		}
		k = j
	}
	x.nameMembers(old)
	return x, walked
}

// blockEnd is offset n rounded up to a tar block: where the header after
// a member whose stored bytes end at n starts.
func blockEnd(n int) int { return (n + 511) &^ 511 }

// headerOnly reports whether members of type flag store no data, as
// archive/tar reads them.
func headerOnly(flag byte) bool {
	switch flag {
	case tar.TypeLink, tar.TypeSymlink, tar.TypeChar, tar.TypeBlock, tar.TypeDir, tar.TypeFifo:
		return true
	}
	return false
}

// plainFile reports whether hdr is a regular file stored contiguously.
// A GNU sparse file is typed regular under PAX, but its stored bytes are
// a hole map and fragments, not the content.
func plainFile(hdr *tar.Header) bool {
	return hdr.Typeflag == tar.TypeReg && !sparse(hdr)
}

// sparse reports whether hdr's PAX records make it a GNU sparse file.
func sparse(hdr *tar.Header) bool {
	for k := range hdr.PAXRecords {
		if strings.HasPrefix(k, "GNU.sparse.") {
			return true
		}
	}
	return false
}
