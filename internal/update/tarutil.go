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
	r, ok := indexTar(bytes.NewReader(archive), len(archive))[name]
	if !ok || r.Lo < 0 {
		return nil, mrerr.UpdNoFile
	}
	return archive[r.Lo:r.Hi:r.Hi], nil
}

// indexTar maps each member name of archive (size bytes) to its data
// range (Lo < 0: not a plain file), the first header of a name winning.
// A damaged archive indexes what precedes the damage.
func indexTar(archive io.ReaderAt, size int) map[string]Range {
	idx := map[string]Range{}
	_ = walkTar(archive, size, func(name string, r Range, plain bool) {
		if _, dup := idx[name]; !dup {
			if !plain {
				r.Lo = -1
			}
			idx[name] = r
		}
	})
	return idx
}

// walkTar walks the headers of a tar archive of size bytes, calling fn
// with each member's name and the range of its data. It reads the
// headers only: the reader seeks past member data.
// plain is false for a member that is not a plain regular file or whose
// header claims more bytes than archive holds.
func walkTar(archive io.ReaderAt, size int, fn func(name string, r Range, plain bool)) error {
	rd := io.NewSectionReader(archive, 0, int64(size))
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
		plain := plainFile(hdr) && hdr.Size <= int64(size)-off
		fn(hdr.Name, Range{int(off), int(off + hdr.Size)}, plain)
	}
}

// plainFile reports whether hdr is a regular file stored contiguously.
// A GNU sparse file is typed regular under PAX, but its stored bytes are
// a hole map and fragments, not the content.
func plainFile(hdr *tar.Header) bool {
	if hdr.Typeflag != tar.TypeReg {
		return false
	}
	for k := range hdr.PAXRecords {
		if strings.HasPrefix(k, "GNU.sparse.") {
			return false
		}
	}
	return true
}
