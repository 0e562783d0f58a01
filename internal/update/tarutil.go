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
	size := 1024 // the two terminating zero blocks
	for n := range files {
		names = append(names, n)
		// One 512-byte header plus the data rounded up to a block.
		size += 512 + (len(files[n])+511)&^511
	}
	sort.Strings(names)
	buf := bytes.NewBuffer(prev[:0])
	buf.Grow(size)
	tw := tar.NewWriter(buf)
	for _, n := range names {
		hdr := &tar.Header{Name: n, Mode: 0o644, Size: int64(len(files[n]))}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, err
		}
		if _, err := tw.Write(files[n]); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ExtractMember finds one member of a tar archive by walking its
// headers in memory. The instruction sequence extracts "only the ones
// that are needed ... one at a time".
//
// The result aliases archive: it is the member's sub-slice, never a
// copy, capped so an append cannot reach the next header. The caller
// must not modify it, and it is valid only as long as archive is. A
// missing member, a member that is not a plain regular file, or one
// whose header claims more bytes than archive holds is UpdNoFile.
func ExtractMember(archive []byte, name string) ([]byte, error) {
	r := bytes.NewReader(archive)
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil, mrerr.UpdNoFile
		}
		if err != nil {
			return nil, err
		}
		if hdr.Name != name {
			continue
		}
		// Next stops at the member's first data byte.
		off := r.Size() - int64(r.Len())
		if !plainFile(hdr) || hdr.Size > int64(len(archive))-off {
			return nil, mrerr.UpdNoFile
		}
		end := off + hdr.Size
		return archive[off:end:end], nil
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

// ListTar returns the member names of a tar archive in order.
func ListTar(archive []byte) ([]string, error) {
	tr := tar.NewReader(bytes.NewReader(archive))
	var names []string
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return names, nil
		}
		if err != nil {
			return nil, err
		}
		names = append(names, hdr.Name)
	}
}
