package update

import (
	"crypto/sha256"
	"hash"
	"os"
	"path/filepath"
	"sync"

	"moira/internal/mrerr"
)

// windows holds the buffers a transfer copies the old bundle through and
// file Texts read through.
const windowSize = 64 << 10

var windows = sync.Pool{New: func() any {
	b := make([]byte, windowSize)
	return &b
}}

// xfer is one transfer, alive from its begin to its assemble: the new
// bundle made from its base by edits, in one in-order pass. The old side
// is the file the target held at the begin, read through the session's
// handle on it (its inode, whatever later replaces the path), or the
// empty file when the base is. Each edit copies the old bytes before it
// to the staging file, skips the ones it replaces and writes its own;
// the assemble copies the rest. Every old byte is hashed against the
// base and every staged byte against the new sum as it goes by.
type xfer struct {
	fp        string
	base, sum Sum
	old       *os.File // nil: the base is the empty file, or fp held nothing
	oldLen    int
	staged    *os.File

	at, n            int // old bytes passed, bytes staged
	oldHash, newHash hash.Hash
	edits            []Edit // the shipped edits, in both bundles' coordinates
	kept             int    // runs of old bytes copied
}

// beginXfer starts a transfer to host path fp of the bundle whose sum is
// sum, made from the base whose sum is base. It opens fp unless the base
// is the empty file, and creates fp's staging file, first deleting the
// staging files a crashed run left there ("it may be incomplete"):
// exactly the names this agent stages fp under, nothing that merely
// shares its prefix.
func beginXfer(fp string, base, sum Sum) (*xfer, error) {
	os.Remove(fp + updateSuffix)
	os.Remove(fp + xferSuffix)
	x := &xfer{fp: fp, base: base, sum: sum, oldHash: sha256.New(), newHash: sha256.New()}
	if base != emptySum {
		if f, err := os.Open(fp); err == nil {
			if fi, err := f.Stat(); err == nil {
				x.old, x.oldLen = f, int(fi.Size())
			} else {
				f.Close()
			}
		}
	}
	err := os.MkdirAll(filepath.Dir(fp), 0o755)
	if err == nil {
		x.staged, err = os.OpenFile(fp+xferSuffix, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	}
	if err != nil {
		x.closeOld()
		return nil, err
	}
	return x, nil
}

// apply replaces n bytes at off of the base by data. Edits come in
// order: off is at or past the end of the last one. An edit reaching
// past the old file's end proves the target is not the base.
func (x *xfer) apply(off, n int, data []byte) mrerr.Code {
	switch {
	case off < x.at || n < 0:
		return mrerr.MrArgs
	case n > x.oldLen-off:
		return mrerr.UpdBaseMismatch
	}
	if !x.pass(off, true) || !x.pass(off+n, false) {
		return mrerr.MrInternal
	}
	if _, err := x.staged.Write(data); err != nil {
		return mrerr.MrInternal
	}
	x.newHash.Write(data)
	if k := len(x.edits) - 1; k >= 0 && x.edits[k].Old.Hi == off && x.edits[k].New.Hi == x.n {
		x.edits[k].Old.Hi, x.edits[k].New.Hi = off+n, x.n+len(data)
	} else if n > 0 || len(data) > 0 {
		x.edits = append(x.edits, Edit{Old: Range{off, off + n}, New: Range{x.n, x.n + len(data)}})
	}
	x.n += len(data)
	return mrerr.Success
}

// pass moves past the old bytes up to hi, through one pooled window,
// hashing them, and copies them to the staging file when keep.
func (x *xfer) pass(hi int, keep bool) bool {
	if x.at >= hi {
		return true
	}
	if keep {
		x.kept++
	}
	bp := windows.Get().(*[]byte)
	defer windows.Put(bp)
	for x.at < hi {
		b := (*bp)[:min(len(*bp), hi-x.at)]
		if _, err := x.old.ReadAt(b, int64(x.at)); err != nil {
			return false
		}
		x.oldHash.Write(b)
		if keep {
			if _, err := x.staged.Write(b); err != nil {
				return false
			}
			x.newHash.Write(b)
			x.n += len(b)
		}
		x.at += len(b)
	}
	return true
}

// assemble finishes the transfer ("the file transfer includes a checksum
// to insure data integrity"): the old bytes after the last edit are
// copied, the old file checked against the base and the staged one
// against the new sum, and the staging file flushed to disk ("flush all
// data on the server to disk") and renamed over the target. The target
// is never partial: until the rename it holds its previous bytes. It
// returns the view of the transfer, which owns both handles; on failure
// the staging file is gone, the target untouched and the handles closed.
func (x *xfer) assemble() (*Install, mrerr.Code) {
	code := mrerr.Success
	switch {
	case !x.pass(x.oldLen, true):
		code = mrerr.MrInternal
	case sumOf(x.oldHash) != x.base:
		code = mrerr.UpdBaseMismatch
	case sumOf(x.newHash) != x.sum:
		code = mrerr.UpdChecksum
	case x.staged.Sync() != nil, os.Rename(x.fp+xferSuffix, x.fp) != nil:
		code = mrerr.MrInternal
	}
	if code != mrerr.Success {
		x.abort()
		return nil, code
	}
	in := newInstall(fileText(x.staged, x.n), x.sum, x.edits)
	if x.old != nil {
		in.old, in.base, in.oldID = fileText(x.old, x.oldLen), x.base, x.base.String()
	}
	return in, mrerr.Success
}

// abort ends the transfer unassembled: the staging file is closed and
// removed, the old bundle's handle closed.
func (x *xfer) abort() {
	x.staged.Close()
	os.Remove(x.fp + xferSuffix)
	x.closeOld()
}

func (x *xfer) closeOld() {
	if x.old != nil {
		x.old.Close()
	}
}

// sumOf is the sum h holds.
func sumOf(h hash.Hash) (s Sum) {
	h.Sum(s[:0])
	return s
}
