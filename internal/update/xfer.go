package update

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"moira/internal/mrerr"
)

// chunkBufs holds chunk-sized buffers: the windows chunks are cut,
// checked and staged through, and the windows file Texts read through.
var chunkBufs = sync.Pool{New: func() any {
	b := make([]byte, chunkMax)
	return &b
}}

// oldSide is the bundle a transfer's target held when the manifest
// arrived: the session's handle on it (its inode, whatever later
// replaces the path), its chunk list, every chunk of it checked, and the
// runs the new bundle shares with it.
type oldSide struct {
	f       *os.File
	size    int
	chunks  []Chunk
	anchors []anchor
}

// openOld opens the bundle at fp for a transfer of newChunks and learns
// its chunks: kept, the chunk list kept for fp, when fp checks out
// against it, else those cutFile cuts. dropped reports a kept list that
// did not check out. old is nil when fp holds nothing readable.
func openOld(fp string, kept, newChunks []Chunk) (old *oldSide, dropped bool) {
	f, err := os.Open(fp)
	if err != nil {
		return nil, false
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false
	}
	size, chunks := int(fi.Size()), kept
	if kept != nil && (length(kept) != size || !checkChunks(f, kept)) {
		chunks, dropped = nil, true
	}
	if chunks == nil {
		var ok bool
		if chunks, ok = cutFile(f, size); !ok {
			f.Close()
			return nil, dropped
		}
	}
	return &oldSide{f: f, size: size, chunks: chunks, anchors: bundleAnchors(chunks, newChunks)}, dropped
}

// length is the length of the file chunks tile.
func length(chunks []Chunk) int {
	if k := len(chunks); k > 0 {
		return chunks[k-1].Off + chunks[k-1].Len
	}
	return 0
}

// runs are the anchors (none for a nil side): the chunks of the new
// bundle in them are read from the old bundle's file.
func (o *oldSide) runs() []anchor {
	if o == nil {
		return nil
	}
	return o.anchors
}

// outside calls fn with each run of o's chunks that lies outside the
// anchors, in order, and reports whether every call returned true.
func (o *oldSide) outside(fn func([]Chunk) bool) bool {
	ci := 0
	for k := 0; k <= len(o.anchors); k++ {
		a := anchor{o: o.size}
		if k < len(o.anchors) {
			a = o.anchors[k]
		}
		cj := ci
		for cj < len(o.chunks) && o.chunks[cj].Off < a.o {
			cj++
		}
		if ci < cj && !fn(o.chunks[ci:cj]) {
			return false
		}
		for cj < len(o.chunks) && o.chunks[cj].Off < a.o+a.n {
			cj++
		}
		ci = cj
	}
	return true
}

func (o *oldSide) close() {
	if o != nil {
		o.f.Close()
	}
}

// checkChunks reads chunks, which lie back to back in src, through one
// pooled window in batches of whole chunks, and checks each one's sum.
func checkChunks(src io.ReaderAt, chunks []Chunk) bool {
	bp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bp)
	for i := 0; i < len(chunks); {
		w, j := chunks[i].Off, i+1
		for j < len(chunks) && chunks[j].Off+chunks[j].Len-w <= len(*bp) {
			j++
		}
		b := (*bp)[:chunks[j-1].Off+chunks[j-1].Len-w]
		if _, err := src.ReadAt(b, int64(w)); err != nil {
			return false
		}
		for ; i < j; i++ {
			if c := chunks[i]; sha256.Sum256(b[c.Off-w:c.Off-w+c.Len]) != c.Sum {
				return false
			}
		}
	}
	return true
}

// cutFile cuts the first size bytes of src into exactly the chunks
// SplitChunks cuts from them, reading through one pooled window: a chunk
// is cut in the window when it ends there, and the window refilled from
// its start when the chunk may run past it.
func cutFile(src io.ReaderAt, size int) ([]Chunk, bool) {
	bp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bp)
	var out []Chunk
	win, lo := (*bp)[:0], 0
	for off := 0; off < size; {
		w := win[off-lo:]
		n := cutPoint(w)
		if need := min(chunkMax, size-off); n == len(w) && n < need {
			if k, _ := src.ReadAt((*bp)[:need], int64(off)); k < need {
				return nil, false
			}
			win, lo = (*bp)[:need], off
			continue
		}
		out = append(out, Chunk{Off: off, Len: n, Sum: sha256.Sum256(w[:n])})
		off += n
	}
	return out, true
}

// where is where a chunk's bytes are: at offset at of the old bundle's
// file or, once pushed, of the staging file. A chunk the pusher was asked
// for and has not sent is at -1.
type where struct {
	at     int
	pushed bool
}

// xfer is one chunked transfer, alive from its manifest to its assemble:
// the new bundle's chunk list and sum, the old bundle its target held,
// where each chunk the new bundle needs is, and the staging file the
// pushed chunks are written into, each at its offset.
type xfer struct {
	fp       string
	manifest []Chunk
	wholeSum [sha256.Size]byte
	old      *oldSide // nil when the target held nothing
	have     map[[sha256.Size]byte]where
	staged   *os.File

	reused, reusedBytes int // chunks of the manifest found at the target
}

// beginXfer starts a transfer of the bundle manifest describes to host
// path fp over old, the bundle fp holds (nil: none), which it owns from
// then on. It creates fp's staging file, first deleting the staging
// files a crashed run left there ("it may be incomplete"): exactly the
// names this agent stages fp under, nothing that merely shares its
// prefix. It returns the indices of the chunks the pusher must send,
// each distinct chunk once.
func beginXfer(fp string, old *oldSide, manifest []Chunk, wholeSum [sha256.Size]byte) (*xfer, []int, error) {
	os.Remove(fp + updateSuffix)
	os.Remove(fp + xferSuffix)
	x := &xfer{fp: fp, manifest: manifest, wholeSum: wholeSum, old: old}
	err := os.MkdirAll(filepath.Dir(fp), 0o755)
	if err == nil {
		x.staged, err = os.OpenFile(fp+xferSuffix, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	}
	if err != nil {
		old.close()
		return nil, nil, err
	}
	// Only chunks outside the runs the target still holds are looked up:
	// they size the map.
	outside := 0
	inRun := runCursor(old.runs())
	for _, c := range manifest {
		if !inRun(c) {
			outside++
		}
	}
	x.have = make(map[[sha256.Size]byte]where, outside)
	if old != nil {
		old.outside(func(cs []Chunk) bool {
			for _, c := range cs {
				if _, dup := x.have[c.Sum]; !dup {
					x.have[c.Sum] = where{at: c.Off}
				}
			}
			return true
		})
	}
	var needed []int
	inRun = runCursor(old.runs())
	for i, c := range manifest {
		switch w, ok := x.have[c.Sum]; {
		case inRun(c) || ok && w.at >= 0:
			x.reused++
			x.reusedBytes += c.Len
		case !ok: // a duplicate of a chunk asked for travels once
			x.have[c.Sum] = where{at: -1}
			needed = append(needed, i)
		}
	}
	return x, needed, nil
}

// put writes pushed chunk i, checked against the manifest, at its offset
// in the staging file.
func (x *xfer) put(i int, data []byte) mrerr.Code {
	c := x.manifest[i]
	if len(data) != c.Len || sha256.Sum256(data) != c.Sum {
		return mrerr.UpdChecksum
	}
	if _, err := x.staged.WriteAt(data, int64(c.Off)); err != nil {
		return mrerr.MrInternal
	}
	x.have[c.Sum] = where{at: c.Off, pushed: true}
	return mrerr.Success
}

// assemble finishes the transfer ("the file transfer includes a checksum
// to insure data integrity"): stage's one pass over the new bundle, a
// re-check of the old chunks that pass did not read (the view shows
// them, so it shows only bytes checked after the last pushed chunk),
// then the staging file flushed to disk ("flush all data on the server
// to disk") and renamed over the target. The target is never partial:
// until the rename it holds its previous bytes. It returns the view of
// the transfer, which owns both handles; on failure the staging file is
// gone, the target untouched and the handles closed.
func (x *xfer) assemble() (*Install, mrerr.Code) {
	var src io.ReaderAt
	if x.old != nil {
		src = x.old.f
	}
	code := mrerr.Success
	switch err := stage(x.staged, x.manifest, x.have, src, x.old.runs(), x.wholeSum); {
	case errors.Is(err, errStaging):
		code = mrerr.MrInternal
	case err != nil, x.old != nil && !x.old.outside(func(cs []Chunk) bool { return checkChunks(x.old.f, cs) }):
		code = mrerr.UpdChecksum
	case x.staged.Sync() != nil, os.Rename(x.fp+xferSuffix, x.fp) != nil:
		code = mrerr.MrInternal
	}
	if code != mrerr.Success {
		x.abort()
		return nil, code
	}
	in := newInstall(fileText(x.staged, length(x.manifest)), x.manifest)
	if o := x.old; o != nil {
		in.old, in.oldID, in.anchors = fileText(o.f, o.size), manifestID(o.chunks), o.anchors
	}
	return in, mrerr.Success
}

// abort ends the transfer unassembled: the staging file is closed and
// removed, the old bundle's handle closed.
func (x *xfer) abort() {
	x.staged.Close()
	os.Remove(x.fp + xferSuffix)
	x.old.close()
}

// errStaging marks a stage that failed reading or writing the staging
// file, not checking a chunk.
var errStaging = errors.New("writing the staged file")

// stage assembles in dst the file manifest describes, in one in-order
// pass. Each chunk is read from where it is: in one of runs (runs of
// old the new file shares), or at the offset have gives, in old or, when
// pushed, in dst. It is read through one pooled chunk-sized window, in
// batches of whole chunks from one place, its sum checked, and written
// at its offset in dst unless it already sits there; the whole file,
// hashed over exactly those bytes, must match wholeSum. Every chunk is
// looked up before the first write, so a manifest naming a chunk nobody
// supplied fails with nothing written.
func stage(dst interface {
	io.ReaderAt
	io.WriterAt
}, manifest []Chunk, have map[[sha256.Size]byte]where, old io.ReaderAt, runs []anchor, wholeSum [sha256.Size]byte) error {
	inRun := runCursor(runs)
	for i, c := range manifest {
		if w, ok := have[c.Sum]; !inRun(c) && (!ok || w.at < 0) {
			return fmt.Errorf("chunk %d (%x) missing", i, c.Sum[:6])
		}
	}
	bp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bp)
	whole := sha256.New()
	inRun, r := runCursor(runs), 0
	// from is where chunk c is: the file, the offset, and whether that is
	// c's own place in dst. Asked in order, as inRun is.
	from := func(c Chunk) (io.ReaderAt, int, bool) {
		if inRun(c) {
			for runs[r].p+runs[r].n <= c.Off {
				r++
			}
			return old, runs[r].o + c.Off - runs[r].p, false
		}
		w := have[c.Sum]
		if w.pushed {
			return dst, w.at, w.at == c.Off
		}
		return old, w.at, false
	}
	for i := 0; i < len(manifest); {
		c := manifest[i]
		src, at, inPlace := from(c)
		j := i + 1
		for j < len(manifest) && manifest[j].Off+manifest[j].Len-c.Off <= len(*bp) {
			s, a, p := from(manifest[j])
			if s != src || a != at+manifest[j].Off-c.Off || p != inPlace {
				break
			}
			j++
		}
		b := (*bp)[:manifest[j-1].Off+manifest[j-1].Len-c.Off]
		if _, err := src.ReadAt(b, int64(at)); err != nil && src == io.ReaderAt(dst) {
			return fmt.Errorf("%w: reading pushed chunks: %v", errStaging, err)
		} else if err != nil {
			return fmt.Errorf("reading reused chunks: %w", err)
		}
		for ; i < j; i++ {
			if m := manifest[i]; sha256.Sum256(b[m.Off-c.Off:m.Off-c.Off+m.Len]) != m.Sum {
				return fmt.Errorf("chunk %d: checksum mismatch", i)
			}
		}
		whole.Write(b)
		if !inPlace {
			if _, err := dst.WriteAt(b, int64(c.Off)); err != nil {
				return fmt.Errorf("%w: %v", errStaging, err)
			}
		}
	}
	var sum [sha256.Size]byte
	if [sha256.Size]byte(whole.Sum(sum[:0])) != wholeSum {
		return fmt.Errorf("staged file checksum mismatch")
	}
	return nil
}

// runCursor returns a test of whether each chunk of a manifest, asked
// in order, lies in one of runs (sorted by new-bundle offset).
func runCursor(runs []anchor) func(Chunk) bool {
	i := 0
	return func(c Chunk) bool {
		for i < len(runs) && runs[i].p+runs[i].n <= c.Off {
			i++
		}
		return i < len(runs) && runs[i].p <= c.Off
	}
}
