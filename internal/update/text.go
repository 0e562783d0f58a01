package update

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Text is a byte string held in pieces and read by range. Both sides of
// an install view are Texts: New is the pushed chunks the session holds
// in memory and, between them, ranges of the staged bundle file; Old is
// the old chunks the agent read beside the runs the two bundles share
// and, under those runs, the same ranges of the staged file. Neither
// ever holds a bundle whole.
//
// A sub-Text shares its parent's pieces, and file pieces are read
// through the Text's source, one window shared by the Text and every
// sub-Text cut from it: a slice one read returns is valid until the next
// read of the same Text.
type Text struct {
	base, n int     // the text is the pieces' bytes [base, base+n)
	pieces  []piece // in order, tiling a range that holds [base, base+n)
	src     *source // reads the file pieces; nil when there are none
}

// piece is n > 0 bytes from offset off: data, or, when data is nil, the
// source file's bytes from offset at.
type piece struct {
	off, n int
	data   []byte
	at     int
}

func (p piece) end() int { return p.off + p.n }

// source is the open file a Text's file pieces read, through a window: a
// pooled chunk-sized buffer, taken on the first read and put back by
// release, so reading a file piece line by line does not allocate.
type source struct {
	f    *os.File
	buf  *[]byte
	win  []byte // the file's bytes [lo, lo+len(win))
	lo   int
	line []byte // a line that crosses pieces or windows, assembled
	lr   io.LimitedReader
}

// twin is a second source over the same file, with its own window, for a
// Text that is read alongside s's (an install view's Old beside its
// New).
func (s *source) twin() *source {
	if s == nil {
		return nil
	}
	return &source{f: s.f}
}

// read returns up to n > 0 bytes of the file from offset at, at least
// one, refilling the window forward from at when it does not hold at.
func (s *source) read(at, n int) []byte {
	if at < s.lo || at >= s.lo+len(s.win) {
		s.fill(at, len(*s.buffer()), 1)
	}
	w := s.win[at-s.lo:]
	return w[:min(n, len(w))]
}

// readBack returns the file's bytes in [lo, hi), or the tail of them the
// window holds, at least one byte, refilling the window to end at hi
// when it does not reach back before hi.
func (s *source) readBack(lo, hi int) []byte {
	if hi <= s.lo || hi > s.lo+len(s.win) {
		at := max(0, hi-len(*s.buffer()))
		s.fill(at, hi-at, hi-at)
	}
	return s.win[max(lo, s.lo)-s.lo : hi-s.lo]
}

// fill reads up to n bytes from at into the window, need of them at
// least. The file is the session's own verified bundle, held open: a
// read that comes up short there is a fault the agent's dispatch
// recovers (MR_INTERNAL).
func (s *source) fill(at, n, need int) {
	k, err := s.f.ReadAt((*s.buffer())[:n], int64(at))
	if k < need {
		panic(fmt.Errorf("update: staged bundle unreadable at %d: %v", at, err))
	}
	s.win, s.lo = (*s.buf)[:k], at
}

// buffer is the window's pooled buffer, taken on first use.
func (s *source) buffer() *[]byte {
	if s.buf == nil {
		s.buf = chunkBufs.Get().(*[]byte)
	}
	return s.buf
}

// release puts the window back in the pool.
func (s *source) release() {
	if s != nil && s.buf != nil {
		chunkBufs.Put(s.buf)
		s.buf, s.win = nil, nil
	}
}

// copyTo copies n bytes of the file from at to dst, file to file in the
// kernel (copy_file_range), not through a user-space buffer.
func (s *source) copyTo(dst *os.File, at, n int) error {
	if _, err := s.f.Seek(int64(at), io.SeekStart); err != nil {
		return err
	}
	s.lr = io.LimitedReader{R: s.f, N: int64(n)}
	m, err := dst.ReadFrom(&s.lr)
	if err == nil && m != int64(n) {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// TextOf is the Text of b, in one piece.
func TextOf(b []byte) Text {
	if len(b) == 0 {
		return Text{}
	}
	return Text{n: len(b), pieces: []piece{{n: len(b), data: b}}}
}

// Len is the text's length in bytes.
func (t Text) Len() int { return t.n }

// find returns the index of the piece holding offset i < t.n.
func (t Text) find(i int) int {
	i += t.base
	return sort.Search(len(t.pieces), func(k int) bool { return t.pieces[k].end() > i })
}

// seg returns the text's bytes from offset i up to hi at most, as one
// slice, at least one byte when i < hi: within a memory piece a
// sub-slice, within a file piece the window's bytes.
func (t Text) seg(i, hi int) []byte {
	p := t.pieces[t.find(i)]
	i, hi = t.base+i, min(t.base+hi, p.end())
	if p.data != nil {
		return p.data[i-p.off : hi-p.off]
	}
	return t.src.read(p.at+i-p.off, hi-i)
}

// segBack returns the text's bytes up to offset hi, from lo at least, as
// one slice, at least one byte when lo < hi.
func (t Text) segBack(lo, hi int) []byte {
	p := t.pieces[t.find(hi-1)]
	lo, hi = max(t.base+lo, p.off), t.base+hi
	if p.data != nil {
		return p.data[lo-p.off : hi-p.off]
	}
	return t.src.readBack(p.at+lo-p.off, p.at+hi-p.off)
}

// at is the byte at offset i < t.n.
func (t Text) at(i int) byte { return t.seg(i, i+1)[0] }

// bytes returns the text in [lo, hi) as one slice: a sub-slice of a
// memory piece or of the window when it lies in one, else assembled in
// the source's line buffer.
func (t Text) bytes(lo, hi int) []byte {
	if lo >= hi {
		return nil
	}
	if s := t.seg(lo, hi); len(s) == hi-lo {
		return s
	}
	var b []byte
	if t.src != nil {
		b = t.src.line[:0]
	}
	for i := lo; i < hi; {
		s := t.seg(i, hi)
		b = append(b, s...)
		i += len(s)
	}
	if t.src != nil {
		t.src.line = b
	}
	return b
}

// String returns a copy of the text in r, which must lie within it, in
// one allocation.
func (t Text) String(r Range) string {
	var b strings.Builder
	b.Grow(r.Hi - r.Lo)
	for i := r.Lo; i < r.Hi; {
		s := t.seg(i, r.Hi)
		b.Write(s)
		i += len(s)
	}
	return b.String()
}

// ReadAt implements io.ReaderAt, so the text can be walked as a tar
// archive. File pieces are read straight into p.
func (t Text) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(t.n) {
		return 0, io.EOF
	}
	want := len(p)
	p = p[:min(want, t.n-int(off))]
	n := 0
	for k := t.find(int(off)); n < len(p); k++ {
		pc := t.pieces[k]
		i := t.base + int(off) + n - pc.off
		m := min(len(p)-n, pc.n-i)
		if pc.data != nil {
			copy(p[n:n+m], pc.data[i:])
		} else if _, err := t.src.f.ReadAt(p[n:n+m], int64(pc.at+i)); err != nil {
			return n, err
		}
		n += m
	}
	if n < want {
		return n, io.EOF
	}
	return n, nil
}

// copyTo writes the text in r to dst: memory pieces by a direct write,
// file pieces copied from file to file.
func (t Text) copyTo(dst *os.File, r Range) error {
	for i := r.Lo; i < r.Hi; {
		p := t.pieces[t.find(i)]
		lo, hi := t.base+i, min(t.base+r.Hi, p.end())
		var err error
		if p.data != nil {
			_, err = dst.Write(p.data[lo-p.off : hi-p.off])
		} else {
			err = t.src.copyTo(dst, p.at+lo-p.off, hi-lo)
		}
		if err != nil {
			return err
		}
		i += hi - lo
	}
	return nil
}

// Lines calls fn with each line of the text in r, without its newline,
// and the offset the line starts at, as EachLine does, stopping at fn's
// first error. A line is valid until fn returns or reads t. Reading
// lines allocates nothing past the source's line buffer.
func (t Text) Lines(r Range, fn func(line []byte, off int) error) error {
	for off := r.Lo; off < r.Hi; {
		end := t.lineEnd(off, r.Hi)
		if err := fn(t.bytes(off, end), off); err != nil {
			return err
		}
		off = end + 1
	}
	return nil
}

// LineNo is the 1-based number of the line holding offset off.
func (t Text) LineNo(off int) int {
	n := 1
	for i := 0; i < off; {
		s := t.seg(i, off)
		n += bytes.Count(s, []byte{'\n'})
		i += len(s)
	}
	return n
}

// lineEnd returns the offset of the first newline in [lo, hi), or hi.
func (t Text) lineEnd(lo, hi int) int {
	for lo < hi {
		s := t.seg(lo, hi)
		if j := bytes.IndexByte(s, '\n'); j >= 0 {
			return lo + j
		}
		lo += len(s)
	}
	return hi
}

// lastNewline returns the offset of the last newline in [lo, hi), or
// lo-1.
func (t Text) lastNewline(lo, hi int) int {
	for hi > lo {
		s := t.segBack(lo, hi)
		if j := bytes.LastIndexByte(s, '\n'); j >= 0 {
			return hi - len(s) + j
		}
		hi -= len(s)
	}
	return lo - 1
}

// prefixLen is the length of the longest common prefix of t's text in r
// and b's in rb. t and b read through sources of their own.
func (t Text) prefixLen(r Range, b Text, rb Range) int {
	k := 0
	for r.Lo+k < r.Hi && rb.Lo+k < rb.Hi {
		x, y := t.seg(r.Lo+k, r.Hi), b.seg(rb.Lo+k, rb.Hi)
		n := min(len(x), len(y))
		j := 0
		for j < n && x[j] == y[j] {
			j++
		}
		k += j
		if j < n {
			break
		}
	}
	return k
}

// suffixLen is the length of the longest common suffix of t's text in r
// and b's in rb.
func (t Text) suffixLen(r Range, b Text, rb Range) int {
	m := 0
	for r.Hi-m > r.Lo && rb.Hi-m > rb.Lo {
		x, y := t.segBack(r.Lo, r.Hi-m), b.segBack(rb.Lo, rb.Hi-m)
		n := min(len(x), len(y))
		j := 0
		for j < n && x[len(x)-1-j] == y[len(y)-1-j] {
			j++
		}
		m += j
		if j < n {
			break
		}
	}
	return m
}

// Sub is the text of range r, in r's coordinates: the pieces of t that
// hold it, shared, read through t's source.
func (t Text) Sub(r Range) Text {
	if r.Lo >= r.Hi {
		return Text{}
	}
	return Text{base: t.base + r.Lo, n: r.Hi - r.Lo, pieces: t.pieces[t.find(r.Lo) : t.find(r.Hi-1)+1], src: t.src}
}

// appendPieces appends the pieces holding t's text in r to dst, cut to r
// and moved so that r.Lo falls at offset off.
func (t Text) appendPieces(dst []piece, r Range, off int) []piece {
	if r.Lo >= r.Hi {
		return dst
	}
	off -= t.base + r.Lo
	r = Range{t.base + r.Lo, t.base + r.Hi}
	for k := t.find(r.Lo - t.base); k < len(t.pieces) && t.pieces[k].off < r.Hi; k++ {
		p := t.pieces[k]
		lo, hi := max(r.Lo, p.off), min(r.Hi, p.end())
		q := piece{off: lo + off, n: hi - lo}
		if p.data != nil {
			q.data = p.data[lo-p.off : hi-p.off : hi-p.off]
		} else {
			q.at = p.at + lo - p.off
		}
		dst = append(dst, q)
	}
	return dst
}

// boundary reports whether offset i is a line boundary of the text.
func (t Text) boundary(i int) bool { return i == 0 || i == t.n || t.at(i-1) == '\n' }
