package update

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
)

// Text is a byte string read by range: one range of memory, or one
// range of an open file read through a window. Both sides of an agent's
// install view are file Texts: New is the staged bundle file, Old the
// file the target held before, read through the handle the session
// opened it with. Neither is ever read into memory whole.
//
// A sub-Text shares its parent's source: a file Text and every sub-Text
// cut from it read through one window, so a slice one read returns is
// valid until the next read of the same Text.
type Text struct {
	b      []byte  // the text, when it is in memory
	src    *source // else the file holding it, from offset off
	off, n int
}

// source is the open file a file Text reads, through a window: a pooled
// 64 KiB buffer, taken on the first read and put back by close,
// so reading a file line by line does not allocate.
type source struct {
	f    *os.File
	buf  *[]byte
	win  []byte // the file's bytes [lo, lo+len(win))
	lo   int
	line []byte // a line that crosses windows, assembled
	lr   io.LimitedReader
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
// least. The file is a bundle the session checked and holds open: a read
// that comes up short there is a fault the agent's dispatch recovers
// (MR_INTERNAL).
func (s *source) fill(at, n, need int) {
	k, err := s.f.ReadAt((*s.buffer())[:n], int64(at))
	if k < need {
		panic(fmt.Errorf("update: bundle file unreadable at %d: %v", at, err))
	}
	s.win, s.lo = (*s.buf)[:k], at
}

// buffer is the window's pooled buffer, taken on first use.
func (s *source) buffer() *[]byte {
	if s.buf == nil {
		s.buf = windows.Get().(*[]byte)
	}
	return s.buf
}

// close puts the window back in the pool and closes the file.
func (s *source) close() error {
	if s == nil {
		return nil
	}
	if s.buf != nil {
		windows.Put(s.buf)
		s.buf, s.win = nil, nil
	}
	return s.f.Close()
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

// fileText is the text of f's first n bytes.
func fileText(f *os.File, n int) Text { return Text{src: &source{f: f}, n: n} }

// TextOf is the Text of b, in memory.
func TextOf(b []byte) Text { return Text{b: b, n: len(b)} }

// Len is the text's length in bytes.
func (t Text) Len() int { return t.n }

// seg returns the text's bytes from offset i up to hi at most, as one
// slice, at least one byte when i < hi: in memory a sub-slice, in a file
// the window's bytes.
func (t Text) seg(i, hi int) []byte {
	if t.src == nil {
		return t.b[i:hi]
	}
	return t.src.read(t.off+i, hi-i)
}

// segBack returns the text's bytes up to offset hi, from lo at least, as
// one slice, at least one byte when lo < hi.
func (t Text) segBack(lo, hi int) []byte {
	if t.src == nil {
		return t.b[lo:hi]
	}
	return t.src.readBack(t.off+lo, t.off+hi)
}

// at is the byte at offset i < t.n.
func (t Text) at(i int) byte { return t.seg(i, i+1)[0] }

// bytes returns the text in [lo, hi) as one slice: a sub-slice of memory
// or of the window when it lies in one, else assembled in the source's
// line buffer.
func (t Text) bytes(lo, hi int) []byte {
	if lo >= hi {
		return nil
	}
	if s := t.seg(lo, hi); len(s) == hi-lo {
		return s
	}
	b := t.src.line[:0]
	for i := lo; i < hi; {
		s := t.seg(i, hi)
		b = append(b, s...)
		i += len(s)
	}
	t.src.line = b
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
// archive. A file Text is read straight into p.
func (t Text) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(t.n) {
		return 0, io.EOF
	}
	want := len(p)
	p = p[:min(want, t.n-int(off))]
	if t.src == nil {
		copy(p, t.b[off:])
	} else if n, err := t.src.f.ReadAt(p, int64(t.off)+off); err != nil {
		return n, err
	}
	if len(p) < want {
		return len(p), io.EOF
	}
	return len(p), nil
}

// copyTo writes the text in r to dst: from memory by a direct write,
// from a file file to file.
func (t Text) copyTo(dst *os.File, r Range) error {
	if t.src == nil {
		_, err := dst.Write(t.b[r.Lo:r.Hi])
		return err
	}
	return t.src.copyTo(dst, t.off+r.Lo, r.Hi-r.Lo)
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

// Sub is the text of range r, in r's coordinates, read through t's
// source.
func (t Text) Sub(r Range) Text {
	if r.Lo >= r.Hi {
		return Text{}
	}
	if t.src == nil {
		return TextOf(t.b[r.Lo:r.Hi:r.Hi])
	}
	return Text{src: t.src, off: t.off + r.Lo, n: r.Hi - r.Lo}
}

// boundary reports whether offset i is a line boundary of the text.
func (t Text) boundary(i int) bool { return i == 0 || i == t.n || t.at(i-1) == '\n' }
