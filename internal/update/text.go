package update

import (
	"bytes"
	"io"
	"sort"
)

// Text is a byte string held in pieces and read by range. It is the old
// side of a pushed member: the agent stitches it from the new bundle's
// bytes where the two bundles share a run and from the old chunks it
// read from the target beside those runs, so it never holds the old
// bundle whole.
type Text struct {
	n      int
	pieces []piece // in order, tiling [0, n)
}

// piece is the bytes of a Text from offset off.
type piece struct {
	off  int
	data []byte
}

// TextOf is the Text of b, in one piece.
func TextOf(b []byte) Text { return Text{n: len(b), pieces: []piece{{0, b}}} }

// Len is the text's length in bytes.
func (t Text) Len() int { return t.n }

// find returns the index of the piece holding offset i < t.n.
func (t Text) find(i int) int {
	return sort.Search(len(t.pieces), func(k int) bool {
		return t.pieces[k].off+len(t.pieces[k].data) > i
	})
}

// at is the byte at offset i < t.n.
func (t Text) at(i int) byte {
	p := t.pieces[t.find(i)]
	return p.data[i-p.off]
}

// Slice returns the bytes in r, which must lie within the text: a
// sub-slice when r lies in one piece, else a copy. The caller must not
// modify it.
func (t Text) Slice(r Range) []byte {
	if r.Lo >= r.Hi {
		return nil
	}
	if p := t.pieces[t.find(r.Lo)]; r.Hi <= p.off+len(p.data) {
		return p.data[r.Lo-p.off : r.Hi-p.off : r.Hi-p.off]
	}
	out := make([]byte, r.Hi-r.Lo)
	t.ReadAt(out, int64(r.Lo))
	return out
}

// ReadAt implements io.ReaderAt, so the text can be walked as a tar
// archive.
func (t Text) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(t.n) {
		return 0, io.EOF
	}
	n := 0
	for k := t.find(int(off)); n < len(p) && k < len(t.pieces); k++ {
		pc := t.pieces[k]
		n += copy(p[n:], pc.data[int(off)+n-pc.off:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Lines calls fn with each line of the text in r, without its newline,
// and the offset the line starts at, as EachLine does, stopping at fn's
// first error. A line is valid only during the call.
func (t Text) Lines(r Range, fn func(line []byte, off int) error) error {
	for off := r.Lo; off < r.Hi; {
		end := t.lineEnd(off, r.Hi)
		if err := fn(t.Slice(Range{off, end}), off); err != nil {
			return err
		}
		off = end + 1
	}
	return nil
}

// lineEnd returns the offset of the first newline in [lo, hi), or hi.
func (t Text) lineEnd(lo, hi int) int {
	for k := t.find(lo); lo < hi; k++ {
		p := t.pieces[k]
		end := min(hi, p.off+len(p.data))
		if j := bytes.IndexByte(p.data[lo-p.off:end-p.off], '\n'); j >= 0 {
			return lo + j
		}
		lo = end
	}
	return hi
}

// prefixLen is the length of the longest common prefix of the text in
// r and b.
func (t Text) prefixLen(r Range, b []byte) int {
	k := 0
	for off := r.Lo; off < r.Hi && k < len(b); {
		p := t.pieces[t.find(off)]
		seg := p.data[off-p.off : min(r.Hi, p.off+len(p.data))-p.off]
		j := 0
		for j < len(seg) && k+j < len(b) && seg[j] == b[k+j] {
			j++
		}
		k += j
		if j < len(seg) {
			break
		}
		off += j
	}
	return k
}

// suffixLen is the length of the longest common suffix of the text in
// r and b.
func (t Text) suffixLen(r Range, b []byte) int {
	m := 0
	for end := r.Hi; end > r.Lo && m < len(b); {
		p := t.pieces[t.find(end-1)]
		seg := p.data[max(r.Lo, p.off)-p.off : end-p.off]
		j := 0
		for j < len(seg) && m+j < len(b) && seg[len(seg)-1-j] == b[len(b)-1-m-j] {
			j++
		}
		m += j
		if j < len(seg) {
			break
		}
		end -= j
	}
	return m
}

// sub is the text of range r, in r's coordinates.
func (t Text) sub(r Range) Text {
	s := Text{n: r.Hi - r.Lo}
	if r.Lo >= r.Hi {
		return s
	}
	for k := t.find(r.Lo); k < len(t.pieces) && t.pieces[k].off < r.Hi; k++ {
		p := t.pieces[k]
		lo, hi := max(r.Lo, p.off), min(r.Hi, p.off+len(p.data))
		s.pieces = append(s.pieces, piece{lo - r.Lo, p.data[lo-p.off : hi-p.off : hi-p.off]})
	}
	return s
}

// boundary reports whether offset i is a line boundary of the text.
func (t Text) boundary(i int) bool { return i == 0 || i == t.n || t.at(i-1) == '\n' }
