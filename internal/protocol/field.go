package protocol

import (
	"bytes"
	"strconv"
	"strings"
)

// Field is one reply field as the server builds it: text, or an integer
// that the encoder writes in decimal straight into the frame. A tuple of
// Fields costs no string per integer column; on the wire an integer is
// the counted string of its decimal text, so the bytes are those of the
// rendered tuple.
type Field struct {
	s   string
	n   int64
	num bool
}

// Text is a text field.
func Text(s string) Field { return Field{s: s} }

// Int is an integer field, sent as its decimal text.
func Int(n int64) Field { return Field{n: n, num: true} }

// IsInt reports whether f is an integer field.
func (f Field) IsInt() bool { return f.num }

// Len is the length of f's wire text.
func (f Field) Len() int {
	if !f.num {
		return len(f.s)
	}
	l, u := 1, uint64(f.n)
	if f.n < 0 {
		l, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		l++
	}
	return l
}

// Append appends f's wire text to dst.
func (f Field) Append(dst []byte) []byte {
	if f.num {
		return strconv.AppendInt(dst, f.n, 10)
	}
	return append(dst, f.s...)
}

// String is f's wire text. It allocates for an integer field.
func (f Field) String() string {
	if f.num {
		return strconv.FormatInt(f.n, 10)
	}
	return f.s
}

// Compare orders fields by their wire text, byte-wise, as
// strings.Compare orders the rendered strings: an integer compares by
// its decimal text ("10" < "9", "-1" < "0"), not by value.
func (f Field) Compare(g Field) int {
	if !f.num && !g.num {
		return strings.Compare(f.s, g.s)
	}
	var fb, gb [20]byte
	switch {
	case f.num && g.num:
		return bytes.Compare(f.Append(fb[:0]), g.Append(gb[:0]))
	case f.num:
		return -compareText(g.s, f.Append(fb[:0]))
	default:
		return compareText(f.s, g.Append(gb[:0]))
	}
}

// compareText is strings.Compare(s, string(b)) without the conversion's
// allocation.
func compareText(s string, b []byte) int {
	switch {
	case s < string(b):
		return -1
	case s > string(b):
		return 1
	}
	return 0
}
