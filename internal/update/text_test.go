package update

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestTextReadsLikeItsBytes: a Text cut into random pieces reads, by
// every accessor and over every range, exactly as the flat bytes do.
func TestTextReadsLikeItsBytes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 100; round++ {
		data := make([]byte, r.Intn(48))
		for i := range data {
			data[i] = "ab\n"[r.Intn(3)]
		}
		var txt Text
		txt.n = len(data)
		for lo := 0; lo < len(data); {
			hi := min(len(data), lo+1+r.Intn(8))
			txt.pieces = append(txt.pieces, piece{lo, data[lo:hi:hi]})
			lo = hi
		}
		lines := func(each func(Range, func([]byte, int) error) error, rg Range) string {
			var out []string
			each(rg, func(l []byte, off int) error {
				out = append(out, fmt.Sprintf("%d:%s", off, l))
				return nil
			})
			return fmt.Sprint(out)
		}
		flat := func(rg Range, fn func([]byte, int) error) error { return EachLine(data, rg, fn) }
		for lo := 0; lo <= len(data); lo++ {
			for hi := lo; hi <= len(data); hi++ {
				rg := Range{lo, hi}
				if got := txt.Slice(rg); !bytes.Equal(got, data[lo:hi]) {
					t.Fatalf("Slice(%v) = %q, want %q", rg, got, data[lo:hi])
				}
				if got, want := lines(txt.Lines, rg), lines(flat, rg); got != want {
					t.Fatalf("Lines(%v) = %s, want %s", rg, got, want)
				}
				if sub := txt.sub(rg); sub.Len() != hi-lo || !bytes.Equal(sub.Slice(Range{0, hi - lo}), data[lo:hi]) {
					t.Fatalf("sub(%v) reads %q", rg, sub.Slice(Range{0, sub.Len()}))
				}
				other := append(append([]byte(nil), data[lo:hi]...), 'x')
				other = append([]byte{'y'}, other...)
				k, m := 0, 0
				for k < hi-lo && k+1 < len(other) && data[lo+k] == other[k] {
					k++
				}
				for m < hi-lo && m < len(other) && data[hi-1-m] == other[len(other)-1-m] {
					m++
				}
				if txt.prefixLen(rg, other) != k || txt.suffixLen(rg, other) != m {
					t.Fatalf("prefixLen/suffixLen(%v) = %d/%d, want %d/%d", rg, txt.prefixLen(rg, other), txt.suffixLen(rg, other), k, m)
				}
				if txt.prefixLen(rg, data[lo:hi]) != hi-lo || txt.suffixLen(rg, data[lo:hi]) != hi-lo {
					t.Fatalf("a range is not its own prefix and suffix: %v", rg)
				}
			}
			if lo < len(data) && txt.boundary(lo) != boundary(data, lo) {
				t.Fatalf("boundary(%d) = %v", lo, txt.boundary(lo))
			}
		}
	}
}
