package update

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// fileOf is data as a file Text: read from a file that holds it after
// a prefix of junk, so file offsets differ from text offsets.
func fileOf(t testing.TB, r *rand.Rand, data []byte) Text {
	t.Helper()
	junk := make([]byte, r.Intn(100))
	f, err := os.Create(filepath.Join(t.TempDir(), "staged"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(junk, data...)); err != nil {
		t.Fatal(err)
	}
	txt := Text{src: &source{f: f}, off: len(junk), n: len(data)}
	t.Cleanup(func() { txt.src.close() })
	return txt
}

// lines renders each line an EachLine-style walker gives over rg.
func lines(each func(Range, func([]byte, int) error) error, rg Range) string {
	var out []string
	each(rg, func(l []byte, off int) error {
		out = append(out, fmt.Sprintf("%d:%s", off, l))
		return nil
	})
	return fmt.Sprint(out)
}

// TestTextReadsLikeItsBytes: a Text in memory and one read from a file
// read, by every accessor and over every range, exactly as the flat
// bytes do.
func TestTextReadsLikeItsBytes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 100; round++ {
		data := make([]byte, r.Intn(48))
		for i := range data {
			data[i] = "ab\n"[r.Intn(3)]
		}
		txt := TextOf(data)
		if round%2 == 1 {
			txt = fileOf(t, r, data)
		}
		flat := func(rg Range, fn func([]byte, int) error) error { return EachLine(data, rg, fn) }
		for lo := 0; lo <= len(data); lo++ {
			for hi := lo; hi <= len(data); hi++ {
				rg := Range{lo, hi}
				if got := txt.String(rg); got != string(data[lo:hi]) {
					t.Fatalf("String(%v) = %q, want %q", rg, got, data[lo:hi])
				}
				got := make([]byte, hi-lo)
				if n, err := txt.ReadAt(got, int64(lo)); (n != hi-lo || err != nil) && lo < len(data) || !bytes.Equal(got[:n], data[lo:lo+n]) {
					t.Fatalf("ReadAt(%d bytes at %d) = %d, %v: %q", hi-lo, lo, n, err, got[:n])
				}
				if got, want := lines(txt.Lines, rg), lines(flat, rg); got != want {
					t.Fatalf("Lines(%v) = %s, want %s", rg, got, want)
				}
				if got, want := txt.lastNewline(lo, hi), lo+bytes.LastIndexByte(data[lo:hi], '\n'); got != want && !(got == lo-1 && want == lo-1) {
					t.Fatalf("lastNewline(%v) = %d, want %d", rg, got, want)
				}
				sub, part := txt.Sub(rg), data[lo:hi]
				if sub.Len() != hi-lo || sub.String(Range{0, hi - lo}) != string(part) {
					t.Fatalf("Sub(%v) reads %q", rg, sub.String(Range{0, sub.Len()}))
				}
				flatSub := func(rg Range, fn func([]byte, int) error) error { return EachLine(part, rg, fn) }
				if got, want := lines(sub.Lines, Range{0, hi - lo}), lines(flatSub, Range{0, hi - lo}); got != want {
					t.Fatalf("Sub(%v).Lines = %s, want %s", rg, got, want)
				}
				other := append(append([]byte{'y'}, data[lo:hi]...), 'x')
				k, m := 0, 0
				for k < hi-lo && k+1 < len(other) && data[lo+k] == other[k] {
					k++
				}
				for m < hi-lo && m < len(other) && data[hi-1-m] == other[len(other)-1-m] {
					m++
				}
				ot := TextOf(other)
				or := Range{0, len(other)}
				if txt.prefixLen(rg, ot, or) != k || txt.suffixLen(rg, ot, or) != m {
					t.Fatalf("prefixLen/suffixLen(%v) = %d/%d, want %d/%d", rg, txt.prefixLen(rg, ot, or), txt.suffixLen(rg, ot, or), k, m)
				}
				self := TextOf(data[lo:hi])
				if txt.prefixLen(rg, self, Range{0, hi - lo}) != hi-lo || txt.suffixLen(rg, self, Range{0, hi - lo}) != hi-lo {
					t.Fatalf("a range is not its own prefix and suffix: %v", rg)
				}
			}
			if lo < len(data) && txt.boundary(lo) != boundary(data, lo) {
				t.Fatalf("boundary(%d) = %v", lo, txt.boundary(lo))
			}
			if got, want := txt.LineNo(lo), bytes.Count(data[:lo], []byte{'\n'})+1; got != want {
				t.Fatalf("LineNo(%d) = %d, want %d", lo, got, want)
			}
		}
	}
}

// TestTextReadsAcrossWindows: a file Text larger than the read window,
// with lines that cross windows (one longer than a window), reads line
// by line and compares in both directions exactly as the flat bytes do,
// and copies out to a file byte for byte.
func TestTextReadsAcrossWindows(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var b bytes.Buffer
	for b.Len() < 300<<10 {
		n := r.Intn(200)
		if r.Intn(50) == 0 {
			n = 3 * chunkMax / 2
		}
		b.Write(bytes.Repeat([]byte{byte('a' + r.Intn(26))}, n))
		b.WriteByte('\n')
	}
	data := b.Bytes()
	txt := fileOf(t, r, data)
	flat := func(rg Range, fn func([]byte, int) error) error { return EachLine(data, rg, fn) }
	dst, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for i := 0; i < 50; i++ {
		lo := r.Intn(len(data))
		hi := lo + r.Intn(len(data)-lo+1)
		rg := Range{lo, hi}
		if got, want := lines(txt.Lines, rg), lines(flat, rg); got != want {
			t.Fatalf("Lines(%v) differ", rg)
		}
		if got, want := txt.lastNewline(lo, hi), lo+bytes.LastIndexByte(data[lo:hi], '\n'); got != want && !(got == lo-1 && want == lo-1) {
			t.Fatalf("lastNewline(%v) = %d, want %d", rg, got, want)
		}
		ot := TextOf(data)
		if got := txt.prefixLen(rg, ot, rg); got != hi-lo {
			t.Fatalf("prefixLen(%v) against itself = %d", rg, got)
		}
		if got := txt.suffixLen(rg, ot, rg); got != hi-lo {
			t.Fatalf("suffixLen(%v) against itself = %d", rg, got)
		}
		if err := dst.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := txt.copyTo(dst, rg); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(dst.Name())
		if err != nil || !bytes.Equal(got, data[lo:hi]) {
			t.Fatalf("copyTo(%v) wrote %d bytes (%v), want %d", rg, len(got), err, hi-lo)
		}
	}
}
