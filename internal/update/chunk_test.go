package update

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// randBytes is deterministic test data with enough entropy that the
// rolling hash finds boundaries.
func randBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	r.Read(out)
	return out
}

func TestSplitChunksTilesInput(t *testing.T) {
	for _, n := range []int{0, 1, chunkMin - 1, chunkMin, chunkMin + 1, 100_000, 300_000} {
		data := randBytes(int64(n), n)
		chunks := SplitChunks(data)
		if n == 0 {
			if len(chunks) != 0 {
				t.Errorf("n=0: %d chunks", len(chunks))
			}
			continue
		}
		off := 0
		for i, c := range chunks {
			if c.Off != off {
				t.Fatalf("n=%d chunk %d: off %d, want %d", n, i, c.Off, off)
			}
			if c.Len <= 0 || c.Len > chunkMax {
				t.Fatalf("n=%d chunk %d: len %d out of bounds", n, i, c.Len)
			}
			if c.Sum != sha256.Sum256(data[c.Off:c.Off+c.Len]) {
				t.Fatalf("n=%d chunk %d: bad checksum", n, i)
			}
			off += c.Len
		}
		if off != n {
			t.Fatalf("n=%d: chunks cover %d bytes", n, off)
		}
	}
}

func TestSplitChunksBoundariesAreLocal(t *testing.T) {
	// A single-byte edit in the middle must leave the chunking of the
	// untouched regions alone: most chunk sums reappear unchanged.
	data := randBytes(1, 256<<10)
	before := SplitChunks(data)
	edited := append([]byte(nil), data...)
	edited[len(edited)/2] ^= 0xff
	after := SplitChunks(edited)

	sums := make(map[[sha256.Size]byte]bool, len(before))
	for _, c := range before {
		sums[c.Sum] = true
	}
	reused := 0
	for _, c := range after {
		if sums[c.Sum] {
			reused++
		}
	}
	if len(after) < 8 {
		t.Fatalf("only %d chunks; data too small for the test", len(after))
	}
	// All but the chunk containing the edit (and at most a couple of
	// resync neighbors) must match.
	if reused < len(after)-3 {
		t.Errorf("reused %d of %d chunks after a 1-byte edit", reused, len(after))
	}
}

// FuzzChunker fuzzes the chunker: the chunks tile the input within the
// length bounds, each carrying its bytes' sum, and a single-byte edit
// still tiles.
func FuzzChunker(f *testing.F) {
	f.Add([]byte("hello world"), uint32(3), byte(0xff))
	f.Add(randBytes(1, 10_000), uint32(5000), byte(1))
	f.Add([]byte{}, uint32(0), byte(0))
	for i, n := range []int{1, chunkMin - 1, chunkMin, chunkMin + 1, chunkMax, 2 * chunkMax, 300_000} {
		f.Add(randBytes(int64(n), n), uint32(n/2), byte(i))
	}
	f.Add(bytes.Repeat([]byte{0}, 3*chunkMax), uint32(1), byte(4)) // cut at exactly chunkMax
	f.Add(bytes.Repeat([]byte{0}, 3*chunkMax+1), uint32(1), byte(4))
	f.Fuzz(func(t *testing.T, data []byte, editPos uint32, editByte byte) {
		tile := func(data []byte) {
			off := 0
			for _, c := range SplitChunks(data) {
				if c.Off != off || c.Len <= 0 || c.Len > chunkMax {
					t.Fatalf("bad tiling: %+v at off %d", c, off)
				}
				if c.Sum != sha256.Sum256(data[c.Off:c.Off+c.Len]) {
					t.Fatalf("chunk %+v: bad checksum", c)
				}
				off += c.Len
			}
			if off != len(data) {
				t.Fatalf("chunks cover %d of %d bytes", off, len(data))
			}
		}
		tile(data)
		if len(data) > 0 {
			edited := append([]byte(nil), data...)
			edited[int(editPos)%len(edited)] ^= editByte
			tile(edited)
		}
	})
}
