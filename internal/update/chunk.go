package update

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Content-defined chunking for the diff transport: instead of shipping a
// whole bundle on every push, the DCM sends a manifest of chunk hashes,
// the agent answers with the chunks it cannot reuse from the file it
// already holds, and only those travel. Boundaries are content-defined
// (a gear rolling hash), so an insertion early in the file shifts
// boundaries only locally and the unchanged tail still matches.

// Chunking parameters: ~8 KB average (the boundary mask), 2 KB minimum
// (no boundary test until min bytes), 64 KB maximum (forced cut).
const (
	chunkMin  = 2 << 10
	chunkMax  = 64 << 10
	chunkMask = (8 << 10) - 1 // boundary when hash&mask == 0: 1/8192 per byte
)

// gearTable is the 256-entry random table driving the rolling hash. It
// is generated deterministically (splitmix64 from a fixed seed) so every
// build of the DCM and every agent cut identical boundaries.
var gearTable = buildGearTable(0x6d6f697261636463) // "moiracdc"

func buildGearTable(seed uint64) [256]uint64 {
	var t [256]uint64
	s := seed
	for i := range t {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}

// Chunk is one content-defined piece of a file.
type Chunk struct {
	Off int
	Len int
	Sum string // sha256 hex of the chunk bytes
}

// SplitChunks cuts data into content-defined chunks. Every byte belongs
// to exactly one chunk; concatenating the chunks in order reproduces
// data exactly. Empty input yields no chunks.
func SplitChunks(data []byte) []Chunk {
	var out []Chunk
	for off := 0; off < len(data); {
		n := cutPoint(data[off:])
		sum := sha256.Sum256(data[off : off+n])
		out = append(out, Chunk{Off: off, Len: n, Sum: hex.EncodeToString(sum[:])})
		off += n
	}
	return out
}

// cutPoint returns the length of the next chunk starting at data[0].
func cutPoint(data []byte) int {
	if len(data) <= chunkMin {
		return len(data)
	}
	max := len(data)
	if max > chunkMax {
		max = chunkMax
	}
	var h uint64
	// The hash warms up over the minimum window so the boundary decision
	// always sees a full window of context.
	for i := 0; i < max; i++ {
		h = (h << 1) + gearTable[data[i]]
		if i >= chunkMin && h&chunkMask == 0 {
			return i + 1
		}
	}
	return max
}

// EncodeManifest renders a chunk list for the wire: one "len sum" line
// per chunk, index implied by order.
func EncodeManifest(chunks []Chunk) []byte {
	var b strings.Builder
	for _, c := range chunks {
		fmt.Fprintf(&b, "%d %s\n", c.Len, c.Sum)
	}
	return []byte(b.String())
}

// DecodeManifest parses a wire manifest, rejecting malformed or
// implausible entries (a corrupt manifest must fail cleanly, never
// panic or allocate absurd amounts).
func DecodeManifest(data []byte) ([]Chunk, error) {
	var out []Chunk
	off := 0
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		lenStr, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("manifest: malformed line %q", line)
		}
		n, err := strconv.Atoi(lenStr)
		if err != nil || n <= 0 || n > chunkMax {
			return nil, fmt.Errorf("manifest: bad chunk length %q", lenStr)
		}
		if len(sum) != 64 {
			return nil, fmt.Errorf("manifest: bad checksum %q", sum)
		}
		if _, err := hex.DecodeString(sum); err != nil {
			return nil, fmt.Errorf("manifest: bad checksum %q", sum)
		}
		out = append(out, Chunk{Off: off, Len: n, Sum: sum})
		off += n
	}
	return out, nil
}

// Reassemble concatenates chunk data in manifest order, taking each
// chunk from have (keyed by checksum). It verifies every chunk's length
// and checksum and the whole file against wholeSum. Every chunk is
// checked before the result is allocated, once, at the manifest's total
// length, so a manifest naming chunks nobody supplied fails without a
// large allocation. The result is a fresh slice, non-nil even when
// empty.
func Reassemble(manifest []Chunk, have map[string][]byte, wholeSum string) ([]byte, error) {
	total := 0
	for i, c := range manifest {
		data, ok := have[c.Sum]
		if !ok {
			return nil, fmt.Errorf("chunk %d (%s) missing", i, c.Sum[:12])
		}
		if len(data) != c.Len {
			return nil, fmt.Errorf("chunk %d: length %d, manifest says %d", i, len(data), c.Len)
		}
		if !sumIs(data, c.Sum) {
			return nil, fmt.Errorf("chunk %d: checksum mismatch", i)
		}
		total += c.Len
	}
	out := make([]byte, 0, total)
	for _, c := range manifest {
		out = append(out, have[c.Sum]...)
	}
	if !sumIs(out, wholeSum) {
		return nil, fmt.Errorf("assembled file checksum mismatch")
	}
	return out, nil
}

// sumIs reports whether data's SHA-256 is the hex digest want, without
// allocating the digest's hex form.
func sumIs(data []byte, want string) bool {
	sum := sha256.Sum256(data)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:]) == want
}
