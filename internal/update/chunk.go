package update

import "crypto/sha256"

// Content-defined chunking: boundaries are content-defined (a gear
// rolling hash), so an insertion early in the file shifts boundaries only
// locally and the unchanged tail still cuts the same. No push uses it
// (a push ships the edits the DCM's model knows, see Bundle); SplitChunks
// stays as the cost a chunk transport would add to a pass, which the
// benchmark harness measures.

// Chunking parameters: ~8 KB average (the boundary mask), 2 KB minimum
// (no boundary test until min bytes), 64 KB maximum (forced cut).
const (
	chunkMin  = 2 << 10
	chunkMax  = 64 << 10
	chunkMask = (8 << 10) - 1 // boundary when hash&mask == 0: 1/8192 per byte
)

// gearTable is the 256-entry random table driving the rolling hash. It
// is generated deterministically (splitmix64 from a fixed seed) so every
// build cuts identical boundaries.
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
	Sum [sha256.Size]byte // SHA-256 of the chunk bytes
}

// SplitChunks cuts data into content-defined chunks. Every byte belongs
// to exactly one chunk; concatenating the chunks in order reproduces
// data exactly. Empty input yields no chunks.
func SplitChunks(data []byte) []Chunk {
	var out []Chunk
	for off := 0; off < len(data); {
		n := cutPoint(data[off:])
		out = append(out, Chunk{Off: off, Len: n, Sum: sha256.Sum256(data[off : off+n])})
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
