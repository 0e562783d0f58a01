package update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
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

// EncodeManifest renders a chunk list for the wire: one "len sum" line
// per chunk, the sum in hex, index implied by order.
func EncodeManifest(chunks []Chunk) []byte {
	out := make([]byte, 0, len(chunks)*(len("65536 \n")+2*sha256.Size))
	for _, c := range chunks {
		out = strconv.AppendInt(out, int64(c.Len), 10)
		out = append(out, ' ')
		out = hex.AppendEncode(out, c.Sum[:])
		out = append(out, '\n')
	}
	return out
}

// DecodeManifest parses a wire manifest, rejecting malformed or
// implausible entries (a corrupt manifest must fail cleanly, never
// panic or allocate absurd amounts: the chunk list is sized by the
// most lines of the shortest valid form the manifest's bytes can hold).
func DecodeManifest(data []byte) ([]Chunk, error) {
	const minLine = len("1 \n") + 2*sha256.Size
	out := make([]Chunk, 0, len(data)/minLine+1)
	off := 0
	for len(data) > 0 {
		line, rest, _ := bytes.Cut(data, []byte{'\n'})
		data = rest
		if len(line) == 0 {
			continue
		}
		lenStr, sum, ok := bytes.Cut(line, []byte{' '})
		if !ok {
			return nil, fmt.Errorf("manifest: malformed line %q", line)
		}
		n, err := strconv.Atoi(string(lenStr))
		if err != nil || n <= 0 || n > chunkMax {
			return nil, fmt.Errorf("manifest: bad chunk length %q", lenStr)
		}
		c := Chunk{Off: off, Len: n}
		if len(sum) != 2*sha256.Size {
			return nil, fmt.Errorf("manifest: bad checksum %q", sum)
		}
		if _, err := hex.Decode(c.Sum[:], sum); err != nil {
			return nil, fmt.Errorf("manifest: bad checksum %q", sum)
		}
		out = append(out, c)
		off += n
	}
	return out, nil
}
