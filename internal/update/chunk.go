package update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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

// errStaging marks a stage that failed writing, not verifying.
var errStaging = errors.New("writing the staged file")

// stage writes the file manifest describes to dst and returns it as the
// pieces of a Text over dst: the chunks of have, keyed by checksum and
// kept as memory pieces, and the chunks that lie in one of runs — runs
// of the old bundle the new one shares, read from src — as file pieces.
// It verifies every chunk's length and checksum before the chunk reaches
// dst, and the whole file, computed over exactly the bytes written,
// against wholeSum. The chunks of have are checked before the first
// write, so a manifest naming chunks nobody supplied fails with nothing
// written; the chunks of runs are read through one pooled chunk-sized
// buffer, in batches of whole chunks, and checked there. A failure that
// is not a checksum's wraps errStaging.
func stage(dst io.Writer, manifest []Chunk, have map[[sha256.Size]byte][]byte, src io.ReaderAt, runs []anchor, wholeSum [sha256.Size]byte) ([]piece, error) {
	inRun := runCursor(runs)
	for i, c := range manifest {
		if inRun(c) {
			continue
		}
		data, ok := have[c.Sum]
		if !ok {
			return nil, fmt.Errorf("chunk %d (%x) missing", i, c.Sum[:6])
		}
		if len(data) != c.Len {
			return nil, fmt.Errorf("chunk %d: length %d, manifest says %d", i, len(data), c.Len)
		}
		if sha256.Sum256(data) != c.Sum {
			return nil, fmt.Errorf("chunk %d: checksum mismatch", i)
		}
	}
	bp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bp)
	buf := (*bp)[:0]
	whole := sha256.New()
	flush := func() error {
		whole.Write(buf)
		_, err := dst.Write(buf)
		buf = buf[:0]
		if err != nil {
			return fmt.Errorf("%w: %v", errStaging, err)
		}
		return nil
	}
	var pieces []piece
	inRun = runCursor(runs)
	for i, r := 0, 0; i < len(manifest); {
		c := manifest[i]
		if c.Len > cap(buf)-len(buf) {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		if !inRun(c) {
			data := have[c.Sum]
			buf = append(buf, data...)
			pieces = append(pieces, piece{off: c.Off, n: c.Len, data: data})
			i++
			continue
		}
		for runs[r].p+runs[r].n <= c.Off {
			r++
		}
		a := runs[r]
		// One read takes as many whole chunks of the run as fit in buf.
		j := i + 1
		for j < len(manifest) && manifest[j].Off < a.p+a.n && manifest[j].Off+manifest[j].Len-c.Off <= cap(buf)-len(buf) {
			j++
		}
		n := manifest[j-1].Off + manifest[j-1].Len - c.Off
		b := buf[len(buf) : len(buf)+n]
		if _, err := src.ReadAt(b, int64(a.o+c.Off-a.p)); err != nil {
			return nil, fmt.Errorf("reading reused chunks: %w", err)
		}
		for ; i < j; i++ {
			if m := manifest[i]; sha256.Sum256(b[m.Off-c.Off:m.Off-c.Off+m.Len]) != m.Sum {
				return nil, fmt.Errorf("chunk %d: reused bytes changed: checksum mismatch", i)
			}
		}
		buf = buf[:len(buf)+n]
		if l := len(pieces) - 1; l >= 0 && pieces[l].data == nil && pieces[l].end() == c.Off {
			pieces[l].n += n
		} else {
			pieces = append(pieces, piece{off: c.Off, n: n, at: c.Off})
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	var sum [sha256.Size]byte
	if [sha256.Size]byte(whole.Sum(sum[:0])) != wholeSum {
		return nil, fmt.Errorf("staged file checksum mismatch")
	}
	return pieces, nil
}

// runCursor returns a test of whether each chunk of a manifest, asked
// in order, lies in one of runs (sorted by new-bundle offset).
func runCursor(runs []anchor) func(Chunk) bool {
	i := 0
	return func(c Chunk) bool {
		for i < len(runs) && runs[i].p+runs[i].n <= c.Off {
			i++
		}
		return i < len(runs) && runs[i].p <= c.Off
	}
}
