package update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"moira/internal/mrerr"
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

func TestManifestRoundTrip(t *testing.T) {
	data := randBytes(2, 100_000)
	chunks := SplitChunks(data)
	decoded, err := DecodeManifest(EncodeManifest(chunks))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(chunks) {
		t.Fatalf("decoded %d chunks, want %d", len(decoded), len(chunks))
	}
	for i := range chunks {
		if decoded[i] != chunks[i] {
			t.Fatalf("chunk %d: %+v != %+v", i, decoded[i], chunks[i])
		}
	}
}

func TestDecodeManifestRejectsCorruption(t *testing.T) {
	good := string(EncodeManifest(SplitChunks(randBytes(3, 50_000))))
	sum64 := strings64()
	for name, m := range map[string]string{
		"no separator":   "4096" + sum64 + "\n",
		"bad length":     "zap " + sum64 + "\n",
		"zero length":    "0 " + sum64 + "\n",
		"negative":       "-5 " + sum64 + "\n",
		"oversized":      "9999999 " + sum64 + "\n",
		"short sum":      "4096 abcd\n",
		"non-hex sum":    "4096 " + "zz" + sum64[2:] + "\n",
		"tacked garbage": good + "4096 short\n",
	} {
		if _, err := DecodeManifest([]byte(m)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Blank lines are tolerated (trailing newline framing).
	if _, err := DecodeManifest([]byte("\n" + good + "\n")); err != nil {
		t.Errorf("blank lines rejected: %v", err)
	}
}

func strings64() string {
	sum := sha256.Sum256([]byte("x"))
	return hex.EncodeToString(sum[:])
}

// memFile is a staging file in memory, counting its writes; fail makes
// every write fail.
type memFile struct {
	b      []byte
	writes int
	fail   bool
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	if n := copy(p, m.b[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if m.fail {
		return 0, errors.New("disk full")
	}
	if end := int(off) + len(p); end > len(m.b) {
		m.b = append(m.b, make([]byte, end-len(m.b))...)
	}
	m.writes++
	return copy(m.b[off:], p), nil
}

// pushAll writes every chunk of data into a staging file at its offset
// plus shift, as OpUChunks writes pushed chunks, and returns the file
// and where each chunk is.
func pushAll(data []byte, chunks []Chunk, shift int) (*memFile, map[[sha256.Size]byte]where) {
	dst := &memFile{}
	have := map[[sha256.Size]byte]where{}
	for _, c := range chunks {
		dst.WriteAt(data[c.Off:c.Off+c.Len], int64(c.Off+shift))
		have[c.Sum] = where{at: c.Off + shift, pushed: true}
	}
	dst.writes = 0
	return dst, have
}

// TestStageVerifies: the in-order pass assembles exactly the file the
// manifest names, from pushed chunks in place (not rewritten) or
// elsewhere in the staging file, from old chunks have names and from
// runs of an old copy; it refuses a missing chunk, a chunk whose bytes
// do not match its sum, reused bytes that changed or are missing on
// disk, and a file whose whole sum is wrong. A chunk nobody supplied is
// refused before anything is written, and a failed write is errStaging.
// A pushed chunk of the wrong length or sum is refused on arrival,
// before it reaches the staging file.
func TestStageVerifies(t *testing.T) {
	data := randBytes(4, 120_000)
	chunks := SplitChunks(data)
	wholeSum := sha256.Sum256(data)
	old := bytes.NewReader(data)

	dst, have := pushAll(data, chunks, 0)
	if err := stage(dst, chunks, have, nil, nil, wholeSum); err != nil || !bytes.Equal(dst.b, data) || dst.writes != 0 {
		t.Fatalf("pushed chunks in place: %v, %d writes", err, dst.writes)
	}
	dst, have = pushAll(data, chunks, len(data))
	if err := stage(dst, chunks, have, nil, nil, wholeSum); err != nil || !bytes.Equal(dst.b[:len(data)], data) {
		t.Fatalf("pushed chunks elsewhere: %v", err)
	}
	fromOld := map[[sha256.Size]byte]where{}
	for _, c := range chunks {
		fromOld[c.Sum] = where{at: c.Off}
	}
	dst = &memFile{}
	if err := stage(dst, chunks, fromOld, old, nil, wholeSum); err != nil || !bytes.Equal(dst.b, data) {
		t.Fatalf("chunks at offsets of the old file: %v", err)
	}
	// Every chunk in one run shared with an old copy: read from it in
	// batches, each chunk checked in place.
	runs := bundleAnchors(chunks, chunks)
	dst = &memFile{}
	if err := stage(dst, chunks, nil, old, runs, wholeSum); err != nil || !bytes.Equal(dst.b, data) {
		t.Fatalf("stage from reused runs: %v", err)
	}

	for _, c := range []struct {
		name string
		w    where
		ok   bool
	}{{"missing chunk", where{}, false}, {"chunk asked for, never sent", where{at: -1}, true}} {
		dst, have = pushAll(data, chunks, len(data))
		if c.ok {
			have[chunks[1].Sum] = c.w
		} else {
			delete(have, chunks[1].Sum)
		}
		if err := stage(dst, chunks, have, nil, nil, wholeSum); err == nil || dst.writes != 0 {
			t.Errorf("%s: err %v, %d writes", c.name, err, dst.writes)
		}
	}
	dst, have = pushAll(data, chunks, 0)
	dst.b[chunks[1].Off] ^= 1
	if err := stage(dst, chunks, have, nil, nil, wholeSum); err == nil || errors.Is(err, errStaging) {
		t.Errorf("pushed bytes changed in the staging file: %v", err)
	}
	dst, have = pushAll(data, chunks, 0)
	if err := stage(dst, chunks, have, nil, nil, sha256.Sum256([]byte("x"))); err == nil {
		t.Error("wrong whole-file checksum accepted")
	}
	changed := append([]byte(nil), data...)
	changed[len(changed)/2] ^= 1
	for name, b := range map[string][]byte{"changed": changed, "missing": data[:len(data)/2]} {
		for _, h := range []map[[sha256.Size]byte]where{nil, fromOld} {
			r := runs
			if h != nil {
				r = nil
			}
			if err := stage(&memFile{}, chunks, h, bytes.NewReader(b), r, wholeSum); err == nil || errors.Is(err, errStaging) {
				t.Errorf("reused bytes %s on disk (runs %v): %v", name, r != nil, err)
			}
		}
	}
	if err := stage(&memFile{fail: true}, chunks, fromOld, old, nil, wholeSum); !errors.Is(err, errStaging) {
		t.Errorf("failed write: %v, want errStaging", err)
	}

	// On arrival: the transfer refuses a pushed chunk of the wrong length
	// or sum and writes nothing.
	x, needed, err := beginXfer(filepath.Join(t.TempDir(), "bundle"), nil, chunks, wholeSum)
	if err != nil || len(needed) != len(chunks) {
		t.Fatalf("beginXfer: %v, %d of %d chunks needed", err, len(needed), len(chunks))
	}
	defer x.abort()
	c := chunks[1]
	bad := append([]byte(nil), data[c.Off:c.Off+c.Len]...)
	bad[0] ^= 1
	for name, b := range map[string][]byte{"wrong length": bad[:c.Len-1], "bad sum": bad} {
		if code := x.put(1, b); code != mrerr.UpdChecksum {
			t.Errorf("%s: %v, want %v", name, code, mrerr.UpdChecksum)
		}
	}
	if fi, err := x.staged.Stat(); err != nil || fi.Size() != 0 {
		t.Errorf("refused chunks reached the staging file: %v", err)
	}
}

// checkCut fails unless cutFile cuts data as SplitChunks does, and
// fails to cut a file shorter than the size it is given.
func checkCut(t *testing.T, data []byte) {
	t.Helper()
	got, ok := cutFile(bytes.NewReader(data), len(data))
	if want := SplitChunks(data); !ok || !slices.Equal(got, want) {
		t.Fatalf("%d bytes: cutFile gives %d chunks (%v), SplitChunks %d", len(data), len(got), ok, len(want))
	}
	if _, ok := cutFile(bytes.NewReader(data), len(data)+1); ok {
		t.Fatalf("%d bytes: cut as %d", len(data), len(data)+1)
	}
}

// TestChunkedPushReusesUnchangedData drives the full manifest/chunks/
// assemble exchange against a real agent: the second push of a slightly
// edited bundle must travel mostly as reused chunks, and the installed
// file must be byte-identical to the new bundle.
func TestChunkedPushReusesUnchangedData(t *testing.T) {
	a := NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })

	push := func(data []byte) *Push {
		p := &Push{Addr: addr.String(), Target: "/tmp/bundle", Bundle: NewBundle(data),
			// The transfer already deposits the data at the target; a
			// blank instruction keeps the execution phase a no-op.
			Script:  []string{""},
			Timeout: 5 * time.Second}
		if err := p.Run(); err != nil {
			t.Fatalf("push: %v", err)
		}
		return p
	}

	v1 := randBytes(10, 200<<10)
	p1 := push(v1)
	if p1.SentBytes != len(v1) || p1.ReusedBytes != 0 {
		t.Errorf("cold push sent=%d reused=%d, want %d/0", p1.SentBytes, p1.ReusedBytes, len(v1))
	}

	v2 := append([]byte(nil), v1...)
	v2[50<<10] ^= 0xaa // one-byte edit
	p2 := push(v2)
	if p2.SentBytes+p2.ReusedBytes != len(v2) {
		t.Errorf("accounting: sent %d + reused %d != %d", p2.SentBytes, p2.ReusedBytes, len(v2))
	}
	if p2.ReusedBytes < len(v2)/2 {
		t.Errorf("warm push reused only %d of %d bytes", p2.ReusedBytes, len(v2))
	}
	got, err := a.ReadHostFile("/tmp/bundle")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Error("installed bundle differs from pushed data")
	}

	// An identical re-push ships zero chunk bytes.
	p3 := push(v2)
	if p3.SentBytes != 0 || p3.ReusedBytes != len(v2) {
		t.Errorf("identical push sent=%d reused=%d", p3.SentBytes, p3.ReusedBytes)
	}
}

// FuzzChunker fuzzes the chunking pipeline four ways at once: the
// streaming cutter (cutting the bytes as a file through the window gives
// SplitChunks' chunks, offsets, lengths and sums), staging identity
// (split → stage reproduces the input),
// boundary stability (a single-byte edit still tiles the input), and
// corrupt-manifest rejection (DecodeManifest fails cleanly, and a
// manifest/have mismatch never stages a wrong file).
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
		chunks := SplitChunks(data)
		tile := func(chunks []Chunk, n int) {
			off := 0
			for _, c := range chunks {
				if c.Off != off || c.Len <= 0 || c.Len > chunkMax {
					t.Fatalf("bad tiling: %+v at off %d", c, off)
				}
				off += c.Len
			}
			if off != n {
				t.Fatalf("chunks cover %d of %d bytes", off, n)
			}
		}
		if len(data) > 0 {
			tile(chunks, len(data))
		} else if len(chunks) != 0 {
			t.Fatal("empty input produced chunks")
		}

		// The streaming cutter cuts the same chunks.
		checkCut(t, data)

		// Identity: reassemble from our own chunks.
		dst, have := pushAll(data, chunks, len(data))
		whole := sha256.Sum256(data)
		if err := stage(dst, chunks, have, nil, nil, whole); err != nil {
			t.Fatalf("identity stage: %v", err)
		}
		if !bytes.Equal(dst.b[:len(data)], data) {
			t.Fatal("staging is not the identity")
		}

		// The wire round-trip preserves the chunk list.
		decoded, err := DecodeManifest(EncodeManifest(chunks))
		if err != nil {
			t.Fatalf("own manifest rejected: %v", err)
		}
		if len(decoded) != len(chunks) {
			t.Fatalf("round-trip %d != %d chunks", len(decoded), len(chunks))
		}

		// Boundary stability: a single-byte edit still tiles.
		if len(data) > 0 {
			edited := append([]byte(nil), data...)
			edited[int(editPos)%len(edited)] ^= editByte
			tile(SplitChunks(edited), len(edited))
		}

		// Corrupt manifest bytes either fail to decode or decode into
		// chunks that cannot assemble into a different file under the
		// original whole-file checksum.
		mbytes := EncodeManifest(chunks)
		if len(mbytes) > 0 {
			mbytes[int(editPos)%len(mbytes)] ^= editByte | 1
			if dec, err := DecodeManifest(mbytes); err == nil {
				dst, have := pushAll(data, chunks, 1<<20)
				if err := stage(dst, dec, have, nil, nil, whole); err == nil {
					if length(dec) != len(data) || !bytes.Equal(dst.b[:len(data)], data) {
						t.Fatal("corrupted manifest staged a different file that passed the whole-file checksum")
					}
				}
			}
		}
	})
}
