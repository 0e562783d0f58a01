package update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"maps"
	"math/rand"
	"strings"
	"testing"
	"time"
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

// stageBytes stages the file manifest describes into memory.
func stageBytes(manifest []Chunk, have map[[sha256.Size]byte][]byte, src io.ReaderAt, runs []anchor, whole [sha256.Size]byte) ([]byte, []piece, error) {
	var out bytes.Buffer
	pieces, err := stage(&out, manifest, have, src, runs, whole)
	return out.Bytes(), pieces, err
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestStageVerifies: the streaming stage writes exactly the file the
// manifest names, and refuses a missing chunk, a chunk of the wrong
// length, a chunk whose bytes do not match its sum, reused bytes that
// changed on disk, and a file whose whole sum is wrong. A chunk of have
// that fails is refused before anything is written.
func TestStageVerifies(t *testing.T) {
	data := randBytes(4, 120_000)
	chunks := SplitChunks(data)
	wholeSum := sha256.Sum256(data)
	have := map[[sha256.Size]byte][]byte{}
	for _, c := range chunks {
		have[c.Sum] = data[c.Off : c.Off+c.Len]
	}
	with := func(k [sha256.Size]byte, v []byte) map[[sha256.Size]byte][]byte {
		m := maps.Clone(have)
		if v == nil {
			delete(m, k)
		} else {
			m[k] = v
		}
		return m
	}

	got, pieces, err := stageBytes(chunks, have, nil, nil, wholeSum)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("identity stage failed: %v", err)
	}
	for i, p := range pieces {
		if p.off != chunks[i].Off || p.n != chunks[i].Len || &p.data[0] != &data[p.off] {
			t.Fatalf("piece %d %d+%d is not chunk %d of have", i, p.off, p.n, i)
		}
	}

	bad := append([]byte(nil), have[chunks[0].Sum]...)
	bad[0] ^= 1
	for _, c := range []struct {
		name string
		have map[[sha256.Size]byte][]byte
	}{
		{"missing chunk", with(chunks[1].Sum, nil)},
		{"wrong length", with(chunks[1].Sum, data[chunks[1].Off:chunks[1].Off+chunks[1].Len-1])},
		{"bad chunk sum", with(chunks[0].Sum, bad)},
	} {
		if out, _, err := stageBytes(chunks, c.have, nil, nil, wholeSum); err == nil || len(out) != 0 {
			t.Errorf("%s: err %v, %d bytes written", c.name, err, len(out))
		}
	}
	if _, _, err := stageBytes(chunks, have, nil, nil, sha256.Sum256([]byte("x"))); err == nil {
		t.Error("wrong whole-file checksum accepted")
	}

	// Every chunk reused from an old copy of the file: read from it in
	// runs, each chunk checked in place, kept as one file piece.
	runs := bundleAnchors(chunks, chunks)
	got, pieces, err = stageBytes(chunks, nil, bytes.NewReader(data), runs, wholeSum)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stage from reused runs failed: %v", err)
	}
	if len(pieces) != 1 || pieces[0].data != nil || pieces[0].n != len(data) || pieces[0].at != 0 {
		t.Errorf("reused runs staged as pieces %+v, want one file piece of %d bytes", pieces, len(data))
	}
	changed := append([]byte(nil), data...)
	changed[len(changed)/2] ^= 1
	if _, _, err := stageBytes(chunks, nil, bytes.NewReader(changed), runs, wholeSum); err == nil || !strings.Contains(err.Error(), "reused bytes changed") {
		t.Errorf("reused bytes changed on disk: %v", err)
	}
	if _, _, err := stageBytes(chunks, nil, bytes.NewReader(data[:len(data)/2]), runs, wholeSum); err == nil {
		t.Error("reused bytes missing on disk accepted")
	}

	// A failed write is not a checksum failure.
	if _, err := stage(failWriter{}, chunks, have, nil, nil, wholeSum); !errors.Is(err, errStaging) {
		t.Errorf("failed write: %v, want errStaging", err)
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

// FuzzChunker fuzzes the chunking pipeline three ways at once:
// staging identity (split → stage reproduces the input),
// boundary stability (a single-byte edit still tiles the input), and
// corrupt-manifest rejection (DecodeManifest fails cleanly, and a
// manifest/have mismatch never stages a wrong file).
func FuzzChunker(f *testing.F) {
	f.Add([]byte("hello world"), uint32(3), byte(0xff))
	f.Add(randBytes(1, 10_000), uint32(5000), byte(1))
	f.Add([]byte{}, uint32(0), byte(0))
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

		// Identity: reassemble from our own chunks.
		have := map[[sha256.Size]byte][]byte{}
		for _, c := range chunks {
			have[c.Sum] = data[c.Off : c.Off+c.Len]
		}
		whole := sha256.Sum256(data)
		got, _, err := stageBytes(chunks, have, nil, nil, whole)
		if err != nil {
			t.Fatalf("identity stage: %v", err)
		}
		if !bytes.Equal(got, data) {
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
				if out, _, err := stageBytes(dec, have, nil, nil, whole); err == nil {
					if !bytes.Equal(out, data) {
						t.Fatal("corrupted manifest staged a different file that passed the whole-file checksum")
					}
				}
			}
		}
	})
}
