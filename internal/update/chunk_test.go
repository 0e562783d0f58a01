package update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
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
			sum := sha256.Sum256(data[c.Off : c.Off+c.Len])
			if c.Sum != hex.EncodeToString(sum[:]) {
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

	sums := make(map[string]bool, len(before))
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

func TestReassembleVerifies(t *testing.T) {
	data := randBytes(4, 120_000)
	chunks := SplitChunks(data)
	whole := sha256.Sum256(data)
	wholeSum := hex.EncodeToString(whole[:])
	have := map[string][]byte{}
	for _, c := range chunks {
		have[c.Sum] = data[c.Off : c.Off+c.Len]
	}

	got, err := Reassemble(chunks, have, wholeSum)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("identity reassembly failed: %v", err)
	}

	// Missing chunk.
	missing := map[string][]byte{}
	for k, v := range have {
		missing[k] = v
	}
	delete(missing, chunks[1].Sum)
	if _, err := Reassemble(chunks, missing, wholeSum); err == nil {
		t.Error("missing chunk accepted")
	}

	// Corrupt chunk bytes (right length, wrong content).
	corrupt := map[string][]byte{}
	for k, v := range have {
		corrupt[k] = v
	}
	bad := append([]byte(nil), have[chunks[0].Sum]...)
	bad[0] ^= 1
	corrupt[chunks[0].Sum] = bad
	if _, err := Reassemble(chunks, corrupt, wholeSum); err == nil {
		t.Error("corrupt chunk accepted")
	}

	// Wrong whole-file checksum.
	if _, err := Reassemble(chunks, have, strings64()); err == nil {
		t.Error("wrong whole-file checksum accepted")
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
		p := &Push{Addr: addr.String(), Target: "/tmp/bundle", Data: data,
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
// reassembly identity (split → reassemble reproduces the input),
// boundary stability (a single-byte edit still tiles the input), and
// corrupt-manifest rejection (DecodeManifest fails cleanly, and a
// manifest/have mismatch never reassembles into a wrong file).
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
		have := map[string][]byte{}
		for _, c := range chunks {
			have[c.Sum] = data[c.Off : c.Off+c.Len]
		}
		whole := sha256.Sum256(data)
		got, err := Reassemble(chunks, have, hex.EncodeToString(whole[:]))
		if err != nil {
			t.Fatalf("identity reassembly: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("reassembly is not the identity")
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
				if out, err := Reassemble(dec, have, hex.EncodeToString(whole[:])); err == nil {
					if !bytes.Equal(out, data) {
						t.Fatal("corrupted manifest reassembled into a different file that passed the whole-file checksum")
					}
				}
			}
		}
	})
}
