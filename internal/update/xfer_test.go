package update

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// frameLog is what a fake agent saw of one push.
type frameLog struct {
	needed, got []int // chunk indices asked for, and carried
	frames      []int // each chunk frame's length, less its length word
	err         error
}

// answerPush plays the agent for one push on conn: it answers the
// manifest with a random set of chunk indices and every other request
// with success, logging the chunk frames.
func answerPush(conn net.Conn, r *rand.Rand) (log frameLog) {
	defer conn.Close()
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	for {
		head, err := br.Peek(4)
		if err != nil {
			return log
		}
		size := int(binary.BigEndian.Uint32(head))
		req, err := protocol.ReadRequest(br)
		if err != nil {
			log.err = err
			return log
		}
		rep := &protocol.Reply{Version: protocol.Version}
		switch req.Op {
		case OpUManifest:
			chunks, err := DecodeManifest(req.Args[2])
			if err != nil {
				log.err = err
				return log
			}
			p := r.Float64()
			for i := range chunks {
				if r.Float64() < p {
					log.needed = append(log.needed, i)
					rep.Fields = append(rep.Fields, []byte(strconv.Itoa(i)))
				}
			}
		case OpUChunks:
			log.frames = append(log.frames, size)
			for i := 0; i < len(req.Args); i += 2 {
				idx, _ := strconv.Atoi(string(req.Args[i]))
				log.got = append(log.got, idx)
			}
		}
		if protocol.WriteReply(bw, rep) != nil || bw.Flush() != nil {
			return log
		}
	}
}

// TestPushFramesFitKeptBuffer: over seeded random bundles (random data,
// with runs of zeros cut into 64 KiB chunks) and random needed sets, every
// OpUChunks frame Push writes fits protocol.MaxKeptFrame, headers
// included, and the frames carry exactly the needed chunks, in order.
func TestPushFramesFitKeptBuffer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	logs := make(chan frameLog, 1)
	go func() {
		for seed := int64(1); ; seed++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			logs <- answerPush(conn, rand.New(rand.NewSource(seed)))
		}
	}()
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		var data []byte
		for len(data) < 1<<20+r.Intn(2<<20) {
			if r.Intn(3) == 0 {
				data = append(data, make([]byte, r.Intn(5*chunkMax))...)
			} else {
				data = append(data, randBytes(r.Int63(), r.Intn(200_000))...)
			}
		}
		p := &Push{Addr: ln.Addr().String(), Target: "/t", Bundle: NewBundle(data), Script: []string{""},
			Trace: "0123456789abcdef0123456789abcdef/0123456789abcdef", Timeout: 5 * time.Second}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		log := <-logs
		if log.err != nil {
			t.Fatal(log.err)
		}
		if !slices.Equal(log.got, log.needed) {
			t.Fatalf("round %d: frames carried chunks %v, the agent asked for %v", round, log.got, log.needed)
		}
		for i, n := range log.frames {
			if n > protocol.MaxKeptFrame {
				t.Errorf("round %d: chunk frame %d is %d bytes, over the %d a FrameReader keeps", round, i, n, protocol.MaxKeptFrame)
			}
		}
	}
}

// waitFor polls cond for up to two seconds: the agent ends a session
// after the pusher has its last reply.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
	}
}

// transferReqs are the manifest request for bundle b to keptTarget and
// a request pushing every chunk of it.
func transferReqs(b []byte) (manifest, chunks *protocol.Request) {
	sum := sha256.Sum256(b)
	cs := SplitChunks(b)
	manifest = &protocol.Request{Version: protocol.Version, Op: OpUManifest,
		Args: [][]byte{[]byte(keptTarget), []byte(hex.EncodeToString(sum[:])), EncodeManifest(cs)}}
	chunks = &protocol.Request{Version: protocol.Version, Op: OpUChunks}
	for i, c := range cs {
		chunks.Args = append(chunks.Args, []byte(strconv.Itoa(i)), b[c.Off:c.Off+c.Len])
	}
	return manifest, chunks
}

// TestStagingFileLifecycle: the staging file exists from the manifest
// on. A session that ends without a successful assemble — a connection
// dropped after OpUChunks, a crash at any point, a second OpUManifest
// — leaves no <target>.moira_xfer, the target byte-identical and its
// kept list. A target replaced by rename between the manifest and the
// assemble still installs byte-identical: the session reads the inode it
// checked.
func TestStagingFileLifecycle(t *testing.T) {
	v1 := memberFiles(41, 4, 200_000)
	v2 := maps.Clone(v1)
	v2["m01.db"] = append([]byte("an edit\n"), v1["m01.db"]...)
	bundle1, err := BuildTar(v1)
	if err != nil {
		t.Fatal(err)
	}
	bundle2, err := BuildTar(v2)
	if err != nil {
		t.Fatal(err)
	}
	rigAt := func(t *testing.T) (*keptRig, string) {
		r := newKeptRig(t, t.TempDir(), v1)
		if err := r.push(v1); err != nil {
			t.Fatal(err)
		}
		fp, _ := r.a.HostPath(keptTarget)
		return r, fp
	}
	// settled waits for the session to end, then checks that the target
	// holds want and its kept list describes it.
	settled := func(t *testing.T, r *keptRig, fp string, want []byte) {
		t.Helper()
		waitFor(t, "the staging file to go", func() bool {
			_, err := os.Stat(fp + xferSuffix)
			return os.IsNotExist(err)
		})
		if got, err := os.ReadFile(fp); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("target holds %d bytes (%v), want %d", len(got), err, len(want))
		}
		r.a.mu.Lock()
		_, kept := r.a.kept[fp]
		r.a.mu.Unlock()
		if !kept {
			t.Fatal("the kept list is gone")
		}
		r.checkKept()
	}
	manifest, chunks := transferReqs(bundle2)
	assemble := &protocol.Request{Version: protocol.Version, Op: OpUAssemble}

	t.Run("dropped after chunks", func(t *testing.T) {
		r, fp := rigAt(t)
		if codes := rawSession(t, r.addr, manifest, chunks); codes[0] != mrerr.Success || codes[1] != mrerr.Success {
			t.Fatalf("codes %v", codes)
		}
		settled(t, r, fp, bundle1)
		if err := r.push(v2); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("second manifest", func(t *testing.T) {
		r, fp := rigAt(t)
		rawSession(t, r.addr, manifest, chunks, manifest)
		settled(t, r, fp, bundle1)
		// The second manifest's transfer is the one that assembles.
		codes := rawSession(t, r.addr, manifest, chunks, manifest, chunks, assemble)
		if codes[4] != mrerr.Success {
			t.Fatalf("codes %v", codes)
		}
		settled(t, r, fp, bundle2)
	})
	stages := []string{"before-xfer", "after-xfer", "before-execute"}
	for i := range newKeptRig(t, t.TempDir(), v1).script {
		stages = append(stages, fmt.Sprintf("instr-%d", i))
	}
	for _, stage := range stages {
		t.Run("crash "+stage, func(t *testing.T) {
			r, fp := rigAt(t)
			crashed := false
			r.a.SetCrashPoint(func(s string) bool {
				if s == stage && !crashed {
					crashed = true
					return true
				}
				return false
			})
			if err := r.push(v2); !IsSoftError(err) {
				t.Fatalf("crashed push: %v, want a soft error", err)
			}
			want := bundle2 // the assemble ran
			if stage == "before-xfer" {
				want = bundle1
			}
			settled(t, r, fp, want)
		})
	}
	t.Run("target renamed over mid-transfer", func(t *testing.T) {
		r, fp := rigAt(t)
		r.a.SetCrashPoint(func(s string) bool {
			if s == "before-xfer" {
				if err := os.WriteFile(fp+".new", bytes.Repeat([]byte("x"), len(bundle1)), 0o644); err != nil {
					t.Error(err)
				}
				if err := os.Rename(fp+".new", fp); err != nil {
					t.Error(err)
				}
			}
			return false
		})
		if err := r.push(v2); err != nil {
			t.Fatal(err)
		}
		settled(t, r, fp, bundle2)
	})
}

// openFiles is how many files the process holds open.
func openFiles(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestNoHandleLeaks: cold, warm, failed-assemble, dropped and crashed
// pushes leave the process holding no more open files than before.
func TestNoHandleLeaks(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open files in")
	}
	v1 := memberFiles(43, 4, 200_000)
	v2 := maps.Clone(v1)
	v2["m00.db"] = append([]byte("an edit up front\n"), v1["m00.db"]...)
	r := newKeptRig(t, t.TempDir(), v1)
	fp, _ := r.a.HostPath(keptTarget)
	before := openFiles(t)
	for _, files := range []map[string][]byte{v1, v1, v2} { // cold, warm, changed
		if err := r.push(files); err != nil {
			t.Fatal(err)
		}
	}
	// A failed assemble: a reused chunk rewritten on disk.
	r.a.SetCrashPoint(func(s string) bool {
		if s == "before-xfer" {
			b, err := os.ReadFile(fp)
			if err == nil {
				b[len(b)-20_000] ^= 0x5a
				err = os.WriteFile(fp, b, 0o644)
			}
			if err != nil {
				t.Error(err)
			}
		}
		return false
	})
	if err := r.push(v1); err != mrerr.UpdChecksum {
		t.Fatalf("push over a rewritten target: %v, want %v", err, mrerr.UpdChecksum)
	}
	// A crash at the assemble, and a connection dropped after the chunks.
	r.a.SetCrashPoint(func(s string) bool { return s == "before-xfer" })
	if err := r.push(v2); !IsSoftError(err) {
		t.Fatalf("crashed push: %v", err)
	}
	r.a.SetCrashPoint(nil)
	bundle, err := BuildTar(v1)
	if err != nil {
		t.Fatal(err)
	}
	manifest, chunks := transferReqs(bundle)
	rawSession(t, r.addr, manifest, chunks)
	waitFor(t, fmt.Sprintf("open files to fall back to %d", before), func() bool { return openFiles(t) <= before })
}

// TestChangedPushAllocsIndependentOfChangedBytes: the agent writes each
// pushed chunk to the staging file as it arrives, reads the old bundle
// through its handle and every frame into one kept buffer, so a changed
// chunk costs a push only its bookkeeping: a warm re-push of an 8 MiB,
// 16-member bundle with 64 scattered changes allocates at most 1 KiB a
// changed chunk more than one with a single change, both ends counted.
func TestChangedPushAllocsIndependentOfChangedBytes(t *testing.T) {
	const perChunk = 1 << 10
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a := NewAgent("H", t.TempDir(), nil)
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	files := memberFiles(16, 16, 8<<20)
	// changed flips n bytes spread evenly over the members' data.
	changed := func(n int) *Bundle {
		out := maps.Clone(files)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("m%02d.db", i*16/n)
			m := append([]byte(nil), out[name]...)
			m[(2*i+1)*len(m)*16/n/2%len(m)] ^= 0xff
			out[name] = m
		}
		data, err := BuildTar(out)
		if err != nil {
			t.Fatal(err)
		}
		return NewBundle(data)
	}
	base, one, many := changed(0), changed(1), changed(64)
	push := func(b *Bundle) (alloc uint64, chunks int64) {
		p := &Push{Addr: addr.String(), Target: "/tmp/bundle", Bundle: b, Script: extractAll(files), Timeout: 10 * time.Second}
		pushed := a.reg.Counter("update.chunks.pushed").Value()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, a.reg.Counter("update.chunks.pushed").Value() - pushed
	}
	push(base)
	var ones, manys []uint64
	var oneChunks, manyChunks int64
	for i := 0; i < 6; i++ { // the first round warms up each shape
		s, n := push(one)
		push(base)
		m, k := push(many)
		push(base)
		if i > 0 {
			ones, manys, oneChunks, manyChunks = append(ones, s), append(manys, m), n, k
		}
	}
	slices.Sort(ones)
	slices.Sort(manys)
	o, m := ones[2], manys[2]
	t.Logf("8 MiB bundle: %d changed chunks %d B, %d changed chunks %d B: %.0f B a chunk more",
		oneChunks, o, manyChunks, m, float64(int64(m)-int64(o))/float64(manyChunks-oneChunks))
	if int64(m) > int64(o)+(manyChunks-oneChunks)*perChunk {
		t.Errorf("%d changed chunks allocate %d B, %d allocate %d B: want under %d B a chunk more", manyChunks, m, oneChunks, o, perChunk)
	}
}
