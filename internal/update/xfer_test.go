package update

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// frameLog is what a fake agent saw of one push.
type frameLog struct {
	edits  []Splice // the edits carried, pieces joined
	frames []int    // each edit frame's length, less its length word
	fields []int    // each edit frame's field count
	bytes  int      // every byte the pusher sent
	err    error
}

// countingConn counts the bytes read through it.
type countingConn struct {
	net.Conn
	n int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += n
	return n, err
}

// answerPush plays the agent for one push on conn: it answers every
// request with success, logging the edit frames and joining the pieces
// of an edit split across them.
func answerPush(conn net.Conn) (log frameLog) {
	defer conn.Close()
	cc := &countingConn{Conn: conn}
	br, bw := bufio.NewReader(cc), bufio.NewWriter(conn)
	defer func() { log.bytes = cc.n }()
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
		if req.Op == OpUEdits {
			log.frames = append(log.frames, size)
			log.fields = append(log.fields, len(req.Args)+3)
			for i := 0; i+2 < len(req.Args); i += 3 {
				off, _ := uint63(req.Args[i])
				n, _ := uint63(req.Args[i+1])
				if k := len(log.edits) - 1; k >= 0 && n == 0 && off == log.edits[k].Off+log.edits[k].Len {
					log.edits[k].Data = append(log.edits[k].Data, req.Args[i+2]...)
					continue
				}
				log.edits = append(log.edits, Splice{Off: off, Len: n, Data: req.Args[i+2]})
			}
		}
		if protocol.WriteReply(bw, &protocol.Reply{Version: protocol.Version}) != nil || bw.Flush() != nil {
			return log
		}
	}
}

// fakeAgent listens for pushes, answering each with answerPush.
func fakeAgent(t *testing.T) (string, <-chan frameLog) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	logs := make(chan frameLog, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			logs <- answerPush(conn)
		}
	}()
	return ln.Addr().String(), logs
}

// TestPushFramesFitKeptBuffer: over seeded random bundles (random data,
// with runs of zeros) and random edits of them, small and large, every
// OpUEdits frame Push writes fits protocol.MaxKeptFrame, headers
// included, with few enough fields that the agent's FrameReader keeps
// its field slice, and the frames carry exactly the bundle's edits, in
// order.
func TestPushFramesFitKeptBuffer(t *testing.T) {
	addr, logs := fakeAgent(t)
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
		b := &Bundle{Data: data, Sum: sha256.Sum256(data), Base: Sum{1}}
		for off, at := 0, 0; at < len(data); {
			n := r.Intn(3 * windowSize)
			if r.Intn(2) == 0 {
				n = r.Intn(100)
			}
			k := min(len(data)-at, r.Intn(2*protocol.MaxKeptFrame))
			if r.Intn(3) == 0 {
				k = min(len(data)-at, r.Intn(50))
			}
			b.Edits = append(b.Edits, Splice{Off: off, Len: n, Data: data[at : at+k]})
			off += n + 1 + r.Intn(1000)
			at += k + r.Intn(5000)
		}
		p := &Push{Addr: addr, Target: "/t", Bundle: b, Held: b.Base, Script: []string{""},
			Trace: "0123456789abcdef0123456789abcdef/0123456789abcdef", Timeout: 5 * time.Second}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		log := <-logs
		if log.err != nil {
			t.Fatal(log.err)
		}
		if !slices.EqualFunc(log.edits, b.Edits, func(a, b Splice) bool {
			return a.Off == b.Off && a.Len == b.Len && bytes.Equal(a.Data, b.Data)
		}) {
			t.Fatalf("round %d: frames carried %d edits, not the bundle's %d", round, len(log.edits), len(b.Edits))
		}
		for i, n := range log.frames {
			if n > protocol.MaxKeptFrame || log.fields[i] > 1024 {
				t.Errorf("round %d: edit frame %d is %d bytes in %d fields, over the %d bytes or 1,024 fields a FrameReader keeps", round, i, n, log.fields[i], protocol.MaxKeptFrame)
			}
		}
	}
}

// TestOneLineEditWireBytesIndependentOfBundleSize: a push ships what
// changed, not the bundle: a one-line change to a 1 MiB and to an 8 MiB
// bundle costs the same wire bytes, frame headers and every request of
// the push included, and under 2 KiB.
func TestOneLineEditWireBytesIndependentOfBundleSize(t *testing.T) {
	addr, logs := fakeAgent(t)
	wire := func(size int) int {
		var passwd bytes.Buffer
		for i := 0; passwd.Len() < size; i++ { // 64-byte lines
			fmt.Fprintf(&passwd, "user%07d:*:%07d:101:User%07d:/mit/user%07d:/bin/csh\n", i, i, i, i)
		}
		old := passwd.Bytes()
		mid := bytes.IndexByte(old[len(old)/2:], '\n') + len(old)/2 + 1
		end := mid + bytes.IndexByte(old[mid:], '\n')
		new := slices.Concat(old[:mid], []byte("changed:*:1:101:Changed,,,:/mit/changed:/bin/bash"), old[end:])
		b1, err := BuildTar(map[string][]byte{"passwd": old, "group": []byte("staff:*:101:\n")})
		if err != nil {
			t.Fatal(err)
		}
		b2, err := BuildTar(map[string][]byte{"passwd": new, "group": []byte("staff:*:101:\n")})
		if err != nil {
			t.Fatal(err)
		}
		b := editBundle(b1, b2)
		p := &Push{Addr: addr, Target: "/etc/athena/passwd.tar", Bundle: b, Held: b.Base,
			Script: []string{"extract passwd /etc/passwd", "install /etc/passwd"}, Timeout: 5 * time.Second}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		log := <-logs
		if log.err != nil || p.Whole {
			t.Fatalf("push: %v, whole %v", log.err, p.Whole)
		}
		return log.bytes
	}
	small, big := wire(1<<20), wire(8<<20)
	t.Logf("one-line change: %d wire bytes on a 1 MiB bundle, %d on an 8 MiB one", small, big)
	if small != big || big > 2<<10 {
		t.Errorf("a one-line change costs %d wire bytes on 1 MiB and %d on 8 MiB: want equal, under 2 KiB", small, big)
	}
}

// TestStageVerifies: the in-order pass makes exactly the file the edits
// describe from its base, whether an edit arrives whole or in pieces,
// and refuses edits out of order, a base that is not what the target
// holds (an edit past its end, or bytes that differ, wherever they are)
// and a result whose sum is wrong, leaving nothing staged.
func TestStageVerifies(t *testing.T) {
	dir := t.TempDir()
	fp := filepath.Join(dir, "bundle")
	old := randBytes(4, 120_000)
	new := slices.Concat(old[:1000], []byte("inserted"), old[1000:50_000], old[60_000:119_000], []byte("tail"))
	edits := []Splice{{Off: 1000, Data: []byte("inserted")}, {Off: 50_000, Len: 10_000}, {Off: 119_000, Len: 1000, Data: []byte("ta")}, {Off: 120_000, Data: []byte("il")}}
	stage := func(held []byte, base, sum Sum, edits []Splice) mrerr.Code {
		t.Helper()
		if err := os.WriteFile(fp, held, 0o644); err != nil {
			t.Fatal(err)
		}
		x, err := beginXfer(fp, base, sum)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edits {
			if code := x.apply(e.Off, e.Len, e.Data); code != mrerr.Success {
				x.abort()
				return code
			}
		}
		in, code := x.assemble()
		in.Close()
		if _, err := os.Stat(fp + xferSuffix); !os.IsNotExist(err) {
			t.Errorf("staging file left after the assemble: %v", err)
		}
		return code
	}
	check := func(name string, code, want mrerr.Code, holds []byte) {
		t.Helper()
		if code != want {
			t.Errorf("%s: %v, want %v", name, code, want)
		}
		if got, _ := os.ReadFile(fp); !bytes.Equal(got, holds) {
			t.Errorf("%s: target holds %d bytes, want %d", name, len(got), len(holds))
		}
	}
	base, sum := Sum(sha256.Sum256(old)), Sum(sha256.Sum256(new))
	check("edits", stage(old, base, sum, edits), mrerr.Success, new)
	check("no edits", stage(old, base, base, nil), mrerr.Success, old)
	check("whole", stage(old, emptySum, sum, []Splice{{Data: new[:70_000]}, {Data: new[70_000:]}}), mrerr.Success, new)
	check("out of order", stage(old, base, sum, []Splice{edits[1], edits[0]}), mrerr.MrArgs, old)
	check("past the end", stage(old[:100_000], base, sum, edits), mrerr.UpdBaseMismatch, old[:100_000])
	for _, at := range []int{10, 55_000, 119_500} { // kept, replaced, replaced at the end
		held := slices.Clone(old)
		held[at] ^= 1
		check(fmt.Sprint("base differs at ", at), stage(held, base, sum, edits), mrerr.UpdBaseMismatch, held)
	}
	check("wrong sum", stage(old, base, base, edits), mrerr.UpdChecksum, old)
}

// FuzzApplyEdits: for any base and new bundle, the base with the edits
// that make the new one applied, in pieces of any size, is the new
// bundle byte for byte; the same edits over a target that is not their
// base are refused, leaving it untouched; and the whole push that
// follows installs the new bundle byte-identical.
func FuzzApplyEdits(f *testing.F) {
	f.Add([]byte("a\nb\n"), []byte("a\nc\n"), uint16(1), uint16(0))
	f.Add([]byte{}, []byte("x"), uint16(0), uint16(5))
	f.Add([]byte("same"), []byte("same"), uint16(3), uint16(2))
	f.Add(randBytes(1, 3000), randBytes(2, 2000), uint16(700), uint16(1999))
	f.Fuzz(func(t *testing.T, old, new []byte, piece, flip uint16) {
		fp := filepath.Join(t.TempDir(), "bundle")
		push := func(held []byte, base Sum, edits []Splice) ([]byte, mrerr.Code) {
			if err := os.WriteFile(fp, held, 0o644); err != nil {
				t.Fatal(err)
			}
			x, err := beginXfer(fp, base, sha256.Sum256(new))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range edits {
				// Each edit in pieces of at most piece+1 bytes, as frames
				// split one.
				off, n, data := e.Off, e.Len, e.Data
				for first := true; first || len(data) > 0; first = false {
					k := min(len(data), int(piece)+1)
					if code := x.apply(off, n, data[:k]); code != mrerr.Success {
						x.abort()
						got, _ := os.ReadFile(fp)
						return got, code
					}
					off, n, data = off+n, 0, data[k:]
				}
			}
			in, code := x.assemble()
			in.Close()
			got, _ := os.ReadFile(fp)
			return got, code
		}
		edits := diffSplices(old, new)
		if got, code := push(old, sha256.Sum256(old), edits); code != mrerr.Success || !bytes.Equal(got, new) {
			t.Fatalf("base + edits: %v, %d bytes, want the %d-byte bundle", code, len(got), len(new))
		}
		// A target that is not the base: old with one byte changed. (The
		// empty base is the empty file whatever the target holds.)
		if len(old) == 0 {
			return
		}
		wrong := slices.Clone(old)
		wrong[int(flip)%len(old)] ^= 0x80
		if got, code := push(wrong, sha256.Sum256(old), edits); code != mrerr.UpdBaseMismatch || !bytes.Equal(got, wrong) {
			t.Fatalf("edits over a wrong base: %v, target %d bytes, want a base mismatch and the %d bytes it held", code, len(got), len(wrong))
		}
		if _, err := os.Stat(fp + xferSuffix); !os.IsNotExist(err) {
			t.Fatalf("staging file left after a refused push: %v", err)
		}
		if got, code := push(wrong, emptySum, []Splice{{Data: new}}); code != mrerr.Success || !bytes.Equal(got, new) {
			t.Fatalf("whole push after the mismatch: %v, %d bytes, want the %d-byte bundle", code, len(got), len(new))
		}
	})
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

// transferReqs are the begin request for a push of bundle over base to
// bundleTarget and a request carrying every edit that makes it.
func transferReqs(base, bundle []byte) (begin, edits *protocol.Request) {
	begin = &protocol.Request{Version: protocol.Version, Op: OpUBegin,
		Args: [][]byte{[]byte(bundleTarget), []byte(idOf(base)), []byte(idOf(bundle))}}
	edits = &protocol.Request{Version: protocol.Version, Op: OpUEdits}
	for _, e := range diffSplices(base, bundle) {
		edits.Args = append(edits.Args, binary.BigEndian.AppendUint64(nil, uint64(e.Off)), binary.BigEndian.AppendUint64(nil, uint64(e.Len)), e.Data)
	}
	return begin, edits
}

// TestStagingFileLifecycle: the staging file exists from the begin on.
// A session that ends without a successful assemble — a connection
// dropped after the edits, a crash at any point, a second OpUBegin —
// leaves no <target>.moira_xfer and the target byte-identical. A target
// replaced by rename between the begin and the assemble still installs
// byte-identical: the session reads the inode it opened.
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
	rigAt := func(t *testing.T) (*targetRig, string) {
		r := newTargetRig(t, t.TempDir(), v1)
		if err := r.push(v1); err != nil {
			t.Fatal(err)
		}
		fp, _ := r.a.HostPath(bundleTarget)
		return r, fp
	}
	// settled waits for the session to end, then checks that the target
	// holds want.
	settled := func(t *testing.T, r *targetRig, fp string, want []byte) {
		t.Helper()
		waitFor(t, "the staging file to go", func() bool {
			_, err := os.Stat(fp + xferSuffix)
			return os.IsNotExist(err)
		})
		if got, err := os.ReadFile(fp); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("target holds %d bytes (%v), want %d", len(got), err, len(want))
		}
	}
	begin, edits := transferReqs(bundle1, bundle2)
	assemble := &protocol.Request{Version: protocol.Version, Op: OpUAssemble}

	t.Run("dropped after chunks", func(t *testing.T) {
		r, fp := rigAt(t)
		if codes := rawSession(t, r.addr, begin, edits); codes[0] != mrerr.Success || codes[1] != mrerr.Success {
			t.Fatalf("codes %v", codes)
		}
		settled(t, r, fp, bundle1)
		if err := r.push(v2); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("second manifest", func(t *testing.T) {
		r, fp := rigAt(t)
		rawSession(t, r.addr, begin, edits, begin)
		settled(t, r, fp, bundle1)
		// The second begin's transfer is the one that assembles.
		codes := rawSession(t, r.addr, begin, edits, begin, edits, assemble)
		if codes[4] != mrerr.Success {
			t.Fatalf("codes %v", codes)
		}
		settled(t, r, fp, bundle2)
	})
	stages := []string{"before-xfer", "after-xfer", "before-execute"}
	for i := range newTargetRig(t, t.TempDir(), v1).script {
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
	r := newTargetRig(t, t.TempDir(), v1)
	fp, _ := r.a.HostPath(bundleTarget)
	before := openFiles(t)
	for _, files := range []map[string][]byte{v1, v1, v2} { // cold, warm, changed
		if err := r.push(files); err != nil {
			t.Fatal(err)
		}
	}
	// A failed assemble: a kept byte rewritten on disk.
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
	if err := r.try(v1); err != mrerr.UpdBaseMismatch {
		t.Fatalf("push over a rewritten target: %v, want %v", err, mrerr.UpdBaseMismatch)
	}
	// A crash at the assemble, and a connection dropped after the edits.
	r.a.SetCrashPoint(func(s string) bool { return s == "before-xfer" })
	if err := r.push(v2); !IsSoftError(err) {
		t.Fatalf("crashed push: %v", err)
	}
	r.a.SetCrashPoint(nil)
	bundle, err := BuildTar(v1)
	if err != nil {
		t.Fatal(err)
	}
	begin, edits := transferReqs(bundle, bundle)
	rawSession(t, r.addr, begin, edits)
	waitFor(t, fmt.Sprintf("open files to fall back to %d", before), func() bool { return openFiles(t) <= before })
}

// TestChangedPushAllocsIndependentOfChangedBytes: the agent writes each
// pushed edit to the staging file as it arrives, reads the old bundle
// through its handle and every frame into one kept buffer, so an edit
// costs a push only its bookkeeping: a push of an 8 MiB, 16-member
// bundle with 64 scattered changes over the bundle without them
// allocates at most 1 KiB an edit more than one with a single change,
// both ends counted.
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
	changed := func(n int) []byte {
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
		return data
	}
	b0, b1, b64 := changed(0), changed(1), changed(64)
	base, one, many := NewBundle(b0), editBundle(b0, b1), editBundle(b0, b64)
	back1, back64 := editBundle(b1, b0), editBundle(b64, b0)
	push := func(b *Bundle) (alloc uint64, chunks int64) {
		p := &Push{Addr: addr.String(), Target: "/tmp/bundle", Bundle: b, Held: b.Base, Script: extractAll(files), Timeout: 10 * time.Second}
		pushed := a.reg.Counter("update.chunks.pushed").Value()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := p.Run(); err != nil || p.Whole {
			t.Fatalf("push: %v, whole %v", err, p.Whole)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, a.reg.Counter("update.chunks.pushed").Value() - pushed
	}
	if err := (&Push{Addr: addr.String(), Target: "/tmp/bundle", Bundle: base, Script: extractAll(files), Timeout: 10 * time.Second}).Run(); err != nil {
		t.Fatal(err)
	}
	var ones, manys []uint64
	var oneChunks, manyChunks int64
	for i := 0; i < 6; i++ { // the first round warms up each shape
		s, n := push(one)
		push(back1)
		m, k := push(many)
		push(back64)
		if i > 0 {
			ones, manys, oneChunks, manyChunks = append(ones, s), append(manys, m), n, k
		}
	}
	slices.Sort(ones)
	slices.Sort(manys)
	o, m := ones[2], manys[2]
	t.Logf("8 MiB bundle: %d edits %d B, %d edits %d B: %.0f B an edit more",
		oneChunks, o, manyChunks, m, float64(int64(m)-int64(o))/float64(manyChunks-oneChunks))
	if int64(m) > int64(o)+(manyChunks-oneChunks)*perChunk {
		t.Errorf("%d edits allocate %d B, %d allocate %d B: want under %d B an edit more", manyChunks, m, oneChunks, o, perChunk)
	}
}

// TestEditPushReusesUnchangedData drives the begin/edits/assemble
// exchange against a real agent: the first push goes whole, a push of a
// slightly edited bundle over it ships only the edit, an identical
// re-push ships nothing, and the installed file is byte-identical to
// the bundle each time.
func TestEditPushReusesUnchangedData(t *testing.T) {
	a := NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	// The transfer already deposits the data at the target; a blank
	// instruction keeps the execution phase a no-op.
	q := &pusher{addr: addr.String(), target: "/tmp/bundle", script: []string{""}}
	push := func(data []byte) *Push {
		if err := q.push(data); err != nil {
			t.Fatalf("push: %v", err)
		}
		if got, err := a.ReadHostFile("/tmp/bundle"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("installed bundle differs from pushed data: %v", err)
		}
		return q.last
	}

	v1 := randBytes(10, 200<<10)
	if p := push(v1); !p.Whole || p.SentBytes != len(v1) || p.ReusedBytes != 0 {
		t.Errorf("cold push whole=%v sent=%d reused=%d, want whole %d/0", p.Whole, p.SentBytes, p.ReusedBytes, len(v1))
	}
	v2 := slices.Clone(v1)
	v2[50<<10] ^= 0xaa // one-byte edit
	if p := push(v2); p.Whole || p.SentBytes != 1 || p.ReusedBytes != len(v2)-1 {
		t.Errorf("warm push whole=%v sent=%d reused=%d, want the one changed byte", p.Whole, p.SentBytes, p.ReusedBytes)
	}
	if p := push(v2); p.Whole || p.SentBytes != 0 || p.ReusedBytes != len(v2) {
		t.Errorf("identical push whole=%v sent=%d reused=%d", p.Whole, p.SentBytes, p.ReusedBytes)
	}
}
