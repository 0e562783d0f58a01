package update

import (
	"archive/tar"
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// memberFiles splits total bytes of seeded random data into n members.
func memberFiles(seed int64, n, total int) map[string][]byte {
	data := randBytes(seed, total)
	files := map[string][]byte{}
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("m%02d.db", i)] = data[i*total/n : (i+1)*total/n]
	}
	return files
}

// extractAll is the script that extracts and installs every member.
func extractAll(files map[string][]byte) []string {
	var script []string
	for name := range files {
		script = append(script, "extract "+name+" /etc/"+name, "install /etc/"+name)
	}
	return script
}

// checkInstalled fails unless every installed file is byte-identical to
// the member the pusher bundled.
func checkInstalled(t *testing.T, a *Agent, files map[string][]byte) {
	t.Helper()
	for name, want := range files {
		got, err := a.ReadHostFile("/etc/" + name)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("/etc/%s: %d bytes (%v), want the %d bundled", name, len(got), err, len(want))
		}
	}
}

// warmPushAllocs pushes members members of total bytes to a new agent,
// extracting and installing each, then re-pushes the same bundle to the
// host holding it — a change pass's steady state, where no edit travels
// — five times. It returns the median allocation of the re-pushes, both
// ends counted, and the bundle's chunk count (SplitChunks), a measure of
// its size.
func warmPushAllocs(t *testing.T, members, total int) (uint64, int) {
	t.Helper()
	a := NewAgent("H", t.TempDir(), nil)
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	files := memberFiles(int64(members), members, total)
	data, err := BuildTar(files)
	if err != nil {
		t.Fatal(err)
	}
	p := &Push{Addr: addr.String(), Target: "/tmp/bundle", Bundle: NewBundle(data),
		Script: extractAll(files), Timeout: 5 * time.Second}
	if err := p.Run(); err != nil { // cold: the whole bundle travels
		t.Fatal(err)
	}
	p.Held = p.Bundle.Sum
	var allocs []uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if p.SentBytes != 0 {
			t.Fatalf("warm push sent %d edit bytes, want 0", p.SentBytes)
		}
		allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
	}
	checkInstalled(t, a, files)
	slices.Sort(allocs)
	return allocs[2], len(SplitChunks(data))
}

// warmPushCeiling bounds a warm re-push whatever the bundle's size:
// frames, hashes, the new bundle's tar headers, a stat per member; 10-42
// KiB measured at 1 and 8 MiB, every extract finding its member in
// place (13-63 KiB when each rewrote its member), rounded up to a power
// of two.
const warmPushCeiling = 64 << 10

// TestExtractAllocsIndependentOfMemberCount: the agent streams a push
// into its staged file, finds members in one index of its headers and
// keeps the old bundle's index from the push before, so a warm re-push
// allocates neither the bundle nor a copy of any member: a member adds
// only the bookkeeping of its extract and install, which find it in
// place (its script lines, a path string, a stat result).
func TestExtractAllocsIndependentOfMemberCount(t *testing.T) {
	// 1.45 KiB measured (3.0 KiB when each extract rewrote its member);
	// a member is 64 KiB of a 1 MiB bundle split 16 ways.
	const perMember = 2 << 10
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	few, _ := warmPushAllocs(t, 2, 1<<20)
	many, _ := warmPushAllocs(t, 16, 1<<20)
	t.Logf("1 MiB bundle: 2 members %d B, 16 members %d B", few, many)
	for _, s := range []uint64{few, many} {
		if s > warmPushCeiling {
			t.Errorf("session allocated %d B, want under %d", s, warmPushCeiling)
		}
	}
	if many > few+14*perMember {
		t.Errorf("16 members allocate %d B, 2 members %d B: want under %d B a member more", many, few, perMember)
	}
}

// TestExtractAllocsIndependentOfBundleSize: a warm re-push of an 8 MiB
// bundle allocates under the same constant as one of a 1 MiB bundle,
// and more by at most a bound per 8 KiB chunk of the bundle (what a
// chunk transport's manifest cost): nothing per byte.
func TestExtractAllocsIndependentOfBundleSize(t *testing.T) {
	// 270 B measured; a chunk is 8 KiB or more.
	const perChunk = 320
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	small, smallChunks := warmPushAllocs(t, 16, 1<<20)
	big, bigChunks := warmPushAllocs(t, 16, 8<<20)
	t.Logf("16 members: 1 MiB bundle (%d chunks) %d B, 8 MiB bundle (%d chunks) %d B", smallChunks, small, bigChunks, big)
	for _, s := range []uint64{small, big} {
		if s > warmPushCeiling {
			t.Errorf("session allocated %d B, want under %d whatever the bundle's size", s, warmPushCeiling)
		}
	}
	if big > small+uint64(bigChunks-smallChunks)*perChunk {
		t.Errorf("an 8 MiB bundle allocates %d B, a 1 MiB one %d B: want under %d B a chunk more", big, small, perChunk)
	}
}

// TestExtractMemberAliasesArchive: ExtractMember returns the member's
// bytes in place, capped so an append cannot reach the next header.
func TestExtractMemberAliasesArchive(t *testing.T) {
	files := memberFiles(3, 3, 3000)
	archive, err := BuildTar(files)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		got, err := ExtractMember(archive, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: cap %d beyond len %d", name, cap(got), len(got))
		}
		off := bytes.Index(archive, want)
		if &got[0] != &archive[off] {
			t.Errorf("%s: member is a copy, not a sub-slice of the archive", name)
		}
	}
}

// TestExtractGuards: a member that is not a regular file, one whose
// header claims more bytes than the staged archive holds, and one that
// is not there are UpdNoFile; extract with nothing staged is
// UpdBadInstr.
func TestExtractGuards(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, h := range []*tar.Header{
		{Name: "link", Typeflag: tar.TypeSymlink, Linkname: "ok", Mode: 0o777},
		{Name: "dir/", Typeflag: tar.TypeDir, Mode: 0o755},
	} {
		if err := tw.WriteHeader(h); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []struct{ name, body string }{{"ok", "fine"}, {"long", string(randBytes(7, 5000))}} {
		if err := tw.WriteHeader(&tar.Header{Name: m.name, Mode: 0o644, Size: int64(len(m.body))}); err != nil {
			t.Fatal(err)
		}
		tw.Write([]byte(m.body))
	}
	tw.Close()
	full := buf.Bytes()
	// Cut inside "long"'s data: its header is whole, its bytes are not.
	truncated := full[:bytes.Index(full, []byte("long"))+512+1000]

	a := NewAgent("H", t.TempDir(), nil)
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	push := func(data []byte, script ...string) error {
		p := &Push{Addr: addr.String(), Target: "/tmp/bundle", Bundle: NewBundle(data),
			Script: script, Timeout: 5 * time.Second}
		return p.Run()
	}
	for _, c := range []struct {
		data   []byte
		member string
		want   error
	}{
		{full, "ok", nil},
		{full, "link", mrerr.UpdNoFile},
		{full, "dir/", mrerr.UpdNoFile},
		{full, "ghost", mrerr.UpdNoFile},
		{truncated, "ok", nil}, // before the cut, still whole
		{truncated, "long", mrerr.UpdNoFile},
	} {
		if err := push(c.data, "extract "+c.member+" /out"); err != c.want {
			t.Errorf("extract %s from a %d-byte archive: %v, want %v", c.member, len(c.data), err, c.want)
		}
	}
	if got, _ := a.ReadHostFile("/out" + updateSuffix); string(got) != "fine" {
		t.Errorf("staged member = %q", got)
	}

	// Nothing staged in this session: the script alone cannot extract.
	codes := rawSession(t, addr.String(),
		&protocol.Request{Version: protocol.Version, Op: OpUScript, Args: protocol.BytesArgs([]string{"extract ok /out"})},
		&protocol.Request{Version: protocol.Version, Op: OpUExecute})
	if codes[0] != mrerr.Success || codes[1] != mrerr.UpdBadInstr {
		t.Errorf("extract with nothing staged: codes = %v, want [SUCCESS UPD_BAD_INSTR]", codes)
	}
}

// TestExtractCrashPointsRecover: a crash at each transfer and
// instruction crash point is a soft failure, and the retried push
// installs every member byte-identical to the bundle — the in-memory
// bundle died with the crashed session, and the retry stages afresh.
func TestExtractCrashPointsRecover(t *testing.T) {
	files := memberFiles(9, 4, 40_000)
	script := extractAll(files)
	stages := []string{"before-xfer", "after-xfer", "before-execute"}
	for i := range script {
		stages = append(stages, fmt.Sprintf("instr-%d", i))
	}
	for _, stage := range stages {
		a, push := rig(t)
		crashed := false
		a.SetCrashPoint(func(s string) bool {
			if s == stage && !crashed {
				crashed = true
				return true
			}
			return false
		})
		if err := push(files, script); !IsSoftError(err) {
			t.Errorf("%s: crashed push err = %v, want a soft error", stage, err)
		}
		if err := push(files, script); err != nil {
			t.Fatalf("%s: retry: %v", stage, err)
		}
		checkInstalled(t, a, files)
	}
}
