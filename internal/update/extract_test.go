package update

import (
	"archive/tar"
	"bytes"
	"fmt"
	"runtime"
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

// TestExtractAllocsIndependentOfMemberCount: members come out of the
// verified in-memory bundle as sub-slices, so a session that extracts 16
// members allocates what one extracting 2 does. The measured push
// re-sends a bundle the host already holds — a change pass's steady
// state, where few chunks travel — so the session allocates the old
// file's read for the manifest diff and the reassembly (2x the bundle),
// plus per-push costs that do not depend on the member count; not one
// archive read and one member copy per extract (at the parent: 11.6 MB
// for 2 members, 26.7 MB for 16).
func TestExtractAllocsIndependentOfMemberCount(t *testing.T) {
	const total = 1 << 20
	// Both ends' manifests (~2 KB a chunk, 130 chunks), frames, tar
	// headers, file handles: 210-320 KB measured.
	const ceiling = 512 << 10
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	session := func(members int) (alloc uint64, bundle int) {
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
		p := &Push{Addr: addr.String(), Target: "/tmp/bundle", Data: data,
			Script: extractAll(files), Timeout: 5 * time.Second}
		if err := p.Run(); err != nil { // cold: every chunk travels
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if p.SentBytes != 0 {
			t.Fatalf("warm push sent %d chunk bytes, want 0", p.SentBytes)
		}
		checkInstalled(t, a, files)
		return after.TotalAlloc - before.TotalAlloc, len(data)
	}
	few, fewSize := session(2)
	many, manySize := session(16)
	t.Logf("2 members: %d B allocated for a %d B bundle; 16 members: %d B for %d B", few, fewSize, many, manySize)
	for _, s := range []struct {
		alloc  uint64
		bundle int
	}{{few, fewSize}, {many, manySize}} {
		if s.alloc > uint64(2*s.bundle+ceiling) {
			t.Errorf("session allocated %d B for a %d B bundle, want under 2x + %d", s.alloc, s.bundle, ceiling)
		}
	}
	if float64(many) > 1.2*float64(few) || float64(few) > 1.2*float64(many) {
		t.Errorf("16 members allocate %d B, 2 members %d B: want within 20%%", many, few)
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
		p := &Push{Addr: addr.String(), Target: "/tmp/bundle", Data: data,
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
