package update

import (
	"archive/tar"
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"moira/internal/clock"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
)

func TestTarRoundTrip(t *testing.T) {
	files := map[string][]byte{
		"passwd.db": []byte("babette.passwd HS UNSPECA ...\n"),
		"uid.db":    []byte("6530.uid HS CNAME babette.passwd\n"),
	}
	archive, err := BuildTar(files)
	if err != nil {
		t.Fatal(err)
	}
	names := tarNames(t, archive)
	if len(names) != 2 || names[0] != "passwd.db" { // sorted
		t.Errorf("names = %v", names)
	}
	data, err := ExtractMember(archive, "uid.db")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, files["uid.db"]) {
		t.Errorf("member = %q", data)
	}
	if _, err := ExtractMember(archive, "ghost.db"); err != mrerr.UpdNoFile {
		t.Errorf("missing member err = %v", err)
	}
}

// tarNames walks archive's headers with archive/tar and returns its
// member names in order.
func tarNames(t *testing.T, archive []byte) []string {
	t.Helper()
	var names []string
	tr := tar.NewReader(bytes.NewReader(archive))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return names
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, hdr.Name)
	}
}

// rig creates an agent on a temp root plus a Push preconfigured for it.
func rig(t *testing.T) (*Agent, func(files map[string][]byte, script []string) error) {
	t.Helper()
	a := NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	q := &pusher{addr: addr.String(), target: "/tmp/hesiod.out"}
	push := func(files map[string][]byte, script []string) error {
		data, err := BuildTar(files)
		if err != nil {
			t.Fatal(err)
		}
		q.script = script
		return q.push(data)
	}
	return a, push
}

func TestFullUpdateFlow(t *testing.T) {
	a, push := rig(t)
	files := map[string][]byte{"passwd.db": []byte("v1\n")}
	script := []string{
		"extract passwd.db /etc/athena/passwd.db",
		"install /etc/athena/passwd.db",
	}
	if err := push(files, script); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadHostFile("/etc/athena/passwd.db")
	if err != nil || string(got) != "v1\n" {
		t.Fatalf("installed = %q, %v", got, err)
	}
	// Second update replaces atomically and keeps a backup.
	files["passwd.db"] = []byte("v2\n")
	if err := push(files, script); err != nil {
		t.Fatal(err)
	}
	got, _ = a.ReadHostFile("/etc/athena/passwd.db")
	if string(got) != "v2\n" {
		t.Errorf("after second install = %q", got)
	}
	bak, err := a.ReadHostFile("/etc/athena/passwd.db" + backupSuffix)
	if err != nil || string(bak) != "v1\n" {
		t.Errorf("backup = %q, %v", bak, err)
	}
}

func TestRevertInstruction(t *testing.T) {
	a, push := rig(t)
	script := []string{"extract f /f", "install /f"}
	if err := push(map[string][]byte{"f": []byte("old")}, script); err != nil {
		t.Fatal(err)
	}
	if err := push(map[string][]byte{"f": []byte("new")}, script); err != nil {
		t.Fatal(err)
	}
	// Erroneous installation: revert.
	if err := push(map[string][]byte{"f": []byte("unused")}, []string{"revert /f"}); err != nil {
		t.Fatal(err)
	}
	got, _ := a.ReadHostFile("/f")
	if string(got) != "old" {
		t.Errorf("after revert = %q", got)
	}
	// Nothing left to revert to.
	err := push(map[string][]byte{"f": []byte("unused")}, []string{"revert /f"})
	if err != mrerr.UpdNoRevert {
		t.Errorf("double revert err = %v", err)
	}
}

func TestSignalInstruction(t *testing.T) {
	a, push := rig(t)
	if err := a.WriteHostFile("/var/run/hesiod.pid", []byte("1234\n")); err != nil {
		t.Fatal(err)
	}
	if err := push(map[string][]byte{}, []string{"signal /var/run/hesiod.pid"}); err != nil {
		t.Fatal(err)
	}
	if sig := a.Signals(); len(sig) != 1 || sig[0] != 1234 {
		t.Errorf("signals = %v", sig)
	}
}

func TestExecInstruction(t *testing.T) {
	a, push := rig(t)
	var gotArgs []string
	a.RegisterCommand("restart_hesiod", func(ag *Agent, in *Install, args []string) error {
		gotArgs = args
		return nil
	})
	if err := push(map[string][]byte{}, []string{"exec restart_hesiod fast"}); err != nil {
		t.Fatal(err)
	}
	if len(gotArgs) != 1 || gotArgs[0] != "fast" {
		t.Errorf("args = %v", gotArgs)
	}
	// Unregistered command is a hard script error.
	if err := push(map[string][]byte{}, []string{"exec nonsense"}); err != mrerr.UpdBadInstr {
		t.Errorf("unknown exec err = %v", err)
	}
	// A failing command reports a script error.
	a.RegisterCommand("fail", func(*Agent, *Install, []string) error { return mrerr.MrInternal })
	if err := push(map[string][]byte{}, []string{"exec fail"}); err != mrerr.UpdScriptError {
		t.Errorf("failing exec err = %v", err)
	}
}

// TestChecksumMismatch covers both integrity checks of the transfer: a
// file whose edits do not give the new sum is refused at assembly with
// UPD_CHECKSUM, and edits over a target that is not their base with
// UPD_BASE_MISMATCH, whether an edit reaches past the target's end or
// the target's bytes just differ — none leaves anything staged.
func TestChecksumMismatch(t *testing.T) {
	a := NewAgent("H", t.TempDir(), nil)
	addr, _ := a.Listen("127.0.0.1:0")
	defer a.Close()
	data := []byte("data")
	p := &Push{Addr: addr.String(), Target: "/t", Bundle: NewBundle(data),
		Script: []string{}, Timeout: 2 * time.Second}
	if err := p.Run(); err != nil {
		t.Fatalf("control push failed: %v", err)
	}

	hexSum := func(b []byte) []byte {
		sum := sha256.Sum256(b)
		return []byte(hex.EncodeToString(sum[:]))
	}
	req := func(op uint16, args ...[]byte) *protocol.Request {
		return &protocol.Request{Version: protocol.Version, Op: op, Args: args}
	}
	edit := func(off, n int, b string) *protocol.Request {
		return req(OpUEdits, binary.BigEndian.AppendUint64(nil, uint64(off)), binary.BigEndian.AppendUint64(nil, uint64(n)), []byte(b))
	}
	for _, c := range []struct {
		name  string
		reqs  []*protocol.Request
		codes []mrerr.Code
	}{
		{"edits not giving the sum", []*protocol.Request{req(OpUBegin, []byte("/t"), hexSum(data), hexSum([]byte("DATA"))),
			edit(0, 4, "DATa"), req(OpUAssemble)}, []mrerr.Code{mrerr.Success, mrerr.Success, mrerr.UpdChecksum}},
		{"whole push not giving the sum", []*protocol.Request{req(OpUBegin, []byte("/t"), hexSum(nil), hexSum([]byte("DATA"))),
			edit(0, 0, "DATa"), req(OpUAssemble)}, []mrerr.Code{mrerr.Success, mrerr.Success, mrerr.UpdChecksum}},
		{"edit past the target's end", []*protocol.Request{req(OpUBegin, []byte("/t"), hexSum([]byte("longer data")), hexSum([]byte("DATA"))),
			edit(0, 11, "DATA"), req(OpUAssemble)}, []mrerr.Code{mrerr.Success, mrerr.UpdBaseMismatch, mrerr.UpdNoFile}},
		{"target not the base", []*protocol.Request{req(OpUBegin, []byte("/t"), hexSum([]byte("dada")), hexSum([]byte("dATA"))),
			edit(1, 3, "ATA"), req(OpUAssemble)}, []mrerr.Code{mrerr.Success, mrerr.Success, mrerr.UpdBaseMismatch}},
		{"edits out of order", []*protocol.Request{req(OpUBegin, []byte("/t"), hexSum(data), hexSum([]byte("dATA"))),
			edit(2, 2, "TA"), edit(1, 1, "A"), req(OpUAssemble)}, []mrerr.Code{mrerr.Success, mrerr.Success, mrerr.MrArgs, mrerr.UpdNoFile}},
	} {
		if codes := rawSession(t, addr.String(), c.reqs...); fmt.Sprint(codes) != fmt.Sprint(c.codes) {
			t.Errorf("%s: codes = %v, want %v", c.name, codes, c.codes)
		}
		if got, _ := a.ReadHostFile("/t"); !bytes.Equal(got, data) {
			t.Errorf("%s: refused transfer overwrote the target: %q", c.name, got)
		}
		if _, err := a.ReadHostFile("/t" + xferSuffix); !os.IsNotExist(err) {
			t.Errorf("%s: staging file left behind: %v", c.name, err)
		}
	}
}

// TestUnassignedOpRefused: op 21 carried a whole-file transfer in an
// earlier protocol; an agent answers it, as any op it does not
// implement, with MR_UNKNOWN_PROC.
func TestUnassignedOpRefused(t *testing.T) {
	a := NewAgent("H", t.TempDir(), nil)
	addr, _ := a.Listen("127.0.0.1:0")
	defer a.Close()
	codes := rawSession(t, addr.String(), &protocol.Request{
		Version: protocol.Version, Op: 21,
		Args: [][]byte{[]byte("/t"), []byte(Sum{}.String()), []byte("x")}})
	if codes[0] != mrerr.MrUnknownProc {
		t.Errorf("op 21 code = %v, want MR_UNKNOWN_PROC", codes[0])
	}
	if _, err := a.ReadHostFile("/t"); !os.IsNotExist(err) {
		t.Errorf("op 21 staged a file: %v", err)
	}
}

// TestAgentVersionSkew: a request stamped another protocol version is
// refused with MR_VERSION_MISMATCH, not dispatched, and the connection
// keeps serving (the same execute at our version reaches dispatch, which
// finds nothing staged).
func TestAgentVersionSkew(t *testing.T) {
	a := NewAgent("H", t.TempDir(), nil)
	addr, _ := a.Listen("127.0.0.1:0")
	defer a.Close()
	codes := rawSession(t, addr.String(),
		&protocol.Request{Version: 1, Op: OpUExecute},
		&protocol.Request{Version: protocol.Version + 1, Op: OpUExecute},
		&protocol.Request{Version: protocol.Version, Op: OpUExecute})
	want := []mrerr.Code{mrerr.MrVersionMismatch, mrerr.MrVersionMismatch, mrerr.UpdNoFile}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
}

func TestPathEscapeRejected(t *testing.T) {
	_, push := rig(t)
	err := push(map[string][]byte{"f": []byte("x")},
		[]string{"extract f ../../outside"})
	if err != mrerr.UpdBadInstr {
		t.Errorf("escape err = %v", err)
	}
}

// TestRootIsNoDestination: extract, install and revert name a file
// inside the agent root, never the root itself, whose staging and backup
// names would sit outside it.
func TestRootIsNoDestination(t *testing.T) {
	_, push := rig(t)
	for _, instr := range []string{"extract f /", "install /", "revert //", "install ."} {
		if err := push(map[string][]byte{"f": []byte("x")}, []string{instr}); err != mrerr.UpdBadInstr {
			t.Errorf("%s: err = %v, want UPD_BAD_INSTR", instr, err)
		}
	}
}

func TestUnreachableHost(t *testing.T) {
	p := &Push{Addr: "127.0.0.1:1", Target: "/t", Bundle: NewBundle(nil), Timeout: time.Second}
	err := p.Run()
	if err != mrerr.UpdUnreachable {
		t.Errorf("err = %v", err)
	}
	if !IsSoftError(err) {
		t.Error("unreachable should be a soft error")
	}
	if IsSoftError(mrerr.UpdScriptError) {
		t.Error("script error should be hard")
	}
}

func TestCrashRecoveryIdempotence(t *testing.T) {
	a, push := rig(t)
	files := map[string][]byte{"f": []byte("payload")}
	script := []string{"extract f /etc/f", "install /etc/f"}

	// Crash after staging the tar, before execution.
	crashes := 1
	a.SetCrashPoint(func(stage string) bool {
		if stage == "before-execute" && crashes > 0 {
			crashes--
			return true
		}
		return false
	})
	err := push(files, script)
	if err == nil {
		t.Fatal("push against crashing agent succeeded")
	}
	if !IsSoftError(err) {
		t.Errorf("crash mid-update should classify soft, got %v", err)
	}
	// Retry succeeds and installs the same content (idempotent).
	a.SetCrashPoint(nil)
	if err := push(files, script); err != nil {
		t.Fatal(err)
	}
	got, _ := a.ReadHostFile("/etc/f")
	if string(got) != "payload" {
		t.Errorf("after recovery = %q", got)
	}

	// Crash mid-script after install: the file is already in place; the
	// retried update installs again harmlessly ("extra installations are
	// not harmful").
	crashed := false
	a.SetCrashPoint(func(stage string) bool {
		if stage == "instr-1" && !crashed {
			crashed = true
			return false // let install run, crash before... nothing after
		}
		return false
	})
	files["f"] = []byte("payload2")
	if err := push(files, script); err != nil {
		t.Fatal(err)
	}
	if err := push(files, script); err != nil {
		t.Fatal(err)
	}
	got, _ = a.ReadHostFile("/etc/f")
	if string(got) != "payload2" {
		t.Errorf("after repeated install = %q", got)
	}
}

// TestStaleUpdateFileCleaned: a transfer deletes the staging files a
// crashed run left beside its target ("it may be incomplete"), and only
// those: a sibling whose name merely starts with the target's survives,
// and a target whose name holds glob metacharacters has its own debris
// cleaned.
func TestStaleUpdateFileCleaned(t *testing.T) {
	a, push := rig(t)
	stale := []string{"/tmp/hesiod.out" + updateSuffix, "/tmp/hesiod.out" + xferSuffix}
	sibling := "/tmp/hesiod.out2" + updateSuffix
	for _, p := range append(stale, sibling) {
		if err := a.WriteHostFile(p, []byte("partial")); err != nil {
			t.Fatal(err)
		}
	}
	if err := push(map[string][]byte{"f": []byte("x")}, []string{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range stale {
		if _, err := a.ReadHostFile(p); !os.IsNotExist(err) {
			t.Errorf("stale staging file %s survived: %v", p, err)
		}
	}
	if got, err := a.ReadHostFile(sibling); err != nil || string(got) != "partial" {
		t.Errorf("sibling %s sharing the target's prefix: %q, %v; want it untouched", sibling, got, err)
	}

	const odd = "/tmp/hes[iod]*?.out"
	for _, p := range []string{odd + updateSuffix, odd + xferSuffix} {
		if err := a.WriteHostFile(p, []byte("partial")); err != nil {
			t.Fatal(err)
		}
	}
	data, err := BuildTar(map[string][]byte{"f": []byte("y")})
	if err != nil {
		t.Fatal(err)
	}
	p := &Push{Addr: a.Addr().String(), Target: odd, Bundle: NewBundle(data), Timeout: 5 * time.Second}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{odd + updateSuffix, odd + xferSuffix} {
		if _, err := a.ReadHostFile(p); !os.IsNotExist(err) {
			t.Errorf("stale staging file %s survived: %v", p, err)
		}
	}
	if got, err := a.ReadHostFile(odd); err != nil || !bytes.Equal(got, data) {
		t.Errorf("target %s: %d bytes, %v", odd, len(got), err)
	}
}

func TestAuthenticatedAgent(t *testing.T) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	kdc := kerberos.NewKDC("ATHENA.MIT.EDU", clk)
	kdc.AddPrincipal("moira_update", "updpw")
	kdc.AddPrincipal("dcm", "dcmpw")
	key, _ := kdc.Srvtab("moira_update")

	a := NewAgent("H", t.TempDir(), kerberos.NewVerifier("moira_update", key, clk))
	addr, _ := a.Listen("127.0.0.1:0")
	defer a.Close()

	data, _ := BuildTar(map[string][]byte{"f": []byte("x")})
	// Without credentials: refused.
	p := &Push{Addr: addr.String(), Target: "/t", Bundle: NewBundle(data),
		Script: []string{"extract f /f", "install /f"}, Timeout: 2 * time.Second, Clock: clk}
	if err := p.Run(); err != mrerr.UpdAuthFailed {
		t.Errorf("unauthenticated err = %v", err)
	}
	// With credentials: accepted.
	creds, err := kdc.GetTicket("dcm", "dcmpw", "moira_update")
	if err != nil {
		t.Fatal(err)
	}
	p.Creds = creds
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := a.ReadHostFile("/f")
	if string(got) != "x" {
		t.Errorf("installed = %q", got)
	}
}

func TestBusyAgentRejectsSecondUpdate(t *testing.T) {
	a := NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
	a.BusyWait = 0 // reject immediately rather than waiting (set before Listen)
	if _, err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	// Hold the agent busy by marking it directly.
	if !a.lock() {
		t.Fatal("could not take agent lock")
	}
	defer a.unlock()
	p := &Push{Addr: a.Addr().String(), Target: "/t", Bundle: NewBundle([]byte("d")), Timeout: time.Second}
	if err := p.Run(); err != mrerr.UpdBusy {
		t.Errorf("busy err = %v", err)
	}
}

// rawSession speaks the update protocol directly: it sends the requests
// in order on one connection and returns the agent's reply codes.
func rawSession(t *testing.T, addr string, reqs ...*protocol.Request) []mrerr.Code {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	var codes []mrerr.Code
	for _, req := range reqs {
		if err := protocol.WriteRequest(bw, req); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		rep, err := protocol.ReadReply(br)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Version != protocol.Version {
			t.Errorf("reply to op %d stamped v%d, want v%d", req.Op, rep.Version, protocol.Version)
		}
		codes = append(codes, mrerr.Code(rep.Code))
	}
	return codes
}

func TestReadWriteHostFilePathSafety(t *testing.T) {
	a := NewAgent("H", t.TempDir(), nil)
	if err := a.WriteHostFile("/sub/dir/file", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadHostFile("/../../etc/passwd"); err == nil {
		// The join may still land inside root after cleaning; verify the
		// resolved path is inside.
		fp, _ := a.HostPath("/../../etc/passwd")
		if !filepath.HasPrefix(fp, a.Root) {
			t.Error("path escaped the agent root")
		}
	}
}

// Property: any file set survives the tar round trip intact.
func TestPropertyTarRoundTrip(t *testing.T) {
	f := func(names []string, bodies [][]byte) bool {
		files := map[string][]byte{}
		for i, n := range names {
			if n == "" || len(n) > 100 || strings.ContainsAny(n, "/\x00") {
				continue
			}
			var body []byte
			if i < len(bodies) {
				body = bodies[i]
			}
			files[n] = body
		}
		archive, err := BuildTar(files)
		if err != nil {
			return false
		}
		if len(tarNames(t, archive)) != len(files) {
			return false
		}
		for n, want := range files {
			got, err := ExtractMember(archive, n)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
