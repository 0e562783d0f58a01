package update

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
	names, err := ListTar(archive)
	if err != nil {
		t.Fatal(err)
	}
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

// rig creates an agent on a temp root plus a Push preconfigured for it.
func rig(t *testing.T) (*Agent, func(files map[string][]byte, script []string) error) {
	t.Helper()
	a := NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	push := func(files map[string][]byte, script []string) error {
		data, err := BuildTar(files)
		if err != nil {
			t.Fatal(err)
		}
		p := &Push{Addr: addr.String(), Target: "/tmp/hesiod.out", Data: data,
			Script: script, Timeout: 5 * time.Second}
		return p.Run()
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
	a.RegisterCommand("restart_hesiod", func(ag *Agent, args []string) error {
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
	a.RegisterCommand("fail", func(*Agent, []string) error { return mrerr.MrInternal })
	if err := push(map[string][]byte{}, []string{"exec fail"}); err != mrerr.UpdScriptError {
		t.Errorf("failing exec err = %v", err)
	}
}

// TestChecksumMismatch covers both integrity checks of the transfer: a
// chunk whose bytes do not match its manifest sum is refused on arrival,
// and a file whose chunks are all good but whose whole-file sum is not
// is refused at assembly — neither leaves anything staged.
func TestChecksumMismatch(t *testing.T) {
	a := NewAgent("H", t.TempDir(), nil)
	addr, _ := a.Listen("127.0.0.1:0")
	defer a.Close()
	data := []byte("data")
	p := &Push{Addr: addr.String(), Target: "/t", Data: data,
		Script: []string{}, Timeout: 2 * time.Second}
	if err := p.Run(); err != nil {
		t.Fatalf("control push failed: %v", err)
	}

	fresh := []byte("DATA")
	manifest := EncodeManifest(SplitChunks(fresh))
	sum := sha256.Sum256(fresh)
	goodSum := []byte(hex.EncodeToString(sum[:]))
	req := func(op uint16, args ...[]byte) *protocol.Request {
		return &protocol.Request{Version: protocol.Version, Op: op, Args: args}
	}

	codes := rawSession(t, addr.String(),
		req(OpUManifest, []byte("/t"), goodSum, manifest),
		req(OpUChunks, []byte("0"), []byte("DATa")),
		req(OpUAssemble))
	if codes[0] != mrerr.Success || codes[1] != mrerr.UpdChecksum || codes[2] != mrerr.UpdChecksum {
		t.Errorf("bad chunk sum: codes = %v", codes)
	}

	codes = rawSession(t, addr.String(),
		req(OpUManifest, []byte("/t"), []byte(strings64()), manifest),
		req(OpUChunks, []byte("0"), fresh),
		req(OpUAssemble))
	if codes[0] != mrerr.Success || codes[1] != mrerr.Success || codes[2] != mrerr.UpdChecksum {
		t.Errorf("bad whole-file sum: codes = %v", codes)
	}

	if got, _ := a.ReadHostFile("/t"); !bytes.Equal(got, data) {
		t.Errorf("refused transfer overwrote the target: %q", got)
	}
}

// TestUnassignedOpRefused: op 21 carried the whole-file transfer before
// the chunk manifest became the only transport; an agent answers it, as
// any op it does not implement, with MR_UNKNOWN_PROC.
func TestUnassignedOpRefused(t *testing.T) {
	a := NewAgent("H", t.TempDir(), nil)
	addr, _ := a.Listen("127.0.0.1:0")
	defer a.Close()
	codes := rawSession(t, addr.String(), &protocol.Request{
		Version: protocol.Version, Op: 21,
		Args: [][]byte{[]byte("/t"), []byte(strings64()), []byte("x")}})
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

func TestUnreachableHost(t *testing.T) {
	p := &Push{Addr: "127.0.0.1:1", Target: "/t", Data: nil, Timeout: time.Second}
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

func TestStaleUpdateFileCleaned(t *testing.T) {
	a, push := rig(t)
	// Simulate a crashed previous run leaving an incomplete staging file
	// next to the target.
	if err := a.WriteHostFile("/tmp/hesiod.out"+updateSuffix, []byte("partial")); err != nil {
		t.Fatal(err)
	}
	if err := push(map[string][]byte{"f": []byte("x")}, []string{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadHostFile("/tmp/hesiod.out" + updateSuffix); !os.IsNotExist(err) {
		t.Errorf("stale staging file survived: %v", err)
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
	p := &Push{Addr: addr.String(), Target: "/t", Data: data,
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
	p := &Push{Addr: a.Addr().String(), Target: "/t", Data: []byte("d"), Timeout: time.Second}
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
		fp, _ := a.path("/../../etc/passwd")
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
		listed, err := ListTar(archive)
		if err != nil || len(listed) != len(files) {
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
