package bench

// Process-level smoke tests: build the real binaries and drive them as a
// user would. These catch flag plumbing and stdio behaviour the
// package-level tests cannot.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain removes the directory the commands were built into, so a
// run leaves nothing behind.
func TestMain(m *testing.M) {
	code := m.Run()
	if builtTools.dir != "" {
		os.RemoveAll(builtTools.dir)
	}
	os.Exit(code)
}

// builtTools is the commands, compiled once per test binary run.
var builtTools struct {
	dir  string
	done bool
	err  error
}

func toolPath(t *testing.T, name string) string {
	t.Helper()
	if !builtTools.done {
		builtTools.done = true
		dir, err := os.MkdirTemp("", "moira-tools-*")
		if err != nil {
			builtTools.err = err
		} else {
			builtTools.dir = dir
			cmd := exec.Command("go", "build", "-o", dir,
				"./cmd/moirad", "./cmd/mrtest", "./cmd/mrbackup", "./cmd/mrrestore", "./cmd/mrfsck", "./cmd/tableg", "./cmd/dcm", "./cmd/moirastat")
			if out, err := cmd.CombinedOutput(); err != nil {
				builtTools.err = fmt.Errorf("go build: %v\n%s", err, out)
			}
		}
	}
	if builtTools.err != nil {
		t.Fatal(builtTools.err)
	}
	return filepath.Join(builtTools.dir, name)
}

// freePort grabs an ephemeral TCP port for the daemon.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestBinariesMoiradAndMrtest(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	addr := freePort(t)
	daemon := exec.Command(toolPath(t, "moirad"), "-addr", addr)
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	// Wait for the port to answer.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("moirad never came up")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// One-shot query through the real client binary.
	out, err := exec.Command(toolPath(t, "mrtest"),
		"-addr", addr, "-q", "_list_queries").CombinedOutput()
	if err != nil {
		t.Fatalf("mrtest: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "get_user_by_login | gubl") {
		t.Errorf("mrtest output missing query listing:\n%s", firstN(s, 400))
	}
	if !strings.Contains(s, "tuples)") {
		t.Errorf("mrtest output missing tuple count:\n%s", firstN(s, 400))
	}

	// The interactive REPL over a pipe.
	repl := exec.Command(toolPath(t, "mrtest"), "-addr", addr)
	repl.Stdin = strings.NewReader("noop\nquery get_value def_quota\nhelp gubl\nquit\n")
	out, err = repl.CombinedOutput()
	if err != nil {
		t.Fatalf("mrtest repl: %v\n%s", err, out)
	}
	s = string(out)
	for _, want := range []string{"ok", "300", "gubl get_user_by_login"} {
		if !strings.Contains(s, want) {
			t.Errorf("repl output missing %q:\n%s", want, firstN(s, 600))
		}
	}
}

// TestBinaryMrtestLoad drives the closed-loop load driver as a user
// would: a short pipelined run and a short batch run against a live
// moirad, with the JSON results checked for sane shape.
func TestBinaryMrtestLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	addr := freePort(t)
	daemon := exec.Command(toolPath(t, "moirad"), "-addr", addr)
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("moirad never came up")
		}
		time.Sleep(50 * time.Millisecond)
	}

	jsonPath := filepath.Join(t.TempDir(), "load.json")
	runs := [][]string{
		{"-load", "-load-conns", "2", "-load-inflight", "8",
			"-load-duration", "500ms", "-load-json", jsonPath},
		{"-load", "-load-conns", "1", "-load-inflight", "2", "-load-batch", "8",
			"-load-duration", "300ms"},
		{"-load", "-load-conns", "1", "-load-inflight", "1", "-load-duration", "300ms"},
	}
	for _, r := range runs {
		args := append([]string{"-addr", addr}, r...)
		out, err := exec.Command(toolPath(t, "mrtest"), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("mrtest %v: %v\n%s", r, err, out)
		}
		if !strings.Contains(string(out), "ops/sec") {
			t.Errorf("mrtest %v output missing throughput line:\n%s", r, firstN(string(out), 400))
		}
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Mode      string  `json:"mode"`
		Ops       int64   `json:"ops"`
		OpsPerSec float64 `json:"ops_per_sec"`
		Errors    int64   `json:"errors"`
	}
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("load JSON: %v\n%s", err, blob)
	}
	if res.Mode != "pipelined" || res.Ops <= 0 || res.OpsPerSec <= 0 || res.Errors != 0 {
		t.Errorf("load JSON looks wrong: %+v", res)
	}
}

func TestBinariesBackupRestoreCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "backup_1")
	out, err := exec.Command(toolPath(t, "mrbackup"),
		"-users", "200", "-out", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("mrbackup: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "TOTAL") {
		t.Errorf("mrbackup output:\n%s", firstN(string(out), 400))
	}
	out, err = exec.Command(toolPath(t, "mrrestore"),
		"-in", dir, "-yes").CombinedOutput()
	if err != nil {
		t.Fatalf("mrrestore: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "restore complete") {
		t.Errorf("mrrestore output:\n%s", firstN(string(out), 400))
	}

	// The backup carries a manifest, so mrfsck can verify and check it.
	out, err = exec.Command(toolPath(t, "mrfsck"), "-in", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("mrfsck: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "mrfsck: clean") {
		t.Errorf("mrfsck output:\n%s", firstN(string(out), 400))
	}
}

// TestBinaryMoiradDataDir boots moirad on a durable data directory — a
// standalone cluster node — sends a write as its first request, kills
// it, and checks mrfsck recovers the same directory cleanly.
func TestBinaryMoiradDataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	dataDir := filepath.Join(t.TempDir(), "moira-data")
	addr := freePort(t)
	daemon := exec.Command(toolPath(t, "moirad"), "-addr", addr, "-data-dir", dataDir)
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("moirad -data-dir never came up")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The node is its own primary before its client port opens: an
	// unauthenticated write bounces off the access check, never off a
	// read-only gate.
	out, err := exec.Command(toolPath(t, "mrtest"),
		"-addr", addr, "-q", "add_machine", "first.mit.edu", "VAX").CombinedOutput()
	if err == nil {
		t.Fatalf("unauthenticated write succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "permission") || strings.Contains(string(out), "read-only") {
		t.Errorf("first write on a standalone node (want the access refusal):\n%s", firstN(string(out), 400))
	}
	// Kill without warning: the data directory must recover.
	daemon.Process.Kill()
	daemon.Wait()

	out, err = exec.Command(toolPath(t, "mrfsck"), "-data-dir", dataDir).CombinedOutput()
	if err != nil {
		t.Fatalf("mrfsck -data-dir: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "mrfsck: clean") || !strings.Contains(s, "recovery:") {
		t.Errorf("mrfsck -data-dir output:\n%s", firstN(s, 400))
	}
}

func TestBinaryTableG(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	out, err := exec.Command(toolPath(t, "tableg"), "-users", "500").CombinedOutput()
	if err != nil {
		t.Fatalf("tableg: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"passwd.db", "credentials", "TOTAL", "paper totals: 59 files, 90 propagations"} {
		if !strings.Contains(s, want) {
			t.Errorf("tableg output missing %q:\n%s", want, firstN(s, 600))
		}
	}
}

func TestBinaryDCMCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	out, err := exec.Command(toolPath(t, "dcm"), "-check", "-users", "100").CombinedOutput()
	if err != nil {
		t.Fatalf("dcm -check: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"HESIOD", "check passed"} {
		if !strings.Contains(s, want) {
			t.Errorf("dcm -check output missing %q:\n%s", want, firstN(s, 600))
		}
	}
}

func TestBinaryDCMPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	out, err := exec.Command(toolPath(t, "dcm"), "-users", "100", "-passes", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("dcm: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "pass") || !strings.Contains(s, "added user") {
		t.Errorf("dcm output:\n%s", firstN(s, 600))
	}
	if !strings.Contains(s, "retries") || !strings.Contains(s, "push latency") {
		t.Errorf("dcm output missing parallel-pass stats:\n%s", firstN(s, 600))
	}
}

// TestBinaryMoirastatSmoke boots a demo moirad, drives a known script
// of queries through mrtest, and checks the moirastat binary reports
// counters exactly matching the script.
func TestBinaryMoirastatSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	addr := freePort(t)
	daemon := exec.Command(toolPath(t, "moirad"), "-addr", addr, "-trace-sample", "1")
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("moirad never came up")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The script: 2x _list_queries, 1x get_value, 1x failing query.
	script := [][]string{
		{"-q", "_list_queries"},
		{"-q", "_list_queries"},
		{"-q", "get_value", "def_quota"},
		{"-q", "no_such_query"},
	}
	for _, q := range script {
		args := append([]string{"-addr", addr}, q...)
		out, err := exec.Command(toolPath(t, "mrtest"), args...).CombinedOutput()
		if q[1] == "no_such_query" {
			if err == nil {
				t.Fatalf("bogus query succeeded:\n%s", out)
			}
		} else if err != nil {
			t.Fatalf("mrtest %v: %v\n%s", q, err, out)
		}
	}

	// The counters the script must have produced. Metrics are recorded
	// just after each reply is sent, so poll briefly for the last one.
	want := map[string]string{
		"server.requests.query":       "4",
		"server.handle._list_queries": "2",
		"server.handle.get_value":     "1",
		"server.handle.no_such_query": "1",
		"server.errors.650246":        "1", // MR_NO_HANDLE
		"server.sessions.active":      "1", // moirastat itself
	}
	deadline = time.Now().Add(10 * time.Second)
	var got map[string]string
	for {
		out, err := exec.Command(toolPath(t, "moirastat"), "-addr", addr).CombinedOutput()
		if err != nil {
			t.Fatalf("moirastat: %v\n%s", err, out)
		}
		got = parseMoirastat(string(out))
		match := true
		for name, v := range want {
			if got[name] != v {
				match = false
			}
		}
		if match {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never matched script: want %v\ngot %v", want, got)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, ok := got["server.latency.query"]; !ok {
		t.Errorf("moirastat output missing latency histogram: %v", got)
	}

	// The span dump surface answers too (the daemon keeps every trace).
	out, err := exec.Command(toolPath(t, "moirastat"), "-addr", addr, "-spans", "*").CombinedOutput()
	if err != nil {
		t.Fatalf("moirastat -spans: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "server.request [query _list_queries]") {
		t.Errorf("span dump missing script queries:\n%s", firstN(string(out), 600))
	}
}

// TestBinaryReplication boots a two-node -election pair and checks the
// operator-visible surface: moirastat -repl reports the roles and the
// follower's live upstream session, a comma-separated -addr list fails
// over past a dead address, and once the primary is gone the follower
// refuses mutations with MR_READONLY.
func TestBinaryReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	waitUp := func(name, addr string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				c.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never came up on %s", name, addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	repl := func(addr string) string {
		out, _ := exec.Command(toolPath(t, "moirastat"), "-addr", addr, "-repl").CombinedOutput()
		return string(out)
	}

	addrA, replA := freePort(t), freePort(t)
	addrB, replB := freePort(t), freePort(t)
	var nodes []*exec.Cmd
	for _, n := range [][]string{{addrA, "a", replA, replB}, {addrB, "b", replB, replA}} {
		cmd := exec.Command(toolPath(t, "moirad"), "-addr", n[0],
			"-data-dir", filepath.Join(t.TempDir(), n[1]), "-repl-listen", n[2], "-election", n[3])
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		nodes = append(nodes, cmd)
	}
	waitUp("node A", addrA)
	waitUp("node B", addrB)

	// Exactly one node wins the boot election; the other follows it
	// over a live session.
	var prim *exec.Cmd
	var primAddr, repAddr string
	deadline := time.Now().Add(20 * time.Second)
	for prim == nil {
		for i, addr := range []string{addrA, addrB} {
			if strings.Contains(repl(addr), "role: primary") {
				prim, primAddr, repAddr = nodes[i], addr, []string{addrB, addrA}[i]
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no node won the boot election")
		}
		time.Sleep(50 * time.Millisecond)
	}
	for {
		out := repl(repAddr)
		if strings.Contains(out, "role: replica") && strings.Contains(out, "upstream: connected") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reported a live session:\n%s", firstN(out, 400))
		}
		time.Sleep(50 * time.Millisecond)
	}
	if out := repl(primAddr); !strings.Contains(out, "subscribers: 1 tailing") {
		t.Errorf("primary -repl view:\n%s", firstN(out, 600))
	}

	// A dead first address in the -addr list fails over to the follower.
	dead := freePort(t)
	out, err := exec.Command(toolPath(t, "moirastat"),
		"-addr", dead+","+repAddr, "-repl").CombinedOutput()
	if err != nil {
		t.Fatalf("moirastat failover: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "role: replica") {
		t.Errorf("failover -repl view:\n%s", firstN(string(out), 400))
	}

	// With the primary gone, and before the follower's lease timeout
	// lets it stand for election, a mutation can chase no redirect: it
	// bounces off the follower's read-only gate.
	prim.Process.Kill()
	prim.Wait()
	out, err = exec.Command(toolPath(t, "mrtest"),
		"-addr", repAddr, "-q", "add_machine", "denied.mit.edu", "VAX").CombinedOutput()
	if err == nil {
		t.Fatalf("mutation on follower succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "read-only replica") {
		t.Errorf("mutation on follower error:\n%s", firstN(string(out), 400))
	}
}

// TestBinaryFailover boots a two-node election cluster, kill -9s the
// primary process, and watches the survivor self-promote; the revived
// old primary must come back as a read-only replica, and SIGUSR1 must
// force a promotion back. Write-path acceptance (acked-commit survival
// under storms) lives in the in-process chaos tests, which can run an
// authenticated client; here we assert the operator-visible surface.
func TestBinaryFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	waitUp := func(name, addr string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				c.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never came up on %s", name, addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	// role polls moirastat -repl until the node reports the wanted role.
	role := func(name, addr, want string, timeout time.Duration) string {
		t.Helper()
		deadline := time.Now().Add(timeout)
		var last string
		for {
			out, err := exec.Command(toolPath(t, "moirastat"), "-addr", addr, "-repl").CombinedOutput()
			if err == nil {
				last = string(out)
				if strings.Contains(last, "role: "+want) {
					return last
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached role %s:\n%s", name, want, firstN(last, 600))
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	addrA, replA := freePort(t), freePort(t)
	addrB, replB := freePort(t), freePort(t)
	dirA, dirB := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
	nodeArgs := func(addr, dir, repl, peer string) []string {
		return []string{"-addr", addr, "-data-dir", dir, "-repl-listen", repl,
			"-election", peer, "-lease-interval", "200ms", "-lease-timeout", "800ms"}
	}
	logDir := t.TempDir()
	logN := 0
	start := func(args []string) *exec.Cmd {
		t.Helper()
		cmd := exec.Command(toolPath(t, "moirad"), args...)
		logN++
		lf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("moirad-%d.log", logN)))
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stdout, cmd.Stderr = lf, lf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for i := 1; i <= logN; i++ {
			blob, _ := os.ReadFile(filepath.Join(logDir, fmt.Sprintf("moirad-%d.log", i)))
			t.Logf("moirad-%d.log:\n%s", i, blob)
		}
	})
	a := start(nodeArgs(addrA, dirA, replA, replB))
	defer func() {
		a.Process.Kill()
		a.Wait()
	}()
	b := start(nodeArgs(addrB, dirB, replB, replA))
	defer func() {
		b.Process.Kill()
		b.Wait()
	}()
	waitUp("node A", addrA)
	waitUp("node B", addrB)

	// Exactly one node wins the boot election; find out which.
	deadline := time.Now().Add(15 * time.Second)
	var primAddr, replAddr string
	var prim *exec.Cmd
	var primArgs []string
	for primAddr == "" {
		for _, n := range []struct {
			cmd  *exec.Cmd
			addr string
			args []string
		}{{a, addrA, nodeArgs(addrA, dirA, replA, replB)}, {b, addrB, nodeArgs(addrB, dirB, replB, replA)}} {
			out, err := exec.Command(toolPath(t, "moirastat"), "-addr", n.addr, "-repl").CombinedOutput()
			if err == nil && strings.Contains(string(out), "role: primary") {
				prim, primAddr, primArgs = n.cmd, n.addr, n.args
			} else {
				replAddr = n.addr
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no node won the boot election")
		}
	}
	role("follower", replAddr, "replica", 15*time.Second)

	// Wait until the follower's replication session is live and lease
	// heartbeats are flowing (renewals > 0). Killing the primary before
	// the pair has ever exchanged a lease is indistinguishable from a
	// partitioned cold boot, which the follower correctly refuses to
	// resolve by self-promotion.
	deadline = time.Now().Add(15 * time.Second)
	for {
		out, err := exec.Command(toolPath(t, "moirastat"), "-addr", replAddr, "-repl").CombinedOutput()
		if err == nil && !strings.Contains(string(out), "(0 renewals") &&
			strings.Contains(string(out), "renewals") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never saw a lease renewal:\n%s", firstN(string(out), 400))
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A mutation against the follower redirects to the primary (the v5
	// client chases MR_READONLY transparently) where it bounces off
	// authentication — not off the follower's read-only gate.
	out, err := exec.Command(toolPath(t, "mrtest"),
		"-addr", replAddr, "-q", "add_machine", "denied.mit.edu", "VAX").CombinedOutput()
	if err == nil {
		t.Fatalf("unauthenticated mutation via follower succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "permission") {
		t.Errorf("mutation via follower error (want the primary's auth refusal):\n%s", firstN(string(out), 400))
	}
	out, err = exec.Command(toolPath(t, "mrtest"), "-addr", replAddr, "-q", "_whois").CombinedOutput()
	if err != nil {
		t.Fatalf("_whois on follower: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), primAddr) {
		t.Errorf("follower _whois does not name primary %s:\n%s", primAddr, firstN(string(out), 400))
	}

	// kill -9 the primary: the survivor must self-promote.
	killedAt := time.Now()
	prim.Process.Kill()
	prim.Wait()
	role("survivor", replAddr, "primary", 15*time.Second)
	t.Logf("survivor promoted %v after kill -9", time.Since(killedAt))

	// Post-promotion the survivor is no longer read-only: the same
	// mutation now bounces off authentication, not MR_READONLY.
	out, _ = exec.Command(toolPath(t, "mrtest"),
		"-addr", replAddr, "-q", "add_machine", "denied.mit.edu", "VAX").CombinedOutput()
	if strings.Contains(string(out), "read-only") {
		t.Errorf("promoted survivor still claims read-only:\n%s", firstN(string(out), 400))
	}

	// Revive the dead primary from its data directory: it must rejoin
	// as a read-only replica of the survivor.
	revived := start(primArgs)
	defer func() {
		revived.Process.Kill()
		revived.Wait()
	}()
	waitUp("revived node", primAddr)
	role("revived node", primAddr, "replica", 20*time.Second)
	// Its redirect chain now points at the survivor: a mutation chases
	// there and bounces off authentication.
	out, err = exec.Command(toolPath(t, "mrtest"),
		"-addr", primAddr, "-q", "add_machine", "denied.mit.edu", "VAX").CombinedOutput()
	if err == nil {
		t.Fatalf("unauthenticated mutation via revived replica succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "permission") {
		t.Errorf("mutation via revived replica error (want the survivor's auth refusal):\n%s", firstN(string(out), 400))
	}

	// SIGUSR1 forces the revived replica back into the primary role and
	// deposes the survivor.
	if err := revived.Process.Signal(syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	role("revived node", primAddr, "primary", 15*time.Second)
	role("deposed survivor", replAddr, "replica", 20*time.Second)
}

// parseMoirastat extracts "name value..." pairs from moirastat's
// grouped output.
func parseMoirastat(s string) map[string]string {
	m := make(map[string]string)
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && strings.Contains(f[0], ".") {
			m[f[0]] = f[1]
		}
	}
	return m
}

func firstN(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
