package update

import (
	"bufio"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// authRoundTrip performs one OpUAuth exchange on a raw connection so
// the test knows the agent has accepted, tracked, and parked the
// connection in its read loop.
func authRoundTrip(t *testing.T, conn net.Conn) {
	t.Helper()
	bw := bufio.NewWriter(conn)
	err := protocol.WriteRequest(bw, &protocol.Request{Version: protocol.Version, Op: OpUAuth})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	rep, err := protocol.ReadReply(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != int32(mrerr.Success) {
		t.Fatalf("auth code = %d", rep.Code)
	}
}

// TestAgentCloseReturnsWithIdleConn is the regression test for the
// agent-side shutdown hang: with ReadTimeout zero a connected DCM that
// never sends another frame used to park serve() in ReadRequest
// forever, and Close blocked on the WaitGroup behind it.
func TestAgentCloseReturnsWithIdleConn(t *testing.T) {
	a := NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
	a.ReadTimeout = 0
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	authRoundTrip(t, conn)

	done := make(chan struct{})
	go func() {
		a.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Agent.Close did not return with an idle connection held open")
	}
}

// heldAgent returns a listening agent whose crash hook holds a push in
// flight at its last request: the hook signals on in and blocks until
// release is closed, so a test knows the push is in flight without
// sleeping.
func heldAgent(t *testing.T, drain, busyWait time.Duration) (a *Agent, in, release chan struct{}) {
	t.Helper()
	a = NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
	a.DrainTimeout, a.BusyWait = drain, busyWait
	in, release = make(chan struct{}, 1), make(chan struct{})
	a.SetCrashPoint(func(stage string) bool {
		if stage == "before-execute" {
			in <- struct{}{}
			<-release
		}
		return false
	})
	if _, err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return a, in, release
}

// startPush runs one push to a in the background.
func startPush(t *testing.T, a *Agent) <-chan error {
	t.Helper()
	data, err := BuildTar(map[string][]byte{"f": []byte("data")})
	if err != nil {
		t.Fatal(err)
	}
	p := &Push{Addr: a.Addr().String(), Target: "/t", Bundle: NewBundle(data),
		Script: []string{"extract f /d", "install /d"}, Timeout: time.Minute}
	done := make(chan error, 1)
	go func() { done <- p.Run() }()
	return done
}

// startClose begins a.Close in the background and returns once it has
// begun.
func startClose(a *Agent) <-chan struct{} {
	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	waitUntil(a.ln.Closed)
	return closed
}

// waitUntil spins until cond holds, or ten seconds pass.
func waitUntil(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestAgentCloseDrainsInflightPush: an update request executing when
// Close begins finishes and its reply is delivered, so the push
// succeeds; Close then returns without force-closing anything.
func TestAgentCloseDrainsInflightPush(t *testing.T) {
	a, in, release := heldAgent(t, time.Hour, 0)
	pushed := startPush(t, a)
	<-in
	closed := startClose(a)
	close(release)
	if err := <-pushed; err != nil {
		t.Errorf("push in flight during drain: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Agent.Close did not return after the drained push")
	}
	if got, err := a.ReadHostFile("/d"); err != nil || string(got) != "data" {
		t.Errorf("drained push extracted %q, %v", got, err)
	}
	if n := a.Registry().Counter("update.conns.forceclosed").Value(); n != 0 {
		t.Errorf("update.conns.forceclosed = %d, want 0", n)
	}
}

// TestAgentCloseForceClosesStraggler: an update still executing when
// DrainTimeout passes has its connection force-closed and counted in
// update.conns.forceclosed, and Close returns without it.
func TestAgentCloseForceClosesStraggler(t *testing.T) {
	a, in, release := heldAgent(t, 20*time.Millisecond, 0)
	pushed := startPush(t, a)
	<-in
	closed := startClose(a)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Agent.Close waited for a straggler")
	}
	close(release)
	if err := <-pushed; err == nil {
		t.Error("force-closed push succeeded")
	}
	a.Close() // waits for the straggler's goroutine
	if n := a.Registry().Counter("update.conns.forceclosed").Value(); n != 1 {
		t.Errorf("update.conns.forceclosed = %d, want 1", n)
	}
}

// TestAgentCloseReleasesQueuedPush: a push queued for the host lock
// behind one in flight leaves as soon as Close begins, rather than
// holding Close until the lock frees or BusyWait (an hour here) runs
// out; the push in flight still drains.
func TestAgentCloseReleasesQueuedPush(t *testing.T) {
	a, in, release := heldAgent(t, time.Hour, time.Hour)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	pushed := startPush(t, a)
	<-in
	queued, err := net.Dial("tcp", a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	if !waitUntil(func() bool { return a.ln.Conns() == 2 }) {
		t.Fatalf("agent serves %d connections, want the held and the queued push", a.ln.Conns())
	}

	closed := startClose(a)
	if !waitUntil(func() bool { return a.ln.Conns() == 1 }) {
		t.Fatalf("agent still serves %d connections after Close began, want only the held push", a.ln.Conns())
	}
	close(release)
	if err := <-pushed; err != nil {
		t.Errorf("held push: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Agent.Close did not return after the held push")
	}
	if n := a.Registry().Counter("update.conns.busy").Value(); n != 0 {
		t.Errorf("update.conns.busy = %d: the queued push was counted busy at shutdown", n)
	}
}

// TestAgentLatencyVirtualClock: SetLatency waits on the agent's clock,
// so under a fake clock an hour of injected service delay elapses
// virtually and the push completes in real milliseconds.
func TestAgentLatencyVirtualClock(t *testing.T) {
	a, push := rig(t)
	fake := clock.NewFake(time.Unix(600000000, 0))
	a.Clock = fake
	a.SetLatency(time.Hour)

	start := time.Now()
	err := push(map[string][]byte{"f": []byte("x")}, []string{"extract f /f", "install /f"})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Errorf("push with virtual latency took %v of real time", wall)
	}
	if slept := fake.Slept(); slept < time.Hour {
		t.Errorf("virtual time slept = %v, want >= 1h", slept)
	}
}

// TestAgentPanicRecovery: a panicking exec handler answers MR_INTERNAL,
// is counted, and leaves the agent able to take the next update.
func TestAgentPanicRecovery(t *testing.T) {
	a, push := rig(t)
	a.RegisterCommand("boom", func(*Agent, *Install, []string) error {
		panic("deliberate test panic")
	})

	err := push(map[string][]byte{"f": []byte("x")}, []string{"exec boom"})
	if err != mrerr.MrInternal {
		t.Errorf("panicking script err = %v, want MR_INTERNAL", err)
	}
	// The agent survives and installs the next update normally.
	err = push(map[string][]byte{"f": []byte("ok")}, []string{"extract f /f", "install /f"})
	if err != nil {
		t.Errorf("push after panic: %v", err)
	}
	if got, err := a.ReadHostFile("/f"); err != nil || string(got) != "ok" {
		t.Errorf("installed after panic = %q, %v", got, err)
	}
	if n := a.Registry().Counter("update.panics.recovered").Value(); n != 1 {
		t.Errorf("update.panics.recovered = %d, want 1", n)
	}
}

// TestAgentHealthProbeReportsDrain: the agent's readiness probe passes
// while it serves and fails once Close has begun.
func TestAgentHealthProbeReportsDrain(t *testing.T) {
	a := NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
	if _, err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if st := a.HealthProbe(); !st.OK || st.Name != "agent" {
		t.Errorf("serving agent probe = %+v", st)
	}
	a.Close()
	if st := a.HealthProbe(); st.OK || !strings.HasPrefix(st.Detail, "draining") {
		t.Errorf("closed agent probe = %+v", st)
	}
}
