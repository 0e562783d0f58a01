package update

import (
	"bufio"
	"net"
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
