package server

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moira/internal/client"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
)

// The lifecycle tests need query handles with controllable behaviour.
// Registration is global and permanent, so it happens once per test
// binary.
var registerLifecycleHandles sync.Once

// heldGate is the _test_held handle's handshake: the handler signals on
// in and blocks until release is closed, so a test knows its request is
// in flight without sleeping.
type heldGate struct{ in, release chan struct{} }

var gate atomic.Pointer[heldGate]

// holdRequests arms a fresh gate for the next _test_held request.
func holdRequests() *heldGate {
	g := &heldGate{in: make(chan struct{}, 1), release: make(chan struct{})}
	gate.Store(g)
	return g
}

func lifecycleHandles() {
	registerLifecycleHandles.Do(func() {
		queries.Register(&queries.Query{
			Name: "_test_held", Short: "_thl", Rows: queries.Columns("result"), Access: queries.Anyone,
			Do: func(r *queries.Req) error {
				g := gate.Load()
				g.in <- struct{}{}
				<-g.release
				r.Row(protocol.Text("done"))
				return nil
			},
		})
		queries.Register(&queries.Query{
			Name: "_test_panic", Short: "_tpn", Rows: queries.Columns("result"), Access: queries.Anyone,
			Do: func(r *queries.Req) error {
				panic("deliberate test panic")
			},
		})
	})
}

// lifecycleRig is a minimal unauthenticated server: lifecycle behaviour
// does not involve Kerberos.
func lifecycleRig(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	lifecycleHandles()
	if cfg.DB == nil {
		cfg.DB = queries.NewBootstrappedDB(nil)
	}
	srv := New(cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr.String()
}

// closeWithin fails the test if Close does not return inside d.
func closeWithin(t *testing.T, srv *Server, d time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
		return time.Since(start)
	case <-time.After(d):
		t.Fatalf("Close did not return within %v", d)
		return 0
	}
}

// TestCloseReturnsWithIdleClient is the regression test for the
// shutdown hang: Close used to wait on the connection WaitGroup without
// ever closing accepted connections, so one idle client parked in
// ReadRequest blocked shutdown forever.
func TestCloseReturnsWithIdleClient(t *testing.T) {
	srv, addr := lifecycleRig(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	// A completed request guarantees the connection is registered and
	// sitting idle in the server's read loop.
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	closeWithin(t, srv, 3*time.Second)
}

// TestCloseDrainsInflightRequest: a request already executing when
// Close is called runs to completion and its reply is delivered, while
// Close still returns within the drain bound.
func TestCloseDrainsInflightRequest(t *testing.T) {
	srv, addr := lifecycleRig(t, Config{DrainTimeout: 5 * time.Second})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}

	type result struct {
		tuples [][]string
		err    error
	}
	res := make(chan result, 1)
	g := holdRequests()
	go func() {
		out, err := c.QueryAll("_test_held")
		res <- result{out, err}
	}()
	<-g.in

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	for !srv.ln.Closed() {
		runtime.Gosched()
	}
	close(g.release)
	r := <-res
	if r.err != nil {
		t.Errorf("in-flight query during drain failed: %v", r.err)
	}
	if len(r.tuples) != 1 || r.tuples[0][0] != "done" {
		t.Errorf("in-flight query tuples = %v", r.tuples)
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the drained request")
	}
	if n := srv.Registry().Counter("server.conns.forceclosed").Value(); n != 0 {
		t.Errorf("server.conns.forceclosed = %d, want 0", n)
	}
}

// TestCloseForceClosesStragglers: when an in-flight request outlives
// DrainTimeout, Close force-closes its connection, counts it, and still
// returns within a small multiple of the bound.
func TestCloseForceClosesStragglers(t *testing.T) {
	srv, addr := lifecycleRig(t, Config{DrainTimeout: 100 * time.Millisecond})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	g := holdRequests()
	defer close(g.release) // the straggler outlives Close
	go c.Query("_test_held", nil, nil)
	<-g.in

	elapsed := closeWithin(t, srv, 2*time.Second)
	if elapsed < 100*time.Millisecond {
		t.Errorf("Close returned in %v, before the drain bound", elapsed)
	}
	if n := srv.Registry().Counter("server.conns.forceclosed").Value(); n != 1 {
		t.Errorf("server.conns.forceclosed = %d, want 1", n)
	}
}

// TestMaxConnsShedsExcess: with MaxConns reached, a further connection
// is answered with MR_BUSY, closed, and counted in server.conns.shed;
// established clients keep working and a freed slot becomes usable.
func TestMaxConnsShedsExcess(t *testing.T) {
	srv, addr := lifecycleRig(t, Config{MaxConns: 2})
	defer srv.Close()

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Disconnect()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Disconnect()
	// Round trips guarantee both connections are tracked.
	if err := c1.Noop(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Noop(); err != nil {
		t.Fatal(err)
	}

	c3, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Disconnect()
	if err := c3.Noop(); err != mrerr.MrBusy {
		t.Errorf("over-capacity noop err = %v, want MR_BUSY", err)
	}
	if n := srv.Registry().Counter("server.conns.shed").Value(); n != 1 {
		t.Errorf("server.conns.shed = %d, want 1", n)
	}
	// Existing clients are unaffected.
	if err := c1.Noop(); err != nil {
		t.Errorf("established client after shed: %v", err)
	}
	// Freeing a slot readmits new clients.
	if err := c2.Disconnect(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		c4, err := client.Dial(addr)
		if err == nil {
			err = c4.Noop()
			c4.Disconnect()
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after disconnect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthProbeReportsShedAndDrain: the server's readiness probe
// fails while every connection slot is taken and once Close has begun,
// reading both from the listener.
func TestHealthProbeReportsShedAndDrain(t *testing.T) {
	srv, addr := lifecycleRig(t, Config{MaxConns: 1})
	if st := srv.HealthProbe(); !st.OK {
		t.Errorf("idle server probe = %+v", st)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	if st := srv.HealthProbe(); st.OK || !strings.HasPrefix(st.Detail, "at MaxConns") {
		t.Errorf("full server probe = %+v", st)
	}
	srv.Close()
	if st := srv.HealthProbe(); st.OK || !strings.HasPrefix(st.Detail, "draining") {
		t.Errorf("closed server probe = %+v", st)
	}
}

// TestPanicRecovery: a panicking query handler answers MR_INTERNAL on
// its own connection, bumps server.panics.recovered, and leaves the
// daemon serving — the process must not die with the request.
func TestPanicRecovery(t *testing.T) {
	srv, addr := lifecycleRig(t, Config{})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()

	if err := c.Query("_test_panic", nil, nil); err != mrerr.MrInternal {
		t.Errorf("panicking handle err = %v, want MR_INTERNAL", err)
	}
	// The same connection survives...
	if err := c.Noop(); err != nil {
		t.Errorf("noop on the panicked connection: %v", err)
	}
	// ...the daemon keeps serving new connections...
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Disconnect()
	if out, err := c2.QueryAll("get_value", "def_quota"); err != nil || len(out) != 1 {
		t.Errorf("query after panic: %v, %v", out, err)
	}
	// ...and the recovery is counted.
	if n := srv.Registry().Counter("server.panics.recovered").Value(); n != 1 {
		t.Errorf("server.panics.recovered = %d, want 1", n)
	}
}

// TestIdleTimeoutClosesConnection: a connection idle past IdleTimeout
// is dropped and counted; the client's next idempotent call reconnects
// transparently.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	srv, addr := lifecycleRig(t, Config{IdleTimeout: 150 * time.Millisecond})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for srv.Registry().Counter("server.conns.idleclosed").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never closed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Noop is idempotent: the client notices the torn connection and
	// transparently redials.
	if err := c.Noop(); err != nil {
		t.Errorf("noop after idle close: %v", err)
	}
	if n := c.Reconnects(); n != 1 {
		t.Errorf("client reconnects = %d, want 1", n)
	}
}
