package client

import (
	"sync/atomic"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// TestClientTransparentReconnect: a server that hangs up after every
// reply tears the connection under an idle client; the next idempotent
// call redials transparently instead of surfacing MR_ABORTED.
func TestClientTransparentReconnect(t *testing.T) {
	var served atomic.Int32
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		served.Add(1)
		reply(&protocol.Reply{Version: req.Version, Code: int32(mrerr.Success)})
		return false // close after each reply
	})
	fake := clock.NewFake(time.Unix(600000000, 0))
	c, err := DialTimeout(addr, time.Second, fake)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()

	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	// The server has closed the connection; this call trips MR_ABORTED
	// internally and retries over a fresh dial.
	if err := c.Noop(); err != nil {
		t.Errorf("noop over torn connection = %v, want transparent retry", err)
	}
	if n := c.Reconnects(); n != 1 {
		t.Errorf("reconnects = %d, want 1", n)
	}
	// The torn call was resent exactly once, on the fresh connection.
	if n := served.Load(); n != 2 {
		t.Errorf("server answered %d requests, want 2 (first noop + one resend)", n)
	}
	// The backoff waited on the client's clock, not the wall clock.
	if fake.Slept() < ReconnectDelay {
		t.Errorf("backoff slept %v of virtual time, want >= %v", fake.Slept(), ReconnectDelay)
	}
}

// TestClientNoReconnectForUpdates: a mutating query must never be
// resent — the server may have applied it before the connection died.
func TestClientNoReconnectForUpdates(t *testing.T) {
	var calls atomic.Int32
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		if req.Op == protocol.OpQuery {
			calls.Add(1)
			return false // die without replying
		}
		reply(&protocol.Reply{Version: req.Version, Code: int32(mrerr.Success)})
		return true
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()

	err = c.Query("add_machine", []string{"NEWHOST.MIT.EDU", "VAX"}, nil)
	if err != mrerr.MrAborted {
		t.Errorf("mutating query on dying server = %v, want MR_ABORTED", err)
	}
	if n := c.Reconnects(); n != 0 {
		t.Errorf("reconnects = %d, want 0 for a mutating query", n)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d query attempts, want exactly 1", n)
	}
}

// TestClientNoReconnectWhenAuthed: redialing would silently drop the
// session's principal, so an authenticated client surfaces the abort.
func TestClientNoReconnectWhenAuthed(t *testing.T) {
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		reply(&protocol.Reply{Version: req.Version, Code: int32(mrerr.Success)})
		return false
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.authed = true // as if Auth had succeeded on this connection
	c.mu.Unlock()

	if err := c.Noop(); err != mrerr.MrAborted {
		t.Errorf("noop on torn authed connection = %v, want MR_ABORTED", err)
	}
	if n := c.Reconnects(); n != 0 {
		t.Errorf("reconnects = %d, want 0 when authenticated", n)
	}
}

// TestClientCallTimeout: with a per-call timeout set, a stalled server
// surfaces MR_CONN_TIMEOUT quickly — and the call is NOT retried, since
// the server may still be processing it.
func TestClientCallTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		<-release // stall: never reply while the test is measuring
		return false
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	c.SetCallTimeout(150 * time.Millisecond)

	start := time.Now()
	err = c.Noop()
	elapsed := time.Since(start)
	if err != mrerr.MrConnTimeout {
		t.Errorf("stalled call err = %v, want MR_CONN_TIMEOUT", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("stalled call took %v, want ~150ms", elapsed)
	}
	if n := c.Reconnects(); n != 0 {
		t.Errorf("reconnects = %d, want 0 on timeout", n)
	}
}
