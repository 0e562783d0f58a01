package protocol

import (
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"moira/internal/stats"
)

// stubServe is a one-byte request/reply serve function. A request 'h'
// is held in flight: the handler signals on inflight and blocks until
// release is closed. A request 's' is a straggler: the handler signals
// and then waits on its connection, which only a force-close ends. Any
// other request is answered at once. Every request is answered with
// '.', and served counts the connections the function was given.
type stubServe struct {
	inflight chan struct{}
	release  chan struct{}
	served   atomic.Int64
}

func newStub() *stubServe {
	return &stubServe{inflight: make(chan struct{}, 1), release: make(chan struct{})}
}

func (s *stubServe) serve(c *Conn) {
	s.served.Add(1)
	buf := make([]byte, 1)
	for !c.Idle() {
		if _, err := c.Read(buf); err != nil {
			return
		}
		c.Begin()
		switch buf[0] {
		case 'h':
			s.inflight <- struct{}{}
			<-s.release
		case 's':
			s.inflight <- struct{}{}
			c.Read(buf)
			return
		}
		if _, err := c.Write([]byte{'.'}); err != nil {
			return
		}
	}
}

// listen starts l on a loopback port with the stub and returns a
// client connection that has completed one round trip, so the listener
// is serving it and it sits idle between requests.
func listen(t *testing.T, l *Listener, s *stubServe) net.Conn {
	t.Helper()
	addr, err := l.Listen("127.0.0.1:0", s.serve)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	roundTrip(t, c, 'n')
	return c
}

// roundTrip sends one request and reads its reply.
func roundTrip(t *testing.T, c net.Conn, req byte) {
	t.Helper()
	if _, err := c.Write([]byte{req}); err != nil {
		t.Fatal(err)
	}
	readReply(t, c)
}

func readReply(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil || buf[0] != '.' {
		t.Fatalf("reply = %q, %v", buf, err)
	}
}

// expectEOF checks that the listener has closed the client's connection.
func expectEOF(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := c.Read(make([]byte, 1)); err == nil {
		t.Errorf("read %d bytes from a connection Close should have closed", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Error("connection still open after Close")
	}
}

// closeAsync starts Close and returns once it has begun.
func closeAsync(l *Listener) <-chan error {
	done := make(chan error, 1)
	go func() { done <- l.Close() }()
	for !l.Closed() {
		runtime.Gosched()
	}
	return done
}

// waitClose fails the test unless Close returns within a bound far
// below the listener's drain bound.
func waitClose(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestListenerClosesIdleConnAtOnce: a connection between requests is
// closed as soon as Close begins; with an hour's drain bound, Close
// returns without waiting for it.
func TestListenerClosesIdleConnAtOnce(t *testing.T) {
	l, s := NewListener(), newStub()
	l.Drain = time.Hour
	l.ForceClosed = new(stats.Counter)
	c := listen(t, l, s)

	waitClose(t, closeAsync(l))
	expectEOF(t, c)
	if n := l.ForceClosed.Value(); n != 0 {
		t.Errorf("force-closed %d connections, want 0", n)
	}
	if n := l.Conns(); n != 0 {
		t.Errorf("%d connections left after Close", n)
	}
}

// TestListenerDrainsInflightRequest: a request in flight when Close
// begins runs to completion and its reply is delivered; then the
// connection is closed and Close returns, nothing force-closed.
func TestListenerDrainsInflightRequest(t *testing.T) {
	l, s := NewListener(), newStub()
	l.Drain = time.Hour
	l.ForceClosed = new(stats.Counter)
	c := listen(t, l, s)
	if _, err := c.Write([]byte{'h'}); err != nil {
		t.Fatal(err)
	}
	<-s.inflight

	done := closeAsync(l)
	if n := l.Conns(); n != 1 {
		t.Errorf("in-flight connection dropped from the count: %d", n)
	}
	close(s.release)
	readReply(t, c)
	waitClose(t, done)
	expectEOF(t, c)
	if n := l.ForceClosed.Value(); n != 0 {
		t.Errorf("force-closed %d connections, want 0", n)
	}
}

// TestListenerForceClosesStraggler: a request still in flight when the
// drain bound passes has its connection force-closed, counted exactly
// once, and Close returns.
func TestListenerForceClosesStraggler(t *testing.T) {
	l, s := NewListener(), newStub()
	l.Drain = 20 * time.Millisecond
	l.ForceClosed = new(stats.Counter)
	c := listen(t, l, s)
	if _, err := c.Write([]byte{'s'}); err != nil {
		t.Fatal(err)
	}
	<-s.inflight

	start := time.Now()
	waitClose(t, closeAsync(l))
	if elapsed := time.Since(start); elapsed < l.Drain {
		t.Errorf("Close returned in %v, before the drain bound", elapsed)
	}
	expectEOF(t, c)
	l.Close()
	if n := l.ForceClosed.Value(); n != 1 {
		t.Errorf("force-closed %d connections, want 1", n)
	}
	if n := l.Conns(); n != 0 {
		t.Errorf("%d connections left after Close", n)
	}
}

// TestListenerRefusesAfterClose: once Close has returned, a new
// connection is never served and the listener cannot be bound again.
func TestListenerRefusesAfterClose(t *testing.T) {
	l, s := NewListener(), newStub()
	addr, err := l.Listen("127.0.0.1:0", s.serve)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.Dial("tcp", addr.String()); err == nil {
		expectEOF(t, c)
		c.Close()
	}
	if n := s.served.Load(); n != 0 {
		t.Errorf("served %d connections after Close", n)
	}
	if _, err := l.Listen("127.0.0.1:0", s.serve); err == nil {
		t.Error("Listen after Close succeeded")
	}
}

// TestListenerCloseTwice: Close is safe before Listen, twice in a row,
// and from two goroutines at once.
func TestListenerCloseTwice(t *testing.T) {
	if err := NewListener().Close(); err != nil {
		t.Errorf("Close before Listen: %v", err)
	}
	l, s := NewListener(), newStub()
	listen(t, l, s)
	first, second := closeAsync(l), closeAsync(l)
	waitClose(t, first)
	waitClose(t, second)
	if err := l.Close(); err != nil {
		t.Errorf("third Close: %v", err)
	}
}

// TestConnBookkeepingAllocatesNothing: marking a request in flight and
// back, which every request of both daemons does, allocates nothing.
func TestConnBookkeepingAllocatesNothing(t *testing.T) {
	c := &Conn{l: NewListener()}
	if n := testing.AllocsPerRun(100, func() {
		if !c.Idle() {
			c.Begin()
		}
	}); n != 0 {
		t.Errorf("Idle+Begin: %v allocations, want 0", n)
	}
}
