package protocol

import (
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"moira/internal/stats"
)

// DefaultDrainTimeout is how long Listener.Close waits for in-flight
// requests when the listener's Drain is zero.
const DefaultDrainTimeout = 5 * time.Second

// Listener is the connection lifecycle the Moira server and the update
// agents share (section 5.9's "timeouts on both sides"): it accepts
// connections, serves each in its own goroutine, and on Close stops
// accepting, closes the connections that are between requests at once,
// lets in-flight requests finish up to Drain, then force-closes the
// rest. The fields are set before Listen.
type Listener struct {
	// Drain bounds how long Close waits for in-flight requests before
	// force-closing their connections. Zero means DefaultDrainTimeout.
	Drain time.Duration

	// ForceClosed counts the connections Close force-closes; nil counts
	// nowhere.
	ForceClosed *stats.Counter

	// Max caps the connections served at once; zero means no cap. A
	// connection past it is handed to Shed instead of the serve
	// function, in a goroutine Close waits for.
	Max  int
	Shed func(net.Conn)

	// Logf, when set, reports a Close that gave up on stragglers.
	Logf func(format string, args ...any)

	ln      net.Listener
	serve   func(*Conn)
	wg      sync.WaitGroup
	closed  atomic.Bool
	closing chan struct{}

	mu    sync.Mutex
	conns map[*Conn]struct{}
}

// Conn is an accepted connection and its in-flight flag: Close closes a
// connection between requests at once and drains one mid-request.
type Conn struct {
	net.Conn
	l    *Listener
	busy atomic.Bool
}

// Begin marks a request in flight.
func (c *Conn) Begin() { c.busy.Store(true) }

// Idle marks the connection between requests and reports whether Close
// has begun, in which case the serve function should return. Marking
// before looking is what makes Close's check race-free: either Close
// sees the connection idle and closes it, or Idle sees Close.
func (c *Conn) Idle() bool {
	c.busy.Store(false)
	return c.l.closed.Load()
}

// NewListener returns a listener that is not yet bound.
func NewListener() *Listener {
	return &Listener{closing: make(chan struct{}), conns: make(map[*Conn]struct{})}
}

// Listen binds addr (e.g. "127.0.0.1:0") and serves every accepted
// connection with serve in the background; the listener closes the
// connection when serve returns. It returns the bound address.
func (l *Listener) Listen(addr string, serve func(*Conn)) (net.Addr, error) {
	if l.closed.Load() {
		return nil, net.ErrClosed
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l.ln, l.serve = ln, serve
	l.wg.Add(1)
	go l.accept()
	return ln.Addr(), nil
}

// Addr returns the bound address, or nil before Listen.
func (l *Listener) Addr() net.Addr {
	if l.ln == nil {
		return nil
	}
	return l.ln.Addr()
}

// Conns returns the number of connections being served.
func (l *Listener) Conns() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// State is the listener's part of a readiness probe: not ready once
// Close has begun, or while Max connections are served (new ones are
// being shed), with the connection count in the detail.
func (l *Listener) State() (ready bool, detail string) {
	n := l.Conns()
	detail = "conns=" + strconv.Itoa(n) + " max=" + strconv.Itoa(l.Max)
	switch {
	case l.Closed():
		return false, "draining; " + detail
	case l.Max > 0 && n >= l.Max:
		return false, "at MaxConns, shedding; " + detail
	}
	return true, detail
}

// Closed reports whether Close has begun.
func (l *Listener) Closed() bool { return l.closed.Load() }

// Draining returns a channel that is closed when Close begins, for a
// serve function waiting on something other than its connection.
func (l *Listener) Draining() <-chan struct{} { return l.closing }

func (l *Listener) accept() {
	defer l.wg.Done()
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.wg.Add(1)
		go l.handle(nc)
	}
}

// handle serves one accepted connection, sheds it past Max, or closes
// it at once if Close has begun.
func (l *Listener) handle(nc net.Conn) {
	defer l.wg.Done()
	defer nc.Close()
	l.mu.Lock()
	switch {
	case l.closed.Load():
		l.mu.Unlock()
		return
	case l.Max > 0 && len(l.conns) >= l.Max:
		l.mu.Unlock()
		l.Shed(nc)
		return
	}
	c := &Conn{Conn: nc, l: l}
	l.conns[c] = struct{}{}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.conns, c)
		l.mu.Unlock()
	}()
	l.serve(c)
}

// Close stops accepting and drains: connections between requests are
// closed at once, in-flight requests get up to Drain to finish and
// deliver their replies, and the connections still open after that are
// force-closed and counted. Close then waits one more Drain for their
// goroutines and returns regardless, so a handler wedged off-network
// cannot hold shutdown hostage. A second Close waits for the first.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closed.Store(true)
	close(l.closing)
	var err error
	if l.ln != nil {
		err = l.ln.Close()
	}
	for c := range l.conns {
		if !c.busy.Load() {
			c.Conn.Close()
		}
	}
	l.mu.Unlock()

	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	drain := l.Drain
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	select {
	case <-done:
		return err
	case <-time.After(drain):
	}
	l.mu.Lock()
	for c := range l.conns {
		c.Conn.Close()
		l.ForceClosed.Inc()
	}
	l.mu.Unlock()
	select {
	case <-done:
	case <-time.After(drain):
		if l.Logf != nil {
			l.Logf("close: connections still draining after force-close")
		}
	}
	return err
}
