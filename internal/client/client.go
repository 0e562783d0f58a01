// Package client is the Moira application library (section 5.6): the
// only supported way for an application to reach the database. It offers
// the documented calls — mr_connect, mr_auth, mr_disconnect, mr_noop,
// mr_access, mr_query — over the RPC protocol, and a "direct glue"
// variant (Direct) with the exact same interface that calls the query
// engine in-process for the DCM and other utilities running on the
// database host.
package client

import (
	"bufio"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"moira/internal/clock"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
	"moira/internal/trace"
)

// TupleFunc is the callback invoked for each returned tuple of a query
// (the callproc of mr_query).
//
// The slice is valid only during the callback: the RPC client reuses it
// for the next tuple on the connection, so a callback that keeps a
// tuple keeps a copy of the slice (as QueryAll does). The strings in it
// may be kept: each tuple's fields are substrings of one string holding
// that tuple alone, so a kept field pins only its own tuple's bytes.
type TupleFunc func(tuple []string) error

// Conn is the interface shared by the RPC client and the direct glue
// library; application code and the DCM are written against it.
type Conn interface {
	// Noop does a handshake with the server, for testing and performance
	// measurement.
	Noop() error
	// Access checks whether the named query with the given arguments
	// would be allowed, without running it.
	Access(name string, args []string) error
	// Query runs the named query, invoking cb once per returned tuple.
	Query(name string, args []string, cb TupleFunc) error
	// Disconnect drops the connection.
	Disconnect() error
}

// Client is an RPC connection to a Moira server. It is safe for
// concurrent use, and goroutines that share a Client pipeline their
// calls over its one connection: each call writes its request, tagged
// with its turn, and reads its own replies on its own goroutine when
// that turn comes. The server answers a connection's requests in the
// order it received them, so a turn counter is all the matching there
// is.
type Client struct {
	mu          sync.Mutex
	w           *wire      // the connection; a dead one until a redial replaces it
	dial        sync.Mutex // held across a redial or a redirect; taken before mu
	clk         clock.Clock
	trace       string        // pinned trace ID; "" mints a fresh one per request
	last        string        // trace ID stamped on the most recent request
	addr        string        // dialed address, for transparent reconnect
	fallbacks   []string      // read-failover rotation tried after addr
	cur         int           // index into the rotation of the live connection
	dialTimeout time.Duration // timeout used for Dial and reconnects
	callTimeout time.Duration // per-round-trip I/O deadline; 0 = none
	authed      bool          // an Auth succeeded on this connection
	reconnects  int           // transparent reconnects performed
	failovers   int           // reconnects that landed on a fallback address
	tracer      *trace.Tracer // optional: records a client.call span per round trip

	// Failover state: the commit-position token of this client's
	// latest acknowledged write (attached to retrieval requests for
	// read-your-writes), a bounded per-address circuit breaker for
	// redirect dials, and the credentials replayed after a redial.
	lastToken string
	breaker   map[string]time.Time
	redirects int
	creds     *kerberos.Credentials
	credsApp  string
}

// wire is one TCP connection and its turn counter: the call that wrote
// the n-th request on it reads the n-th reply stream.
type wire struct {
	conn  net.Conn
	fr    *protocol.FrameReader // replies; reuses one buffer per connection
	tuple []string              // reused for every tuple passed to a TupleFunc

	wmu    sync.Mutex // held while a request goes into bw, or bw is flushed
	bw     *bufio.Writer
	handed atomic.Int64 // bytes bw has passed to conn.Write, counted before the call

	// Guarded by Client.mu.
	sent, done uint64   // turns taken / reply streams read to their end
	parked     []parked // calls waiting for their turn, in no order
	err        error    // why the connection died; nil while it serves
	final      bool     // no redial will replace it: one failed, or Disconnect
	retired    bool     // a redirect replaced it; it closes once idle
}

// parked is a call waiting on a wire until done reaches its turn or the
// wire dies; wake gets one value for either.
type parked struct {
	turn uint64
	wake chan struct{}
}

// wakes recycles parked calls' channels (buffered, one value each).
var wakes = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// next wakes the call whose turn w.done now is, if it is parked. Only
// that call can go on, so no other is woken. Caller holds Client.mu.
func (w *wire) next() {
	for i, p := range w.parked {
		if p.turn == w.done {
			last := len(w.parked) - 1
			w.parked[i] = w.parked[last]
			w.parked = w.parked[:last]
			p.wake <- struct{}{}
			return
		}
	}
}

func dialWire(addr string, timeout time.Duration) (*wire, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	w := &wire{conn: conn, fr: protocol.NewFrameReader(bufio.NewReader(conn))}
	w.bw = bufio.NewWriter(w)
	return w, nil
}

// Write is w's conn as bw sees it: it counts what it hands on before
// the write, so a reader can tell whether its request has left bw, even
// while a writer is blocked sending it.
func (w *wire) Write(p []byte) (int, error) {
	w.handed.Add(int64(len(p)))
	return w.conn.Write(p)
}

// MaxRedirects bounds the primary-chase per call: a request refused
// with MR_READONLY or MR_STALE plus a primary address is re-sent there
// at most this many times before the refusal surfaces to the caller.
const MaxRedirects = 3

// BreakerCooldown is how long a redirect target that failed to accept
// a connection is skipped before being dialed again.
const BreakerCooldown = 3 * time.Second

// ReconnectDelay is the backoff slept (through the client's clock)
// before the one transparent reconnect attempt.
const ReconnectDelay = 100 * time.Millisecond

// Dial implements mr_connect: it connects to the Moira server at addr.
// It does not authenticate — for simple read-only queries the overhead
// of authentication can be comparable to that of the query itself.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second, nil)
}

// DialTimeout is Dial with an explicit timeout and clock.
func DialTimeout(addr string, timeout time.Duration, clk clock.Clock) (*Client, error) {
	if clk == nil {
		clk = clock.System
	}
	w, err := dialWire(addr, timeout)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, mrerr.MrConnTimeout
		}
		return nil, mrerr.MrConnRefused
	}
	return &Client{w: w, clk: clk, addr: addr, dialTimeout: timeout}, nil
}

// SetReadFallbacks installs a read-failover address list: when an
// idempotent call dies on a torn connection, the transparent reconnect
// cycles through the primary address and then each fallback (typically
// read-only replicas) until one accepts. Mutating and authenticated
// calls never fail over — a replica would refuse them with MR_READONLY
// anyway, and the caller should hear that the primary is gone rather
// than have a write silently retried elsewhere.
func (c *Client) SetReadFallbacks(addrs ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fallbacks = append([]string(nil), addrs...)
}

// DialFailover connects to the first reachable address in addrs and
// installs the rest of the list as read fallbacks. Retrieval-only tools
// (moirastat, DCM extraction) use it so a primary outage degrades to
// reading from a replica instead of an error. Against a failover
// cluster it also serves writers: a mutation that lands on a follower
// is refused with MR_READONLY plus the primary's address, and the
// client chases the redirect transparently (bounded by MaxRedirects,
// with a per-address circuit breaker), so callers need not know which
// node currently holds the lease.
func DialFailover(addrs []string, timeout time.Duration, clk clock.Clock) (*Client, error) {
	if len(addrs) == 0 {
		return nil, mrerr.MrNotConnected
	}
	var lastErr error
	for i, a := range addrs {
		c, err := DialTimeout(a, timeout, clk)
		if err != nil {
			lastErr = err
			continue
		}
		rest := append(append([]string(nil), addrs[:i]...), addrs[i+1:]...)
		c.SetReadFallbacks(rest...)
		if i > 0 {
			c.mu.Lock()
			c.failovers++
			c.mu.Unlock()
		}
		return c, nil
	}
	return nil, lastErr
}

// Failovers reports how many times this client has connected to a
// fallback address instead of the primary.
func (c *Client) Failovers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// SetCallTimeout bounds each subsequent round trip: the whole
// request/reply exchange (including tuple streaming) must finish within
// d or the call fails with MR_CONN_TIMEOUT and the connection is
// dropped. Zero restores the default of no per-call limit.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.callTimeout = d
}

// Reconnects reports how many transparent reconnects this client has
// performed on behalf of idempotent calls.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// SetTraceID pins a trace ID for all subsequent requests on this
// connection; the empty string restores the default of minting a fresh
// ID per request.
func (c *Client) SetTraceID(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = id
}

// LastTraceID reports the trace ID stamped on the most recent request,
// so a caller can correlate its RPC with server-side logs.
func (c *Client) LastTraceID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// SetTracer installs a span tracer: every subsequent round trip records
// a client.call span whose span ID rides the wire field, so the
// server's request spans parent under it. nil disables span recording
// (the default); trace IDs flow either way.
func (c *Client) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

// roundTrip sends one request and reads reply frames until the final
// (non-MR_MORE_DATA) frame, passing tuples to cb (which may be nil).
//
// idempotent marks calls that are safe to repeat: when such a call dies
// on a torn connection before any tuple was delivered, the client
// redials once (after ReconnectDelay, through its clock) and resends
// transparently. Every call in flight on the torn connection shares
// that one redial. Authenticated connections reconnect only when they
// can replay their credentials — a bare redial would silently drop the
// principal.
func (c *Client) roundTrip(req *protocol.Call, cb TupleFunc, idempotent bool) (err error) {
	c.mu.Lock()
	tid, tracer := c.trace, c.tracer
	c.mu.Unlock()
	// Decide the trace ID once per call (pinned, or minted fresh) and
	// put it — joined with this call's span ID when a tracer is wired —
	// on the request, so retries reuse the same IDs.
	if tid == "" {
		tid = trace.NewTraceID()
	}
	sp := tracer.Start(tid, "", "client.call")
	if req.Op == protocol.OpQuery {
		sp.SetDetailParts(protocol.OpName(req.Op), req.Name)
	} else {
		sp.SetDetailParts(protocol.OpName(req.Op), "")
	}
	req.TraceID = trace.Wire(tid, sp.SpanID())
	defer func() { sp.EndCode(int32(mrerr.CodeOf(err))) }()

	delivered := 0
	wcb := cb
	if cb != nil {
		wcb = func(tuple []string) error {
			delivered++
			return cb(tuple)
		}
	}
	// One transparent retry per address in the failover rotation: the
	// dialed address plus every read fallback.
	retries := 0
	redirects := 0
	for {
		c.mu.Lock()
		w, timeout := c.w, c.callTimeout
		c.last = tid
		c.mu.Unlock()
		fields, err := c.exchange(w, req, wcb, timeout)
		// Primary chase: a refusal that names the primary (final-reply
		// fields on MR_READONLY / MR_STALE) means the request was never
		// executed here — re-sending it at the named address is safe,
		// mutations included.
		if (err == mrerr.MrReadonly || err == mrerr.MrStale) &&
			redirects < MaxRedirects && delivered == 0 {
			redirects++
			if c.redirect(w, fields) {
				continue
			}
		}
		switch {
		case err == mrerr.MrNotConnected:
			c.mu.Lock()
			moved := c.w != w
			c.mu.Unlock()
			if moved {
				continue // nothing was sent on w; send on what replaced it
			}
		case err == mrerr.MrAborted && delivered == 0:
			c.mu.Lock()
			canRedial := !c.authed || c.creds != nil
			spares := len(c.fallbacks)
			c.mu.Unlock()
			if !canRedial {
				break
			}
			if idempotent && retries <= spares {
				retries++
				if c.reconnect(w) == nil {
					continue
				}
			} else if !idempotent && spares > 0 && retries == 0 {
				// A torn mutation is never resent — the server may have
				// applied it — but a failover client restores the
				// connection (rotating to a live node, replaying auth)
				// so the caller's next write isn't doomed too.
				c.reconnect(w)
			}
		}
		return err
	}
}

// redirect moves the client to the primary named by a refusal's final
// reply fields, honouring the per-address circuit breaker and replaying
// stored credentials on the new connection before any call can use it.
// It reports whether to resend: the client now talks to the primary,
// or another call had already moved it off w.
func (c *Client) redirect(w *wire, fields []string) bool {
	if len(fields) == 0 || fields[0] == "" {
		return false
	}
	addr := fields[0]
	c.dial.Lock()
	defer c.dial.Unlock()
	c.mu.Lock()
	moved := c.w != w
	skip := addr == c.addr || time.Since(c.breaker[addr]) < BreakerCooldown
	c.mu.Unlock()
	if moved || skip {
		return moved
	}
	nw, err := dialWire(addr, c.dialTimeout)
	c.mu.Lock()
	if err != nil {
		if c.breaker == nil {
			c.breaker = make(map[string]time.Time)
		}
		c.breaker[addr] = time.Now()
		c.mu.Unlock()
		return false
	}
	delete(c.breaker, addr)
	c.mu.Unlock()
	if c.replayAuth(nw) != nil {
		nw.conn.Close()
		return false
	}
	c.mu.Lock()
	c.install(nw)
	c.addr = addr
	c.redirects++
	c.mu.Unlock()
	return true
}

// reconnect replaces dead, the connection a call was just torn from:
// after a short backoff it dials, starting at dead's address and
// rotating through the read-fallback list until one accepts, and
// replays stored credentials before any call can use the new
// connection. Every call that was in flight on dead lands here; the
// first redials and the rest resend on what it found.
func (c *Client) reconnect(dead *wire) error {
	c.dial.Lock()
	defer c.dial.Unlock()
	c.mu.Lock()
	moved, final := c.w != dead, dead.final
	rotation := append([]string{c.addr}, c.fallbacks...)
	cur := c.cur
	c.mu.Unlock()
	if moved {
		return nil
	}
	if final {
		return mrerr.MrNotConnected
	}
	clock.Sleep(c.clk, ReconnectDelay)
	var err error
	for i := range rotation {
		slot := (cur + i) % len(rotation)
		var nw *wire
		if nw, err = dialWire(rotation[slot], c.dialTimeout); err != nil {
			continue
		}
		if err = c.replayAuth(nw); err != nil {
			nw.conn.Close()
			break
		}
		c.mu.Lock()
		c.install(nw)
		c.reconnects++
		if slot != 0 {
			c.failovers++
		}
		c.cur = slot
		c.mu.Unlock()
		return nil
	}
	c.mu.Lock()
	dead.final = true
	c.mu.Unlock()
	return err
}

// replayAuth authenticates w, a connection no other call can reach
// yet, with the stored credentials, so the principal moves with the
// session across redials; a no-op for unauthenticated clients.
func (c *Client) replayAuth(w *wire) error {
	c.mu.Lock()
	authed, creds, app, timeout := c.authed, c.creds, c.credsApp, c.callTimeout
	c.mu.Unlock()
	if !authed {
		return nil
	}
	if creds == nil {
		return mrerr.MrAborted
	}
	payload := kerberos.BuildAuth(creds, app, c.clk)
	_, err := c.exchange(w, &protocol.Call{
		Op:      protocol.OpAuth,
		TraceID: trace.NewTraceID(),
		Args:    []string{string(payload.Marshal())},
	}, nil, timeout)
	return err
}

// install makes w the client's connection; callers hold c.mu. A live
// connection it replaces (a redirect's) closes once its last call in
// flight has read its reply.
func (c *Client) install(w *wire) {
	old := c.w
	c.w = w
	old.retired = true
	c.settle(old)
}

// settle closes a retired connection with no call in flight; callers
// hold c.mu.
func (c *Client) settle(w *wire) {
	if w.retired && w.done == w.sent && w.err == nil {
		w.err = mrerr.MrNotConnected
		w.conn.Close()
	}
}

// Redirects reports how many times this client has chased a primary
// redirect.
func (c *Client) Redirects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redirects
}

// LastToken reports the commit-position token of this client's most
// recent acknowledged write ("" before any). It is attached to
// retrieval queries automatically; SetMinPos overrides it.
func (c *Client) LastToken() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastToken
}

// SetMinPos pins the read-your-writes floor attached to retrieval
// queries (a token from LastToken, possibly from another client). The
// empty string restores the default of the client's own latest write.
func (c *Client) SetMinPos(token string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastToken = token
}

// exchange writes req on w and, when its turn comes, reads its replies
// on the calling goroutine, passing tuples to cb (which may be nil). It
// returns the final reply's fields: a commit token on success, the
// primary's address on MR_READONLY / MR_STALE.
func (c *Client) exchange(w *wire, req *protocol.Call, cb TupleFunc, timeout time.Duration) ([]string, error) {
	var deadline time.Time // zero disarms what an earlier timed call set
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	turn, end, err := c.send(w, req, deadline)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if w.err == nil && w.done != turn {
		wake := wakes.Get().(chan struct{})
		w.parked = append(w.parked, parked{turn, wake})
		c.mu.Unlock()
		<-wake // done reached turn, or w died
		wakes.Put(wake)
		c.mu.Lock()
	}
	err = w.err
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}

	w.conn.SetReadDeadline(deadline)
	var cbErr error
	for {
		if w.handed.Load() < end {
			if err := w.flush(end, deadline); err != nil {
				return nil, c.fail(w, ioFail(err))
			}
		}
		rep, err := w.fr.ReadReply()
		if err != nil {
			return nil, c.fail(w, ioFail(err))
		}
		if rep.Version != protocol.Version {
			return nil, c.fail(w, mrerr.MrVersionMismatch)
		}
		code := mrerr.Code(rep.Code)
		if rep.Tag != req.Tag {
			// Tag 0 with an error code refuses the whole connection (an
			// MR_BUSY shed, sent before any request was read); any other
			// tag means the replies no longer match the turns.
			if rep.Tag != 0 || code == mrerr.Success || code == mrerr.MrMoreData {
				code = mrerr.MrAborted
			}
			return nil, c.fail(w, code)
		}
		if code == mrerr.MrMoreData {
			if cb != nil && cbErr == nil {
				w.tuple = rep.AppendStrings(w.tuple[:0])
				if err := cb(w.tuple); err != nil {
					// Keep draining the stream; report after.
					cbErr = err
				}
			}
			continue
		}
		fields := rep.StringFields()
		c.mu.Lock()
		w.done++
		w.next()
		c.settle(w)
		if cbErr == nil && code == mrerr.Success && len(fields) > 0 && fields[0] != "" &&
			(req.Op == protocol.OpQuery || req.Op == protocol.OpBatch) {
			if _, ok := protocol.ParsePos(fields[0]); ok {
				c.lastToken = fields[0]
			}
		}
		c.mu.Unlock()
		if cbErr != nil {
			return nil, mrerr.MrCallbackErr
		}
		return fields, code.OrNil()
	}
}

// send takes w's next turn and writes req, tagged with it, into w's
// buffer; end is where the request ends in w's stream, for flush. A
// call that finds w torn and not yet replaced fails as if torn in
// flight (MR_ABORTED, so an idempotent one redials); on any other dead
// connection it fails with MR_NOT_CONNECTED before writing anything.
func (c *Client) send(w *wire, req *protocol.Call, deadline time.Time) (turn uint64, end int64, err error) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	// Turns are taken under the write lock, so requests leave in turn
	// order. Tags run 1–65535 and wrap: replies come back in turn
	// order, so a tag only has to differ from its neighbours. Tag 0 is
	// the server's, for refusing the whole connection.
	c.mu.Lock()
	dead, final := w.err, w.final
	turn = w.sent
	if dead == nil {
		w.sent++
	}
	c.mu.Unlock()
	if dead == mrerr.MrAborted && !final {
		return 0, 0, dead
	} else if dead != nil {
		return 0, 0, mrerr.MrNotConnected
	}
	req.Tag = uint16(turn%65535) + 1
	w.conn.SetWriteDeadline(deadline)
	err = protocol.WriteCall(w.bw, req)
	if err == mrerr.MrArgTooLong {
		// Refused before a byte was written, and no later turn was
		// taken under wmu: hand the turn back; the connection is intact.
		c.mu.Lock()
		w.sent--
		c.settle(w)
		c.mu.Unlock()
		return 0, 0, err
	} else if err != nil {
		return 0, 0, c.fail(w, ioFail(err))
	}
	return turn, w.handed.Load() + int64(w.bw.Buffered()), nil
}

// flush sends what callers have written to w, the request ending at
// end among it. The caller whose turn it is calls it before its first
// read while that request has not left bw: so a burst of calls leaves
// in one write, and at depth one this is write, flush, read. It never
// waits for wmu once its request has left, and what it writes past end
// is less than bw's 4 KiB: a writer blocked on a server busy answering
// this call never holds up the read that would unblock both.
func (w *wire) flush(end int64, deadline time.Time) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.handed.Load() >= end {
		return nil
	}
	w.conn.SetWriteDeadline(deadline)
	return w.bw.Flush()
}

// fail kills w after the caller's call hit err, and returns the error
// that call reports: err, or the cause of death when w was already
// dead. Every other call in flight on w fails with the same cause —
// but a deadline belongs to the caller whose call ran out of time, so
// the others get MR_ABORTED for it.
func (c *Client) fail(w *wire, err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.err = err
	if err == mrerr.MrConnTimeout {
		w.err = mrerr.MrAborted
	}
	w.conn.Close()
	for _, p := range w.parked {
		p.wake <- struct{}{}
	}
	w.parked = nil
	return err
}

// ioFail classifies a transport failure: a deadline hit (the per-call
// timeout) is MR_CONN_TIMEOUT, anything else MR_ABORTED. Timeouts are
// never transparently retried — the server may still be processing the
// request.
func ioFail(err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return mrerr.MrConnTimeout
	}
	return mrerr.MrAborted
}

// Noop implements mr_noop.
func (c *Client) Noop() error {
	return c.roundTrip(&protocol.Call{Op: protocol.OpNoop}, nil, true)
}

// Auth implements mr_auth: it presents Kerberos credentials, naming the
// program acting on behalf of the user. All later requests on this
// connection are performed as the authenticated principal. The server
// applies it in receive order: calls other goroutines wrote before it
// still run unauthenticated.
func (c *Client) Auth(creds *kerberos.Credentials, clientName string) error {
	payload := kerberos.BuildAuth(creds, clientName, c.clk)
	req := &protocol.Call{Op: protocol.OpAuth, Args: []string{string(payload.Marshal())}}
	err := c.roundTrip(req, nil, false)
	if err == nil {
		c.mu.Lock()
		c.authed = true
		c.creds = creds
		c.credsApp = clientName
		c.mu.Unlock()
	}
	return err
}

// Access implements mr_access. An access check never mutates, so it is
// retried transparently across a torn connection.
func (c *Client) Access(name string, args []string) error {
	return c.roundTrip(&protocol.Call{Op: protocol.OpAccess, Name: name, Args: args}, nil, true)
}

// Query implements mr_query. Retrieval handles are idempotent and get
// the transparent reconnect; anything that mutates (or that the client
// cannot classify) fails fast on a torn connection.
func (c *Client) Query(name string, args []string, cb TupleFunc) error {
	idem := false
	req := &protocol.Call{Op: protocol.OpQuery, Name: name, Args: args}
	if q, ok := queries.Lookup(name); ok && q.Kind == queries.Retrieve {
		idem = true
		// Read-your-writes: stamp the latest commit token so a lagging
		// replica waits or redirects instead of serving data older than
		// this client's own writes. Meta handles are exempt server-side.
		c.mu.Lock()
		req.MinPos = c.lastToken
		c.mu.Unlock()
	}
	return c.roundTrip(req, cb, idem)
}

// QueryAll runs a query and gathers all tuples.
func (c *Client) QueryAll(name string, args ...string) ([][]string, error) {
	var out [][]string
	err := c.Query(name, args, func(t []string) error {
		cp := make([]string, len(t))
		copy(cp, t)
		out = append(out, cp)
		return nil
	})
	return out, err
}

// BatchItem re-exports the wire batch item so callers of Batch need not
// import the protocol package.
type BatchItem = protocol.BatchItem

// Batch submits items — mutations only — as one Batch request: the
// server runs them under a single lock acquisition and a single journal
// group commit and answers one code per item, in order.
//
// The error return is transport- or batch-level; when it is nil the
// per-item codes are authoritative (mrerr.Success for applied items).
func (c *Client) Batch(items []BatchItem) ([]mrerr.Code, error) {
	if len(items) == 0 {
		return nil, nil
	}
	var codes []mrerr.Code
	err := c.roundTrip(&protocol.Call{
		Op:   protocol.OpBatch,
		Args: protocol.EncodeBatch(items),
	}, func(fields []string) error {
		codes = make([]mrerr.Code, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return mrerr.MrInternal
			}
			codes[i] = mrerr.Code(v)
		}
		return nil
	}, false)
	if err != nil {
		return nil, err
	}
	if len(codes) != len(items) {
		return nil, mrerr.MrInternal
	}
	return codes, nil
}

// TriggerDCM sends the Trigger_DCM request.
func (c *Client) TriggerDCM() error {
	return c.roundTrip(&protocol.Call{Op: protocol.OpTriggerDCM}, nil, false)
}

// Shutdown asks the server to exit (access-checked server side).
func (c *Client) Shutdown() error {
	return c.roundTrip(&protocol.Call{Op: protocol.OpShutdown}, nil, false)
}

// Disconnect implements mr_disconnect. Calls still in flight fail with
// MR_ABORTED, and nothing redials the connection.
func (c *Client) Disconnect() error {
	c.dial.Lock() // a redial in progress finishes first, and is closed here
	defer c.dial.Unlock()
	c.mu.Lock()
	w := c.w
	live := w.err == nil
	w.final = true
	c.mu.Unlock()
	if !live {
		return mrerr.MrNotConnected
	}
	c.fail(w, mrerr.MrAborted)
	return nil
}

var _ Conn = (*Client)(nil)

// Direct is the direct "glue" library: the same interface as Client but
// calling the query engine in-process, bypassing the RPC layer and
// Kerberos, for significantly higher throughput. It is used by the DCM
// and the backup utilities on the database host.
type Direct struct {
	cx *queries.Context
}

// NewDirect builds a direct connection for the given database. The
// context is privileged, exactly as the direct-Ingres library was: it is
// only available to code already running on the Moira machine.
func NewDirect(d *queries.Context) *Direct {
	return &Direct{cx: d}
}

// Noop does nothing, successfully.
func (dc *Direct) Noop() error { return nil }

// Access checks query access in-process.
func (dc *Direct) Access(name string, args []string) error {
	return queries.CheckAccess(dc.cx, name, args)
}

// Query runs the query in-process.
func (dc *Direct) Query(name string, args []string, cb TupleFunc) error {
	if cb == nil {
		cb = func([]string) error { return nil }
	}
	return queries.Execute(dc.cx, name, args, queries.EmitFunc(cb))
}

// QueryAll runs a query and gathers all tuples.
func (dc *Direct) QueryAll(name string, args ...string) ([][]string, error) {
	var out [][]string
	err := dc.Query(name, args, func(t []string) error {
		cp := make([]string, len(t))
		copy(cp, t)
		out = append(out, cp)
		return nil
	})
	return out, err
}

// Disconnect is a no-op for the direct library.
func (dc *Direct) Disconnect() error { return nil }

var _ Conn = (*Direct)(nil)
