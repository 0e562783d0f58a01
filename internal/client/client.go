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
// The slice is valid only during the callback: the RPC clients reuse it
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

// Client is an RPC connection to a Moira server.
type Client struct {
	mu          sync.Mutex
	conn        net.Conn
	fr          *protocol.FrameReader // replies; reuses one buffer per connection
	bw          *bufio.Writer
	tuple       []string // reused for every tuple passed to a TupleFunc
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
	// read-your-writes), the fields of the most recent final reply
	// (MR_READONLY / MR_STALE carry the primary's address there), a
	// bounded per-address circuit breaker for redirect dials, and the
	// credentials replayed after a redirect lands on a fresh primary.
	lastToken  string
	lastFields []string
	breaker    map[string]time.Time
	redirects  int
	creds      *kerberos.Credentials
	credsApp   string
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
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, mrerr.MrConnTimeout
		}
		return nil, mrerr.MrConnRefused
	}
	return &Client{
		conn:        conn,
		fr:          protocol.NewFrameReader(bufio.NewReader(conn)),
		bw:          bufio.NewWriter(conn),
		clk:         clk,
		addr:        addr,
		dialTimeout: timeout,
	}, nil
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
// transparently. Authenticated connections never reconnect — a redial
// would silently drop the principal.
func (c *Client) roundTrip(req *protocol.Call, cb TupleFunc, idempotent bool) (err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Decide the trace ID once per call (pinned, or minted fresh) and
	// put it — joined with this call's span ID when a tracer is wired —
	// on the request. sendRecv leaves a non-empty TraceID alone, so
	// retries reuse the same IDs.
	if req.TraceID == "" {
		tid := c.trace
		if tid == "" {
			tid = trace.NewTraceID()
		}
		sp := c.tracer.Start(tid, "", "client.call")
		if req.Op == protocol.OpQuery {
			sp.SetDetailParts(protocol.OpName(req.Op), req.Name)
		} else {
			sp.SetDetailParts(protocol.OpName(req.Op), "")
		}
		req.TraceID = trace.Wire(tid, sp.SpanID())
		defer func() { sp.EndCode(int32(mrerr.CodeOf(err))) }()
	}
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
		err := c.sendRecv(req, wcb)
		// Primary chase: a refusal that names the primary (final-reply
		// fields on MR_READONLY / MR_STALE) means the request was never
		// executed here — re-sending it at the named address is safe,
		// mutations included.
		if (err == mrerr.MrReadonly || err == mrerr.MrStale) &&
			redirects < MaxRedirects && delivered == 0 {
			if addr := c.redirectAddrLocked(); addr != "" {
				redirects++
				if c.redialLocked(addr) == nil {
					continue
				}
			}
		}
		if err == mrerr.MrAborted && c.addr != "" && delivered == 0 &&
			(!c.authed || c.creds != nil) {
			if idempotent && retries <= len(c.fallbacks) {
				retries++
				if c.reconnectLocked() == nil && c.replayAuthLocked() == nil {
					continue
				}
			} else if !idempotent && len(c.fallbacks) > 0 && retries == 0 {
				// A torn mutation is never resent — the server may have
				// applied it — but a failover client restores the
				// connection (rotating to a live node, replaying auth)
				// so the caller's next write isn't doomed too.
				retries++
				if c.reconnectLocked() == nil {
					c.replayAuthLocked()
				}
				return mrerr.MrAborted
			}
		}
		return err
	}
}

// redirectAddrLocked extracts the primary address from the most recent
// final reply's fields, if it is anywhere worth going; callers hold
// c.mu.
func (c *Client) redirectAddrLocked() string {
	if len(c.lastFields) == 0 {
		return ""
	}
	addr := c.lastFields[0]
	if addr == "" || addr == c.addr {
		return ""
	}
	return addr
}

// redialLocked points the connection at a redirect target, honouring
// the per-address circuit breaker, and replays stored credentials so
// an authenticated caller stays authenticated across the hop; callers
// hold c.mu.
func (c *Client) redialLocked(addr string) error {
	if t, ok := c.breaker[addr]; ok && time.Since(t) < BreakerCooldown {
		return mrerr.MrConnRefused
	}
	conn, err := net.DialTimeout("tcp", addr, c.dialTimeout)
	if err != nil {
		if c.breaker == nil {
			c.breaker = make(map[string]time.Time)
		}
		c.breaker[addr] = time.Now()
		return mrerr.MrConnRefused
	}
	delete(c.breaker, addr)
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = conn
	c.fr = protocol.NewFrameReader(bufio.NewReader(conn))
	c.bw = bufio.NewWriter(conn)
	c.addr = addr
	c.redirects++
	return c.replayAuthLocked()
}

// replayAuthLocked re-authenticates a fresh connection from stored
// credentials, so the principal moves with the session across redials
// and reconnects; a no-op for unauthenticated clients. Callers hold
// c.mu.
func (c *Client) replayAuthLocked() error {
	if !c.authed {
		return nil
	}
	// The principal must move with the connection or the redirected
	// request would run unauthenticated on the new primary.
	if c.creds == nil {
		c.authed = false
		return mrerr.MrAborted
	}
	payload := kerberos.BuildAuth(c.creds, c.credsApp, c.clk)
	areq := &protocol.Call{
		Op:      protocol.OpAuth,
		TraceID: trace.NewTraceID(),
		Args:    []string{string(payload.Marshal())},
	}
	if err := c.sendRecv(areq, nil); err != nil {
		c.authed = false
		return err
	}
	return nil
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

// reconnectLocked redials after a short backoff, starting at the
// address of the connection that just died and rotating through the
// read-fallback list until one accepts; callers hold c.mu.
func (c *Client) reconnectLocked() error {
	clock.Sleep(c.clk, ReconnectDelay)
	rotation := append([]string{c.addr}, c.fallbacks...)
	var lastErr error
	for i := 0; i < len(rotation); i++ {
		slot := (c.cur + i) % len(rotation)
		conn, err := net.DialTimeout("tcp", rotation[slot], c.dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		c.conn = conn
		c.fr = protocol.NewFrameReader(bufio.NewReader(conn))
		c.bw = bufio.NewWriter(conn)
		c.reconnects++
		if slot != 0 {
			c.failovers++
		}
		c.cur = slot
		return nil
	}
	return lastErr
}

// sendRecv does one request/reply exchange; callers hold c.mu.
func (c *Client) sendRecv(req *protocol.Call, cb TupleFunc) error {
	if c.conn == nil {
		return mrerr.MrNotConnected
	}
	if c.callTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.callTimeout))
	} else {
		// A previous timed call left its deadline armed on the conn;
		// without this reset an untimed call made after
		// SetCallTimeout(0) would die with a spurious MR_CONN_TIMEOUT
		// the moment the stale deadline expired.
		c.conn.SetDeadline(time.Time{})
	}
	// roundTrip stamped the (possibly span-joined) trace field; the bare
	// trace ID is what callers correlate on.
	c.last, _ = trace.Split(req.TraceID)
	if err := protocol.WriteCall(c.bw, req); err == mrerr.MrArgTooLong {
		return err // refused before a byte was written: the connection is intact
	} else if err != nil {
		c.abort()
		return ioFail(err)
	}
	if err := c.bw.Flush(); err != nil {
		c.abort()
		return ioFail(err)
	}
	var cbErr error
	for {
		rep, err := c.fr.ReadReply()
		if err != nil {
			c.abort()
			return ioFail(err)
		}
		if rep.Version != protocol.Version {
			c.abort()
			return mrerr.MrVersionMismatch
		}
		code := mrerr.Code(rep.Code)
		if code == mrerr.MrMoreData {
			if cb != nil && cbErr == nil {
				c.tuple = rep.AppendStrings(c.tuple[:0])
				if err := cb(c.tuple); err != nil {
					// Keep draining the stream; report after.
					cbErr = err
				}
			}
			continue
		}
		if cbErr != nil {
			return mrerr.MrCallbackErr
		}
		// Final-frame fields: a commit token on success, the
		// primary's address on MR_READONLY / MR_STALE.
		c.lastFields = rep.StringFields()
		if code == mrerr.Success && len(c.lastFields) > 0 &&
			(req.Op == protocol.OpQuery || req.Op == protocol.OpBatch) {
			if _, ok := protocol.ParsePos(c.lastFields[0]); ok && c.lastFields[0] != "" {
				c.lastToken = c.lastFields[0]
			}
		}
		return code.OrNil()
	}
}

// abort closes the connection after an I/O failure; callers hold c.mu.
func (c *Client) abort() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
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
// connection are performed as the authenticated principal.
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

// Disconnect implements mr_disconnect.
func (c *Client) Disconnect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return mrerr.MrNotConnected
	}
	err := c.conn.Close()
	c.conn = nil
	if err != nil {
		return mrerr.MrAborted
	}
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
