// Package server implements the Moira server (section 5.4): a single
// process in front of the database, listening on a well-known TCP port
// and processing RPC requests on every connection it accepts.
//
// The original used GDB's non-blocking I/O to multiplex connections in
// one process; here each connection gets a goroutine, and the database
// lock in the query layer provides the same one-backend serialization.
// Crucially — and this was the paper's stated performance motivation over
// Athenareg — the expensive database backend is started once at daemon
// startup, not once per client connection.
package server

import (
	"net"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/health"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
	"moira/internal/stats"
	"moira/internal/trace"

	"bufio"
)

// Config configures a Server.
type Config struct {
	DB *db.DB

	// Verifier checks client authenticators. With a nil verifier every
	// Authenticate request fails; unauthenticated queries still work.
	Verifier *kerberos.Verifier

	// Clock for session timestamps; nil means the system clock.
	Clock clock.Clock

	// Logf receives server log lines; nil discards them.
	Logf func(format string, args ...any)

	// TriggerDCM is invoked by an authorized Trigger_DCM request and by
	// the set_server_host_override query; it receives the trace ID of
	// the originating request so the DCM pass can be correlated.
	TriggerDCM func(trace string)

	// Router, when set, resolves qualified query handles
	// ("archive:get_user_by_login") onto attached secondary databases
	// (section 5.2.D). nil serves only the primary DB.
	Router *queries.Router

	// Stats receives the server's metrics (request, error, and latency
	// series per opcode and query handle, plus the DB's per-table op
	// counts). nil means a fresh private registry, still served by the
	// `_stats` handle and Registry.
	Stats *stats.Registry

	// IdleTimeout bounds how long a connection may sit between requests
	// (and how long a single request frame may trickle in). A connection
	// that exceeds it is dropped and counted in server.conns.idleclosed.
	// Zero means no limit, the historical behaviour.
	IdleTimeout time.Duration

	// WriteTimeout bounds each reply write, so one client that stops
	// reading cannot park a server goroutine forever. Zero means no
	// limit.
	WriteTimeout time.Duration

	// MaxConns caps the number of concurrently served connections.
	// Excess accepts are shed at accept time: the server sends a final
	// MR_BUSY reply, closes the connection, and bumps server.conns.shed.
	// Zero means unlimited.
	MaxConns int

	// DrainTimeout bounds how long Close waits for in-flight requests
	// before force-closing the stragglers. Zero means
	// protocol.DefaultDrainTimeout.
	DrainTimeout time.Duration

	// ReadOnly starts the server in read-only mode: retrieval queries
	// are served normally, but mutating queries and Trigger_DCM are
	// refused with MR_READONLY. Replicas run read-only until promoted;
	// SetReadOnly flips the mode at runtime.
	ReadOnly bool

	// Tracer records per-phase spans for every request (read/parse,
	// auth, snapshot acquire, handler, journal, reply write). nil
	// disables span collection.
	Tracer *trace.Tracer

	// Health, when set, backs the _health query handle (the in-band
	// readiness probe). The server contributes its own shed/drain
	// probe via HealthProbe.
	Health *health.Checker

	// MaxBatch caps the items accepted in one Batch request; larger
	// batches are refused with MR_ARG_TOO_LONG. Zero means
	// DefaultMaxBatch.
	MaxBatch int

	// Failover, when set, wires the server into a failover cluster:
	// the _whois handle answers from it, mutations gate on
	// replication and return commit-position tokens, reads carrying
	// a token wait for coverage (or answer MR_STALE plus the primary's
	// address), and read-only refusals name the primary so clients can
	// chase it.
	Failover FailoverState
}

// FailoverState is the cluster surface the server consumes; it is
// implemented by replica.Cluster. All methods are safe for concurrent
// use and reflect the node's current role.
type FailoverState interface {
	// Whois reports the node's failover identity (the _whois handle).
	Whois() queries.WhoisInfo
	// CommitGate blocks until the commit at (seg, idx) is replicated
	// to quorum, or fails with MR_NOT_REPLICATED.
	CommitGate(seg, idx int64) error
	// Token mints the position token for a gated commit.
	Token(seg, idx int64) string
	// WaitCovered reports whether this node has applied up to pos,
	// waiting briefly for it to catch up.
	WaitCovered(pos protocol.Pos) bool
	// PrimaryClient names the current primary's client address ("" if
	// unknown), attached to MR_READONLY and MR_STALE replies.
	PrimaryClient() string
}

// DefaultMaxBatch is the Batch item cap when Config.MaxBatch is zero.
// The frame field limit (protocol.MaxFields) bounds what fits anyway;
// this keeps one batch's exclusive-lock hold time reasonable.
const DefaultMaxBatch = 1024

// Server is a running Moira server.
type Server struct {
	cfg Config
	clk clock.Clock
	reg *stats.Registry

	// logRequests is whether Config.Logf was set: the per-request log
	// line is formatted only then, since its arguments allocate.
	logRequests bool

	// ln accepts, drains and force-closes the connections.
	ln *protocol.Listener

	readonly atomic.Bool

	// ops and handles hold each opcode's and query handle's request
	// series, resolved from reg on first use so that a request builds
	// no series name.
	ops     [protocol.OpElection + 1]atomic.Pointer[opSeries]
	handles sync.Map // handle name -> *stats.Counter

	mu       sync.Mutex
	sessions map[int]*session
	nextID   int
}

type session struct {
	id        int
	principal string
	app       string
	addr      string
	port      int
	connected int64
}

// New creates a server.
func New(cfg Config) *Server {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	logRequests := cfg.Logf != nil
	if !logRequests {
		cfg.Logf = func(string, ...any) {}
	}
	reg := cfg.Stats
	if reg == nil {
		reg = stats.NewRegistry()
	}
	if cfg.DB != nil {
		cfg.DB.BindStats(reg)
	}
	s := &Server{
		cfg:         cfg,
		clk:         clk,
		reg:         reg,
		logRequests: logRequests,
		ln:          protocol.NewListener(),
		sessions:    make(map[int]*session),
	}
	s.ln.Drain = cfg.DrainTimeout
	s.ln.ForceClosed = reg.Counter("server.conns.forceclosed")
	s.ln.Max = cfg.MaxConns
	s.ln.Shed = s.shed
	s.ln.Logf = cfg.Logf
	s.readonly.Store(cfg.ReadOnly)
	return s
}

// ReadOnly reports whether the server currently refuses mutations.
func (s *Server) ReadOnly() bool { return s.readonly.Load() }

// SetReadOnly flips read-only mode at runtime. Promotion of a replica
// calls SetReadOnly(false) once it owns the journal.
func (s *Server) SetReadOnly(v bool) { s.readonly.Store(v) }

// Registry returns the server's metric registry (the one the `_stats`
// handle serves).
func (s *Server) Registry() *stats.Registry { return s.reg }

// HealthProbe reports the server's shed/drain state for the health
// checker (protocol.Listener.State): not ready once Close has begun, or
// while every connection slot is taken (new clients are being shed).
func (s *Server) HealthProbe() health.Status {
	ok, detail := s.ln.State()
	return health.Status{Name: "server", OK: ok, Detail: detail +
		" shed=" + strconv.FormatInt(s.reg.Counter("server.conns.shed").Value(), 10) +
		" readonly=" + strconv.FormatBool(s.readonly.Load())}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting
// connections in the background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) { return s.ln.Listen(addr, s.serveConn) }

// Addr returns the listener address, or nil before Listen.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and drains (protocol.Listener.Close): idle
// connections are closed at once, in-flight requests get up to
// DrainTimeout to finish, and stragglers are force-closed after that.
func (s *Server) Close() error { return s.ln.Close() }

// shed tells a client past MaxConns the server is at capacity: a
// best-effort final MR_BUSY reply, counted in server.conns.shed. The
// pre-sent reply answers the client's first round trip. Closing right
// after the write would risk a reset that discards the buffered reply
// before the client reads it, so shed briefly waits for that first
// request (bounded by a deadline) before the listener hangs up.
func (s *Server) shed(conn net.Conn) {
	s.reg.Counter("server.conns.shed").Inc()
	s.cfg.Logf("shedding connection from %s: %d connections at MaxConns=%d",
		conn.RemoteAddr(), s.cfg.MaxConns, s.cfg.MaxConns)
	conn.SetDeadline(time.Now().Add(time.Second))
	bw := bufio.NewWriter(conn)
	if protocol.WriteReplyFields(bw, 0, int32(mrerr.MrBusy), nil) != nil {
		return
	}
	if bw.Flush() != nil {
		return
	}
	protocol.ReadRequest(bufio.NewReader(conn))
}

// SessionInfos lists the connected clients for the _list_users query.
func (s *Server) SessionInfos() []queries.SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]queries.SessionInfo, 0, len(s.sessions))
	for _, ses := range s.sessions {
		out = append(out, queries.SessionInfo{
			Principal:   ses.principal,
			HostAddress: ses.addr,
			Port:        ses.port,
			ConnectTime: ses.connected,
			ClientNum:   ses.id,
		})
	}
	return out
}

func (s *Server) addSession(conn net.Conn) *session {
	host, port := "", 0
	if tcp, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		host = tcp.IP.String()
		port = tcp.Port
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	ses := &session{id: s.nextID, addr: host, port: port, connected: s.clk.Now().Unix()}
	s.sessions[ses.id] = ses
	s.reg.Gauge("server.sessions.active").Add(1)
	return ses
}

func (s *Server) dropSession(ses *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, ses.id)
	s.reg.Gauge("server.sessions.active").Add(-1)
}

func (s *Server) serveConn(c *protocol.Conn) {
	conn := c.Conn
	ses := s.addSession(conn)
	defer s.dropSession(ses)

	br := bufio.NewReaderSize(conn, 32<<10)
	bw := bufio.NewWriterSize(conn, 32<<10)
	// The dispatch path converts every argument it keeps to strings
	// before the next read, so requests come through the zero-copy
	// frame reader: one reused payload buffer per connection instead of
	// one allocation per frame.
	fr := protocol.NewFrameReader(br)

	cx := &queries.Context{
		DB:         s.cfg.DB,
		Sessions:   s.SessionInfos,
		TriggerDCM: s.cfg.TriggerDCM,
		Stats:      s.reg,
		Spans:      s.cfg.Tracer.Traces,
		Health:     s.cfg.Health.Check,
	}
	if fo := s.cfg.Failover; fo != nil {
		cx.Whois = fo.Whois
		cx.CommitGate = fo.CommitGate
	}
	// Section 5.5: access checks commonly run twice (Access request,
	// then the Query itself); the per-connection cache absorbs the
	// second one.
	cx.EnableAccessCache()

	// Replies echo the request's tag, so a pipelining client can match
	// them up. Frames buffer in bw and flush when the connection goes
	// quiet (no next request already buffered): a pipelined burst costs
	// one syscall on the way out instead of one per frame. Tuple fields
	// are encoded straight into the frame.
	repTag := uint16(0)
	reply := func(code mrerr.Code, fields []protocol.Field) error {
		if d := s.cfg.WriteTimeout; d > 0 {
			conn.SetWriteDeadline(time.Now().Add(d))
		}
		return protocol.WriteReplyFields(bw, repTag, int32(code), fields)
	}

	for {
		// Before parking for the next request, or leaving once Close has
		// begun, push out everything the previous ones buffered — unless
		// more input is already waiting, in which case the flush rides
		// with a later reply.
		draining := c.Idle()
		if bw.Buffered() > 0 && (draining || br.Buffered() == 0) {
			if d := s.cfg.WriteTimeout; d > 0 {
				conn.SetWriteDeadline(time.Now().Add(d))
			}
			if bw.Flush() != nil {
				return
			}
		}
		if draining {
			return
		}
		if d := s.cfg.IdleTimeout; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		// Park on the first byte without the clock running, so idle time
		// between requests does not pollute the read phase; then the
		// frame read + parse is timed as the request's first span.
		if _, err := br.Peek(1); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !s.ln.Closed() {
				s.reg.Counter("server.conns.idleclosed").Inc()
				s.cfg.Logf("closing idle connection client=%d after %v", ses.id, s.cfg.IdleTimeout)
			}
			return // EOF, timeout, or protocol garbage: drop the connection
		}
		readStart := time.Now()
		req, err := fr.ReadRequest()
		if err != nil {
			return
		}
		readDur := time.Since(readStart)
		c.Begin()
		start := s.clk.Now()
		repTag = req.Tag
		if req.Version != protocol.Version {
			code := mrerr.MrVersionMismatch
			if reply(code, nil) != nil {
				return
			}
			s.observe(req, ses, cx.Principal, "", code, s.clk.Now().Sub(start))
			continue
		}
		// Split the wire field: the bare trace ID flows everywhere the
		// trace ID always did (journal, ring, logs); the caller's span ID
		// parents this request's span tree.
		traceID, parentSpan := trace.Split(req.TraceID)
		req.TraceID = traceID
		cx.TraceID = traceID
		sp := s.cfg.Tracer.StartAt(traceID, parentSpan, "server.request", readStart)
		sp.SetDetailParts(protocol.OpName(req.Op), "")
		sp.Record("server.read", readStart, readDur, 0)
		cx.Span = sp
		cx.PhaseStart = readStart.Add(readDur)

		code, fields, handle, shutdown, fatal := s.dispatch(cx, ses, req, reply)
		cx.Span = nil
		if handle != "" {
			sp.SetDetailParts(protocol.OpName(req.Op), handle)
		}
		if fatal {
			sp.EndCode(int32(code))
			s.observe(req, ses, cx.Principal, handle, code, s.clk.Now().Sub(start))
			return
		}
		writeStart := time.Now()
		if reply(code, fields) != nil {
			sp.EndCode(int32(mrerr.MrAborted))
			return
		}
		writeDur := time.Since(writeStart)
		sp.Record("server.write", writeStart, writeDur, 0)
		// The write measurement already brackets the request's end; no
		// extra clock read for the root span.
		sp.EndCodeAt(int32(code), writeStart.Add(writeDur))
		s.observe(req, ses, cx.Principal, handle, code, s.clk.Now().Sub(start))
		if shutdown {
			bw.Flush() // the acknowledgement must beat the Close
			s.cfg.Logf("shutdown requested by %s", cx.Principal)
			go s.Close()
			return
		}
	}
}

// dispatch executes one request. A panicking query handler must not take
// the daemon down — the paper's whole premise is one long-lived process
// in front of the database — so dispatch recovers, answers MR_INTERNAL,
// and counts server.panics.recovered. fatal means the connection is dead
// (the client stopped reading mid-stream) and must be dropped without a
// final reply.
func (s *Server) dispatch(cx *queries.Context, ses *session, req *protocol.Request, reply func(mrerr.Code, []protocol.Field) error) (code mrerr.Code, fields []protocol.Field, handle string, shutdown, fatal bool) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter("server.panics.recovered").Inc()
			s.cfg.Logf("panic serving client=%d op=%s handle=%s: %v\n%s",
				ses.id, protocol.OpName(req.Op), handle, r, debug.Stack())
			code, fields, shutdown, fatal = mrerr.MrInternal, nil, false, false
		}
	}()

	// Redirect fields, commit tokens and MinPos floors apply whenever the
	// server is part of a failover cluster.
	failover := s.cfg.Failover != nil
	redirect := func() []protocol.Field {
		if !failover {
			return nil
		}
		if addr := s.cfg.Failover.PrimaryClient(); addr != "" {
			return []protocol.Field{protocol.Text(addr)}
		}
		return nil
	}

	switch req.Op {
	case protocol.OpNoop:
		code = mrerr.Success

	case protocol.OpAuth:
		asp := cx.Span.Child("server.auth")
		code = s.authenticate(cx, ses, req)
		asp.EndCode(int32(code))

	case protocol.OpQuery:
		if len(req.Args) < 1 {
			code = mrerr.MrArgs
			break
		}
		args := req.StringArgs()
		handle = handleName(args[0])
		if s.readonly.Load() {
			// A replica serves retrievals only. Unknown handles fall
			// through so the client still gets MR_NO_HANDLE.
			if q, ok := queries.Lookup(args[0]); ok && q.Kind != queries.Retrieve {
				s.reg.Counter("server.readonly.refused").Inc()
				code, fields = mrerr.MrReadonly, redirect()
				break
			}
		}
		// Read-your-writes: a read carrying a position token waits
		// (briefly) for this node to apply up to it, then refuses with
		// MR_STALE and the primary's address rather than serve data
		// older than the caller's own write. Meta handles ("_...") are
		// exempt — _whois must answer even on a lagging node.
		if failover && req.MinPos != "" && !strings.HasPrefix(handle, "_") {
			pos, ok := protocol.ParsePos(req.MinPos)
			if !ok {
				code = mrerr.MrArgs
				break
			}
			if !s.cfg.Failover.WaitCovered(pos) {
				s.reg.Counter("server.stale.refused").Inc()
				code, fields = mrerr.MrStale, redirect()
				break
			}
		}
		emitErr := false
		emitFn := func(tuple []protocol.Field) error {
			if e := reply(mrerr.MrMoreData, tuple); e != nil {
				emitErr = true
				return e
			}
			return nil
		}
		qcx, query, err := s.route(cx, args[0])
		if err == nil {
			err = queries.ExecuteFields(qcx, query, args[1:], emitFn)
		}
		if emitErr {
			return mrerr.MrAborted, nil, handle, false, true
		}
		code = mrerr.CodeOf(err)
		if failover && code == mrerr.Success && cx.CommitOK {
			// A gated commit mints the position token the client can
			// present on subsequent reads.
			fields = []protocol.Field{protocol.Text(s.cfg.Failover.Token(cx.CommitSeg, cx.CommitIdx))}
		}

	case protocol.OpAccess:
		if len(req.Args) < 1 {
			code = mrerr.MrArgs
			break
		}
		args := req.StringArgs()
		handle = handleName(args[0])
		qcx, query, err := s.route(cx, args[0])
		if err == nil {
			err = queries.CheckAccess(qcx, query, args[1:])
		}
		code = mrerr.CodeOf(err)

	case protocol.OpBatch:
		if s.readonly.Load() {
			s.reg.Counter("server.readonly.refused").Inc()
			code, fields = mrerr.MrReadonly, redirect()
			break
		}
		items, derr := protocol.DecodeBatch(req.Args)
		if derr != nil {
			code = mrerr.MrArgs
			break
		}
		max := s.cfg.MaxBatch
		if max <= 0 {
			max = DefaultMaxBatch
		}
		if len(items) > max {
			code = mrerr.MrArgTooLong
			break
		}
		codes, err := queries.ExecuteBatch(cx, items)
		if err == nil {
			// Per-item codes ride as the fields of one streamed frame, in
			// submission order, ahead of the overall-result frame.
			itemCodes := make([]protocol.Field, len(codes))
			for i, c := range codes {
				itemCodes[i] = protocol.Int(int64(c))
			}
			if reply(mrerr.MrMoreData, itemCodes) != nil {
				return mrerr.MrAborted, nil, handle, false, true
			}
		}
		code = mrerr.CodeOf(err)
		if failover && code == mrerr.Success && cx.CommitOK {
			fields = []protocol.Field{protocol.Text(s.cfg.Failover.Token(cx.CommitSeg, cx.CommitIdx))}
		}

	case protocol.OpTriggerDCM:
		if s.readonly.Load() {
			s.reg.Counter("server.readonly.refused").Inc()
			code, fields = mrerr.MrReadonly, redirect()
			break
		}
		err := queries.CheckAccess(cx, queries.TriggerDCMCapability, nil)
		if err == nil && s.cfg.TriggerDCM != nil {
			s.cfg.TriggerDCM(req.TraceID)
		}
		code = mrerr.CodeOf(err)

	case protocol.OpShutdown:
		err := queries.CheckAccess(cx, queries.TriggerDCMCapability, nil)
		code = mrerr.CodeOf(err)
		shutdown = err == nil

	default:
		code = mrerr.MrUnknownProc
	}
	return code, fields, handle, shutdown, false
}

// route resolves a query handle through the configured Router, if any,
// to the context its query runs under and the bare query name.
func (s *Server) route(cx *queries.Context, handle string) (*queries.Context, string, error) {
	if s.cfg.Router == nil {
		return cx, handle, nil
	}
	return s.cfg.Router.Route(cx, handle)
}

// handleName canonicalizes a query handle to its long name for metrics
// (clients may use short tags); routed or unknown handles pass through.
func handleName(name string) string {
	if q, ok := queries.Lookup(name); ok {
		return q.Name
	}
	return name
}

// opSeries is one opcode's request counter and latency histogram.
type opSeries struct {
	requests *stats.Counter
	latency  *stats.Histogram
}

// seriesOf returns op's series, resolving them once per known opcode.
func (s *Server) seriesOf(op uint16) *opSeries {
	if int(op) < len(s.ops) {
		if o := s.ops[op].Load(); o != nil {
			return o
		}
	}
	name := protocol.OpName(op)
	o := &opSeries{
		requests: s.reg.Counter("server.requests." + name),
		latency:  s.reg.HistogramWith("server.latency."+name, stats.FastBuckets),
	}
	if int(op) < len(s.ops) {
		s.ops[op].Store(o)
	}
	return o
}

// handleCounter returns a query handle's request counter, resolving it
// once per registered handle. Other names (routed or unknown handles)
// are looked up each time, so a client cannot grow the cache.
func (s *Server) handleCounter(handle string) *stats.Counter {
	if c, ok := s.handles.Load(handle); ok {
		return c.(*stats.Counter)
	}
	c := s.reg.Counter("server.handle." + handle)
	if _, ok := queries.Lookup(handle); ok {
		s.handles.Store(handle, c)
	}
	return c
}

// observe records one completed request in the metric registry and,
// when Config.Logf is set, the server log.
func (s *Server) observe(req *protocol.Request, ses *session, principal, handle string, code mrerr.Code, latency time.Duration) {
	o := s.seriesOf(req.Op)
	o.requests.Inc()
	o.latency.Observe(latency)
	if handle != "" {
		s.handleCounter(handle).Inc()
	}
	if code != mrerr.Success {
		s.reg.Counter("server.errors." + strconv.FormatInt(int64(code), 10)).Inc()
		if req.Op == protocol.OpAuth {
			s.reg.Counter("server.auth.failures").Inc()
		}
	}
	if s.logRequests {
		s.cfg.Logf("request client=%d op=%s handle=%s principal=%s code=%d latency=%v trace=%s",
			ses.id, protocol.OpName(req.Op), handle, principal, int32(code), latency, req.TraceID)
	}
}

// authenticate processes an Authenticate request: one argument, a
// Kerberos authenticator payload. All requests received afterwards are
// performed on behalf of the verified principal.
func (s *Server) authenticate(cx *queries.Context, ses *session, req *protocol.Request) mrerr.Code {
	if s.cfg.Verifier == nil {
		return mrerr.KrbNoSrvtab
	}
	if len(req.Args) != 1 {
		return mrerr.MrArgs
	}
	payload, err := kerberos.UnmarshalAuthPayload(req.Args[0])
	if err != nil {
		return mrerr.CodeOf(err)
	}
	principal, app, err := s.cfg.Verifier.Verify(payload)
	if err != nil {
		return mrerr.CodeOf(err)
	}
	cx.Principal = principal
	cx.App = app
	cx.ResolveUser()
	s.mu.Lock()
	ses.principal = principal
	ses.app = app
	s.mu.Unlock()
	s.cfg.Logf("authenticated %s (%s) from %s", principal, app, ses.addr)
	return mrerr.Success
}
