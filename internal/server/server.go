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
	// DefaultDrainTimeout.
	DrainTimeout time.Duration

	// ReadOnly starts the server in read-only mode: retrieval queries
	// are served normally, but mutating queries and Trigger_DCM are
	// refused with MR_READONLY. Replicas run read-only until promoted;
	// SetReadOnly flips the mode at runtime.
	ReadOnly bool

	// Tracer records per-phase spans for every request (read/parse,
	// auth, snapshot acquire, handler, journal, reply write). nil
	// disables span collection; the flat trace ring still works.
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

// DefaultDrainTimeout is how long Close waits for in-flight requests
// when Config.DrainTimeout is zero.
const DefaultDrainTimeout = 5 * time.Second

// Server is a running Moira server.
type Server struct {
	cfg    Config
	clk    clock.Clock
	reg    *stats.Registry
	traces *stats.TraceLog

	ln      net.Listener
	wg      sync.WaitGroup
	closing chan struct{} // closed when Close begins; serveConn drains

	readonly atomic.Bool

	mu       sync.Mutex
	sessions map[int]*session
	conns    map[net.Conn]*connState
	nextID   int
	closed   bool
}

// connState tracks whether a live connection is currently processing a
// request. Close closes idle connections immediately (they are parked in
// a blocking read) and lets in-flight ones finish, up to DrainTimeout.
type connState struct {
	mu       sync.Mutex
	inflight bool
}

func (st *connState) set(v bool) {
	st.mu.Lock()
	st.inflight = v
	st.mu.Unlock()
}

func (st *connState) busy() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.inflight
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
	if cfg.Logf == nil {
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
		cfg:      cfg,
		clk:      clk,
		reg:      reg,
		traces:   stats.NewTraceLog(0),
		closing:  make(chan struct{}),
		sessions: make(map[int]*session),
		conns:    make(map[net.Conn]*connState),
	}
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
// checker: not ready once Close has begun, or while every connection
// slot is taken (new clients are being shed).
func (s *Server) HealthProbe() health.Status {
	s.mu.Lock()
	conns := len(s.conns)
	closed := s.closed
	s.mu.Unlock()
	st := health.Status{
		Name: "server",
		Detail: "conns=" + strconv.Itoa(conns) +
			" max=" + strconv.Itoa(s.cfg.MaxConns) +
			" shed=" + strconv.FormatInt(s.reg.Counter("server.conns.shed").Value(), 10) +
			" readonly=" + strconv.FormatBool(s.readonly.Load()),
	}
	switch {
	case closed || s.draining():
		st.Detail = "draining; " + st.Detail
	case s.cfg.MaxConns > 0 && conns >= s.cfg.MaxConns:
		st.Detail = "at MaxConns, shedding; " + st.Detail
	default:
		st.OK = true
	}
	return st
}

// Traces returns the recent-request trace ring, oldest first.
func (s *Server) Traces() []stats.TraceEntry { return s.traces.Entries() }

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting
// connections in the background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr(), nil
}

// Addr returns the listener address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting and drains: idle connections (parked in a
// blocking read between requests) are closed immediately, in-flight
// requests get up to DrainTimeout to finish, and any stragglers are
// force-closed after that. Historically this waited unconditionally, so
// a single idle client hung shutdown forever.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.closing)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn, st := range s.conns {
		if !st.busy() {
			conn.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	drain := s.cfg.DrainTimeout
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	select {
	case <-done:
		return err
	case <-time.After(drain):
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
		s.reg.Counter("server.conns.forceclosed").Inc()
	}
	s.mu.Unlock()
	// Closed connections unblock their goroutines' I/O; give the
	// stragglers one more drain interval, then return regardless — a
	// handler wedged off-network cannot hold Close hostage.
	select {
	case <-done:
	case <-time.After(drain):
		s.cfg.Logf("close: connections still draining after force-close")
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		st := s.track(conn)
		if st == nil {
			continue // shed (or shutting down)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn, st)
		}()
	}
}

// track registers an accepted connection, enforcing MaxConns. It returns
// nil after shedding (or during shutdown), in which case the connection
// has been dealt with.
func (s *Server) track(conn net.Conn) *connState {
	s.mu.Lock()
	if s.closed || (s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns) {
		closed := s.closed
		s.mu.Unlock()
		if closed {
			conn.Close()
			return nil
		}
		s.reg.Counter("server.conns.shed").Inc()
		s.cfg.Logf("shedding connection from %s: %d connections at MaxConns=%d",
			conn.RemoteAddr(), s.cfg.MaxConns, s.cfg.MaxConns)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.shed(conn)
		}()
		return nil
	}
	st := &connState{}
	s.conns[conn] = st
	s.mu.Unlock()
	return st
}

// shed tells an excess client the server is at capacity: a best-effort
// final MR_BUSY reply, then close. The pre-sent reply answers the
// client's first round trip. Closing right after the write would risk a
// reset that discards the buffered reply before the client reads it, so
// shed briefly waits for that first request (bounded by a deadline)
// before hanging up.
func (s *Server) shed(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	bw := bufio.NewWriter(conn)
	if protocol.WriteReply(bw, &protocol.Reply{Version: protocol.Version, Code: int32(mrerr.MrBusy)}) != nil {
		return
	}
	if bw.Flush() != nil {
		return
	}
	protocol.ReadRequest(bufio.NewReader(conn))
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// draining reports whether Close has begun.
func (s *Server) draining() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
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

func (s *Server) serveConn(conn net.Conn, st *connState) {
	defer conn.Close()
	defer s.untrack(conn)
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
		Traces:     s.traces.Entries,
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
	// one syscall on the way out instead of one per frame.
	repTag := uint16(0)
	reply := func(code mrerr.Code, fields []string) error {
		rep := &protocol.Reply{Version: protocol.Version, Tag: repTag, Code: int32(code)}
		if fields != nil {
			rep.Fields = protocol.BytesArgs(fields)
		}
		if d := s.cfg.WriteTimeout; d > 0 {
			conn.SetWriteDeadline(time.Now().Add(d))
		}
		return protocol.WriteReply(bw, rep)
	}

	for {
		if s.draining() {
			if d := s.cfg.WriteTimeout; d > 0 {
				conn.SetWriteDeadline(time.Now().Add(d))
			}
			bw.Flush()
			return
		}
		st.set(false)
		// Before parking for the next request, push out everything the
		// previous ones buffered — unless more input is already waiting,
		// in which case the flush rides with a later reply.
		if br.Buffered() == 0 && bw.Buffered() > 0 {
			if d := s.cfg.WriteTimeout; d > 0 {
				conn.SetWriteDeadline(time.Now().Add(d))
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if d := s.cfg.IdleTimeout; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		// Park on the first byte without the clock running, so idle time
		// between requests does not pollute the read phase; then the
		// frame read + parse is timed as the request's first span.
		if _, err := br.Peek(1); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !s.draining() {
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
		st.set(true)
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
func (s *Server) dispatch(cx *queries.Context, ses *session, req *protocol.Request, reply func(mrerr.Code, []string) error) (code mrerr.Code, fields []string, handle string, shutdown, fatal bool) {
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
	redirect := func() []string {
		if !failover {
			return nil
		}
		if addr := s.cfg.Failover.PrimaryClient(); addr != "" {
			return []string{addr}
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
		emitFn := func(tuple []string) error {
			if e := reply(mrerr.MrMoreData, tuple); e != nil {
				emitErr = true
				return e
			}
			return nil
		}
		var err error
		if s.cfg.Router != nil {
			err = queries.ExecuteRouted(cx, s.cfg.Router, args[0], args[1:], emitFn)
		} else {
			err = queries.Execute(cx, args[0], args[1:], emitFn)
		}
		if emitErr {
			return mrerr.MrAborted, nil, handle, false, true
		}
		code = mrerr.CodeOf(err)
		if failover && code == mrerr.Success && cx.CommitOK {
			// A gated commit mints the position token the client can
			// present on subsequent reads.
			fields = []string{s.cfg.Failover.Token(cx.CommitSeg, cx.CommitIdx)}
		}

	case protocol.OpAccess:
		if len(req.Args) < 1 {
			code = mrerr.MrArgs
			break
		}
		args := req.StringArgs()
		handle = handleName(args[0])
		var err error
		if s.cfg.Router != nil {
			err = queries.CheckAccessRouted(cx, s.cfg.Router, args[0], args[1:])
		} else {
			err = queries.CheckAccess(cx, args[0], args[1:])
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
			itemCodes := make([]string, len(codes))
			for i, c := range codes {
				itemCodes[i] = strconv.FormatInt(int64(c), 10)
			}
			if reply(mrerr.MrMoreData, itemCodes) != nil {
				return mrerr.MrAborted, nil, handle, false, true
			}
		}
		code = mrerr.CodeOf(err)
		if failover && code == mrerr.Success && cx.CommitOK {
			fields = []string{s.cfg.Failover.Token(cx.CommitSeg, cx.CommitIdx)}
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

// handleName canonicalizes a query handle to its long name for metrics
// (clients may use short tags); routed or unknown handles pass through.
func handleName(name string) string {
	if q, ok := queries.Lookup(name); ok {
		return q.Name
	}
	return name
}

// observe records one completed request in the metric registry, the
// trace ring, and (when verbose) the server log.
func (s *Server) observe(req *protocol.Request, ses *session, principal, handle string, code mrerr.Code, latency time.Duration) {
	op := protocol.OpName(req.Op)
	s.reg.Counter("server.requests." + op).Inc()
	s.reg.HistogramWith("server.latency."+op, stats.FastBuckets).Observe(latency)
	if handle != "" {
		s.reg.Counter("server.handle." + handle).Inc()
	}
	if code != mrerr.Success {
		s.reg.Counter("server.errors." + strconv.FormatInt(int64(code), 10)).Inc()
		if req.Op == protocol.OpAuth {
			s.reg.Counter("server.auth.failures").Inc()
		}
	}
	s.traces.Add(stats.TraceEntry{
		Time:      s.clk.Now().Unix(),
		Trace:     req.TraceID,
		Op:        op,
		Handle:    handle,
		Principal: principal,
		Code:      int32(code),
		Latency:   latency,
	})
	s.cfg.Logf("request client=%d op=%s handle=%s principal=%s code=%d latency=%v trace=%s",
		ses.id, op, handle, principal, int32(code), latency, req.TraceID)
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
