package update

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"moira/internal/clock"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/stats"
	"moira/internal/trace"
)

// Protocol opcodes for the update protocol (distinct from the Moira
// query protocol's range).
const (
	OpUAuth    uint16 = 20 // args: kerberos auth payload
	OpUScript  uint16 = 22 // args: instruction lines
	OpUExecute uint16 = 23 // no args; runs the staged script

	// The data transfer: the pusher sends the new file's chunk
	// manifest, the agent answers with the indices it cannot reuse from
	// the file it already holds, the pusher ships only those, and the
	// agent reassembles and stages the result. Op 21 is unassigned.
	OpUManifest uint16 = 24 // args: target path, whole-file sha256 hex, manifest
	OpUChunks   uint16 = 25 // args: alternating chunk index, chunk data
	OpUAssemble uint16 = 26 // no args; reassemble, verify, stage
)

// Suffixes used by the atomic installation dance.
const (
	updateSuffix = ".moira_update"
	backupSuffix = ".moira_backup"
)

// CommandFunc is a registered handler for the "exec" instruction. The
// original ran shell commands on the target host; here target services
// (the NFS host simulation, the hesiod restart script) register Go
// handlers under command names.
type CommandFunc func(a *Agent, args []string) error

// Agent is the update daemon running on one managed host. Its Root
// directory is the host's private filesystem.
type Agent struct {
	Host string
	Root string

	// Verifier authenticates the DCM; nil accepts unauthenticated pushes
	// (used only in tests).
	Verifier *kerberos.Verifier

	// ReadTimeout bounds each frame read, so "network lossage and
	// machine crashes" cannot hang the agent (section 5.9, timeouts on
	// both sides). Zero means no limit.
	ReadTimeout time.Duration

	// WriteTimeout bounds each reply write. Zero means no limit.
	WriteTimeout time.Duration

	// DrainTimeout bounds how long Close waits for an in-flight update
	// before force-closing its connection; zero means
	// DefaultDrainTimeout.
	DrainTimeout time.Duration

	// BusyWait bounds how long an incoming update waits for a previous
	// update on this host to finish before being rejected with UpdBusy.
	BusyWait time.Duration

	// Clock drives the simulated service latency (SetLatency); nil means
	// the system clock. Fault-injection tests install a clock.Fake so
	// injected slowness elapses in virtual time.
	Clock clock.Clock

	// Signals records pids signalled by the "signal" instruction.
	mu         sync.Mutex
	signals    []int
	commands   map[string]CommandFunc
	crashPoint func(stage string) bool
	latency    time.Duration
	sem        chan struct{}
	conns      map[net.Conn]*connState
	closed     bool

	ln      net.Listener
	wg      sync.WaitGroup
	closing chan struct{}

	reg    *stats.Registry
	traces *stats.TraceLog
	tracer *trace.Tracer
}

// DefaultDrainTimeout is how long Close waits for an in-flight update
// when DrainTimeout is zero.
const DefaultDrainTimeout = 5 * time.Second

// connState tracks whether a connection is mid-request, so Close can
// distinguish idle connections (closed at once) from in-flight updates
// (drained up to DrainTimeout).
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

// NewAgent creates an update agent for a host rooted at dir.
func NewAgent(host, dir string, verifier *kerberos.Verifier) *Agent {
	return &Agent{
		Host: host, Root: dir, Verifier: verifier,
		ReadTimeout: 30 * time.Second,
		BusyWait:    5 * time.Second,
		commands:    make(map[string]CommandFunc),
		sem:         make(chan struct{}, 1),
		conns:       make(map[net.Conn]*connState),
		closing:     make(chan struct{}),
		reg:         stats.NewRegistry(),
		traces:      stats.NewTraceLog(0),
	}
}

// clk returns the agent's clock, defaulting to the system clock.
func (a *Agent) clk() clock.Clock {
	if a.Clock != nil {
		return a.Clock
	}
	return clock.System
}

// BindStats redirects the agent's update.* counters (xfers, installs,
// bytes) into reg, typically a system-wide registry shared with the
// Moira server. Call before Listen.
func (a *Agent) BindStats(reg *stats.Registry) { a.reg = reg }

// Registry returns the registry the agent counts into.
func (a *Agent) Registry() *stats.Registry { return a.reg }

// Traces returns the agent's recent installs, oldest first, each tagged
// with the trace ID the DCM's push carried.
func (a *Agent) Traces() []stats.TraceEntry { return a.traces.Entries() }

// SetTracer attaches a span tracer: each executed installation records
// an agent.install span, parented (via the wire trace field) under the
// DCM push span that delivered it. Call before Listen; nil disables.
func (a *Agent) SetTracer(t *trace.Tracer) { a.tracer = t }

// RegisterCommand installs a handler for "exec name ...".
func (a *Agent) RegisterCommand(name string, fn CommandFunc) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.commands[name] = fn
}

// ExecCommand invokes a registered command directly, as local tooling on
// the host (or a test) would; the update protocol's "exec" instruction
// goes through the same handlers.
func (a *Agent) ExecCommand(name string, args []string) error {
	a.mu.Lock()
	fn := a.commands[name]
	a.mu.Unlock()
	if fn == nil {
		return mrerr.UpdBadInstr
	}
	return fn(a, args)
}

// Signals returns the pids signalled so far.
func (a *Agent) Signals() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, len(a.signals))
	copy(out, a.signals)
	return out
}

// Listen binds addr and serves update connections in the background.
func (a *Agent) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a.ln = ln
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			st := a.track(conn)
			if st == nil {
				conn.Close() // shutting down
				continue
			}
			a.wg.Add(1)
			go func() {
				defer a.wg.Done()
				a.serve(conn, st)
			}()
		}
	}()
	return ln.Addr(), nil
}

func (a *Agent) track(conn net.Conn) *connState {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	st := &connState{}
	a.conns[conn] = st
	return st
}

func (a *Agent) untrack(conn net.Conn) {
	a.mu.Lock()
	delete(a.conns, conn)
	a.mu.Unlock()
}

// draining reports whether Close has begun.
func (a *Agent) draining() bool {
	if a.closing == nil {
		return false
	}
	select {
	case <-a.closing:
		return true
	default:
		return false
	}
}

// Addr returns the bound address.
func (a *Agent) Addr() net.Addr {
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

// Close stops the agent: it stops accepting, closes idle connections at
// once, waits up to DrainTimeout for an in-flight update to finish, then
// force-closes whatever is left. Before conn tracking existed, a
// connected DCM sitting between frames (with ReadTimeout 0) hung Close
// forever.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		a.wg.Wait()
		return nil
	}
	a.closed = true
	if a.closing != nil {
		close(a.closing)
	}
	var err error
	if a.ln != nil {
		err = a.ln.Close()
	}
	for conn, st := range a.conns {
		if !st.busy() {
			conn.Close()
		}
	}
	a.mu.Unlock()

	done := make(chan struct{})
	go func() {
		a.wg.Wait()
		close(done)
	}()
	drain := a.DrainTimeout
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	select {
	case <-done:
		return err
	case <-time.After(drain):
	}
	a.mu.Lock()
	for conn := range a.conns {
		conn.Close()
		a.reg.Counter("update.conns.forceclosed").Inc()
	}
	a.mu.Unlock()
	select {
	case <-done:
	case <-time.After(drain):
		// An instruction wedged off-network cannot hold Close hostage.
	}
	return err
}

// path resolves a target-relative path inside the agent root, rejecting
// escapes.
func (a *Agent) path(p string) (string, error) {
	clean := filepath.Join(a.Root, filepath.FromSlash(strings.TrimPrefix(p, "/")))
	if !strings.HasPrefix(clean, filepath.Clean(a.Root)+string(os.PathSeparator)) &&
		clean != filepath.Clean(a.Root) {
		return "", mrerr.UpdBadInstr
	}
	return clean, nil
}

// ReadHostFile reads a file from the host's private filesystem, for
// the services (and tests) running on this host.
func (a *Agent) ReadHostFile(p string) ([]byte, error) {
	fp, err := a.path(p)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(fp)
}

// RenameHostFile atomically renames one host file to another, for
// registered commands that perform their own controlled switchover (the
// mailhub's aliases activation).
func (a *Agent) RenameHostFile(oldPath, newPath string) error {
	op, err := a.path(oldPath)
	if err != nil {
		return err
	}
	np, err := a.path(newPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(np), 0o755); err != nil {
		return err
	}
	return os.Rename(op, np)
}

// WriteHostFile writes a file into the host's private filesystem.
func (a *Agent) WriteHostFile(p string, data []byte) error {
	fp, err := a.path(p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(fp), 0o755); err != nil {
		return err
	}
	return os.WriteFile(fp, data, 0o644)
}

type updateSession struct {
	agent  *Agent
	authed bool
	target string
	script []string
	trace  string // bare trace ID carried by the push's requests
	parent string // span ID of the DCM push span, from the wire field

	// bundle is the staged archive as chunkAssemble verified it; nil
	// until a transfer in this session succeeds. "extract" takes members
	// from it in place, so the archive is never read back from disk, and
	// it dies with the session: no agent keeps a bundle between pushes.
	bundle []byte

	// Chunked-transfer state, alive between OpUManifest and OpUAssemble.
	manifest    []Chunk
	wholeSum    string
	chunkTarget string
	have        map[string][]byte // checksum -> chunk bytes (reused + received)

	// fields carries reply fields for the next reply (the manifest
	// response lists the needed chunk indices).
	fields [][]byte
}

// takeFields returns and clears the pending reply fields.
func (s *updateSession) takeFields() [][]byte {
	f := s.fields
	s.fields = nil
	return f
}

// SetCrashPoint installs (or clears, with nil) a crash-injection hook:
// it is consulted with a stage label, and returning true makes the agent
// drop the connection there, simulating a server crash mid-update for
// the recovery tests.
func (a *Agent) SetCrashPoint(fn func(stage string) bool) {
	a.mu.Lock()
	a.crashPoint = fn
	a.mu.Unlock()
}

// SetLatency sets a simulated service delay: each incoming update
// connection sleeps this long after acquiring the host lock, modeling
// the slow or distant servers whose updates section 5.7 forks children
// for so they cannot stall a whole distribution pass. The wait goes
// through the agent's clock — real by default (benchmarks measure
// wall-clock parallelism), virtual when a test installs a clock.Fake,
// so fault-injection runs need not sleep for real.
func (a *Agent) SetLatency(d time.Duration) {
	a.mu.Lock()
	a.latency = d
	a.mu.Unlock()
}

func (a *Agent) crash(conn net.Conn, stage string) bool {
	a.mu.Lock()
	fn := a.crashPoint
	a.mu.Unlock()
	if fn != nil && fn(stage) {
		conn.Close()
		return true
	}
	return false
}

// lock marks the host busy for the duration of one update, implementing
// the "only one update at a time per host" rule. It waits up to BusyWait
// for a previous update (or its connection teardown) to finish.
func (a *Agent) lock() bool {
	select {
	case a.sem <- struct{}{}:
		return true
	default:
	}
	if a.BusyWait <= 0 {
		return false
	}
	select {
	case a.sem <- struct{}{}:
		return true
	case <-time.After(a.BusyWait):
		return false
	}
}

func (a *Agent) unlock() {
	<-a.sem
}

func (a *Agent) serve(conn net.Conn, st *connState) {
	defer conn.Close()
	defer a.untrack(conn)
	if !a.lock() {
		a.reg.Counter("update.conns.busy").Inc()
		bw := bufio.NewWriter(conn)
		if a.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(a.WriteTimeout))
		}
		protocol.WriteReply(bw, &protocol.Reply{Version: protocol.Version, Code: int32(mrerr.UpdBusy)})
		bw.Flush()
		return
	}
	defer a.unlock()

	a.mu.Lock()
	lat := a.latency
	a.mu.Unlock()
	if lat > 0 {
		clock.Sleep(a.clk(), lat)
	}

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	ses := &updateSession{agent: a, authed: a.Verifier == nil}

	reply := func(code mrerr.Code) error {
		if a.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(a.WriteTimeout))
		}
		rep := &protocol.Reply{Version: protocol.Version, Code: int32(code), Fields: ses.takeFields()}
		if err := protocol.WriteReply(bw, rep); err != nil {
			return err
		}
		return bw.Flush()
	}

	for {
		if a.draining() {
			return
		}
		st.set(false)
		if a.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(a.ReadTimeout))
		}
		req, err := protocol.ReadRequest(br)
		if err != nil {
			return
		}
		st.set(true)
		if req.Version != protocol.Version {
			if reply(mrerr.MrVersionMismatch) != nil {
				return
			}
			continue
		}
		if req.TraceID != "" {
			// The wire field may carry "traceID/spanID"; the install log
			// keeps the bare trace ID, the span links under the push span.
			ses.trace, ses.parent = trace.Split(req.TraceID)
		}
		code, fatal := a.dispatch(conn, ses, req)
		if fatal {
			return // crash injection dropped the connection
		}
		if reply(code) != nil {
			return
		}
	}
}

// dispatch executes one update-protocol request. Like the Moira server,
// the agent recovers from a panicking instruction or command handler —
// one bad installation script must not kill the daemon that every other
// service's updates flow through — replying MR_INTERNAL and counting
// update.panics.recovered.
func (a *Agent) dispatch(conn net.Conn, ses *updateSession, req *protocol.Request) (code mrerr.Code, fatal bool) {
	defer func() {
		if r := recover(); r != nil {
			a.reg.Counter("update.panics.recovered").Inc()
			code, fatal = mrerr.MrInternal, false
		}
	}()
	switch req.Op {
	case OpUAuth:
		code = ses.auth(req)
	case OpUManifest:
		code = ses.chunkManifest(req)
	case OpUChunks:
		code = ses.chunkData(req)
	case OpUAssemble:
		// The assemble is the step that stages the transferred file,
		// so the xfer crash points ("server died around the data
		// transfer") fire here.
		if a.crash(conn, "before-xfer") {
			return code, true
		}
		code = ses.chunkAssemble(req)
		if a.crash(conn, "after-xfer") {
			return code, true
		}
	case OpUScript:
		code = ses.loadScript(req)
	case OpUExecute:
		if a.crash(conn, "before-execute") {
			return code, true
		}
		start := time.Now()
		sp := a.tracer.Start(ses.trace, ses.parent, "agent.install")
		sp.SetDetail(ses.target)
		code = ses.execute(conn, sp)
		if code == mrerr.Code(-1) {
			sp.EndCode(int32(mrerr.MrInternal))
			return code, true // crashed mid-execution
		}
		sp.EndCode(int32(code))
		if code == mrerr.Success {
			a.reg.Counter("update.installs").Inc()
		}
		a.traces.Add(stats.TraceEntry{
			Time:      time.Now().Unix(),
			Trace:     ses.trace,
			Op:        "install",
			Handle:    ses.target,
			Principal: a.Host,
			Code:      int32(code),
			Latency:   time.Since(start),
		})
	default:
		code = mrerr.MrUnknownProc
	}
	return code, false
}

func (s *updateSession) auth(req *protocol.Request) mrerr.Code {
	if s.agent.Verifier == nil {
		return mrerr.Success
	}
	if len(req.Args) != 1 {
		return mrerr.MrArgs
	}
	payload, err := kerberos.UnmarshalAuthPayload(req.Args[0])
	if err != nil {
		return mrerr.UpdAuthFailed
	}
	if _, _, err := s.agent.Verifier.Verify(payload); err != nil {
		return mrerr.UpdAuthFailed
	}
	s.authed = true
	return mrerr.Success
}

// chunkManifest starts a chunked transfer: parse the new file's
// manifest, chunk whatever currently sits at the target path, pre-fill
// the chunks the old file already supplies, and answer with the indices
// the pusher must still send.
func (s *updateSession) chunkManifest(req *protocol.Request) mrerr.Code {
	if !s.authed {
		return mrerr.UpdAuthFailed
	}
	if len(req.Args) != 3 {
		return mrerr.MrArgs
	}
	target := string(req.Args[0])
	wholeSum := string(req.Args[1])
	manifest, err := DecodeManifest(req.Args[2])
	if err != nil {
		return mrerr.MrArgs
	}
	if len(wholeSum) != 64 {
		return mrerr.MrArgs
	}
	if _, err := s.agent.path(target); err != nil {
		return mrerr.UpdBadInstr
	}

	wanted := map[string]bool{}
	for _, c := range manifest {
		wanted[c.Sum] = true
	}
	have := map[string][]byte{}
	reused, reusedBytes := 0, 0
	if old, err := s.agent.ReadHostFile(target); err == nil {
		for _, c := range SplitChunks(old) {
			if wanted[c.Sum] && have[c.Sum] == nil {
				have[c.Sum] = old[c.Off : c.Off+c.Len]
			}
		}
	}
	var needed [][]byte
	seen := map[string]bool{}
	for i, c := range manifest {
		if _, ok := have[c.Sum]; ok {
			reused++
			reusedBytes += c.Len
			continue
		}
		if seen[c.Sum] {
			continue // a duplicate chunk travels once
		}
		seen[c.Sum] = true
		needed = append(needed, []byte(strconv.Itoa(i)))
	}

	s.manifest = manifest
	s.wholeSum = wholeSum
	s.chunkTarget = target
	s.have = have
	s.fields = needed
	s.agent.reg.Counter("update.chunks.manifests").Inc()
	s.agent.reg.Counter("update.chunks.reused").Add(int64(reused))
	s.agent.reg.Counter("update.chunks.bytes.reused").Add(int64(reusedBytes))
	return mrerr.Success
}

// chunkData receives pushed chunks (alternating index and data args),
// verifying each against the manifest before keeping it.
func (s *updateSession) chunkData(req *protocol.Request) mrerr.Code {
	if !s.authed {
		return mrerr.UpdAuthFailed
	}
	if s.manifest == nil {
		return mrerr.UpdNoFile
	}
	if len(req.Args)%2 != 0 {
		return mrerr.MrArgs
	}
	pushed, pushedBytes := 0, 0
	for i := 0; i+1 < len(req.Args); i += 2 {
		idx, err := strconv.Atoi(string(req.Args[i]))
		if err != nil || idx < 0 || idx >= len(s.manifest) {
			return mrerr.MrArgs
		}
		c := s.manifest[idx]
		data := req.Args[i+1]
		if len(data) != c.Len || !sumIs(data, c.Sum) {
			return mrerr.UpdChecksum
		}
		s.have[c.Sum] = data
		pushed++
		pushedBytes += len(data)
	}
	s.agent.reg.Counter("update.chunks.pushed").Add(int64(pushed))
	s.agent.reg.Counter("update.chunks.bytes.pushed").Add(int64(pushedBytes))
	return mrerr.Success
}

// chunkAssemble reassembles the file from reused and received chunks,
// verifies the whole-file checksum ("the file transfer includes a
// checksum to insure data integrity"), and stages it at the target
// path, flushed to disk before the reply ("flush all data on the server
// to disk").
func (s *updateSession) chunkAssemble(req *protocol.Request) mrerr.Code {
	if !s.authed {
		return mrerr.UpdAuthFailed
	}
	if s.manifest == nil {
		return mrerr.UpdNoFile
	}
	data, err := Reassemble(s.manifest, s.have, s.wholeSum)
	if err != nil {
		return mrerr.UpdChecksum
	}
	target := s.chunkTarget
	s.manifest, s.have, s.wholeSum, s.chunkTarget = nil, nil, "", ""

	fp, perr := s.agent.path(target)
	if perr != nil {
		return mrerr.UpdBadInstr
	}
	if err := os.MkdirAll(filepath.Dir(fp), 0o755); err != nil {
		return mrerr.MrInternal
	}
	// A stale .moira_update from a crashed run "will be deleted (as it
	// may be incomplete) when the next update starts".
	matches, _ := filepath.Glob(fp + "*" + updateSuffix)
	for _, m := range matches {
		os.Remove(m)
	}
	f, err := os.Create(fp)
	if err != nil {
		return mrerr.MrInternal
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return mrerr.MrInternal
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return mrerr.MrInternal
	}
	if err := f.Close(); err != nil {
		return mrerr.MrInternal
	}
	s.target = target
	s.bundle = data
	// Staged files and their sizes; the chunk counters hold the
	// wire-level story.
	s.agent.reg.Counter("update.xfers").Inc()
	s.agent.reg.Counter("update.bytes").Add(int64(len(data)))
	return mrerr.Success
}

func (s *updateSession) loadScript(req *protocol.Request) mrerr.Code {
	if !s.authed {
		return mrerr.UpdAuthFailed
	}
	s.script = req.StringArgs()
	return mrerr.Success
}

// execute runs the staged instruction sequence, recording each extract
// and exec as an agent.extract / agent.exec phase of the install span
// sp, so the span histograms split an install into unpacking and the
// service's own reload. A crash injected between instructions returns
// the sentinel -1 so serve drops the connection.
func (s *updateSession) execute(conn net.Conn, sp *trace.Span) mrerr.Code {
	if !s.authed {
		return mrerr.UpdAuthFailed
	}
	if s.script == nil {
		return mrerr.UpdNoFile
	}
	for i, line := range s.script {
		if s.agent.crash(conn, fmt.Sprintf("instr-%d", i)) {
			return mrerr.Code(-1)
		}
		if code := s.runInstruction(line, sp); code != mrerr.Success {
			return code
		}
	}
	return mrerr.Success
}

func (s *updateSession) runInstruction(line string, sp *trace.Span) mrerr.Code {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return mrerr.Success
	}
	a := s.agent
	switch fields[0] {
	case "extract": // extract <member> <dest>
		start := time.Now()
		code := s.extract(fields)
		sp.Record("agent.extract", start, time.Since(start), int32(code))
		return code

	case "install": // install <path>: atomic rename of <path>.moira_update
		if len(fields) != 2 {
			return mrerr.UpdBadInstr
		}
		fp, err := a.path(fields[1])
		if err != nil {
			return mrerr.UpdBadInstr
		}
		if _, err := os.Stat(fp + updateSuffix); err != nil {
			return mrerr.UpdNoFile
		}
		// Keep the old file for revert; both stay in the same directory
		// so the renames never cross a partition.
		if _, err := os.Stat(fp); err == nil {
			if err := os.Rename(fp, fp+backupSuffix); err != nil {
				return mrerr.UpdRename
			}
		}
		if err := os.Rename(fp+updateSuffix, fp); err != nil {
			return mrerr.UpdRename
		}
		return mrerr.Success

	case "revert": // revert <path>: put the old file back
		if len(fields) != 2 {
			return mrerr.UpdBadInstr
		}
		fp, err := a.path(fields[1])
		if err != nil {
			return mrerr.UpdBadInstr
		}
		if _, err := os.Stat(fp + backupSuffix); err != nil {
			return mrerr.UpdNoRevert
		}
		if err := os.Rename(fp+backupSuffix, fp); err != nil {
			return mrerr.UpdRename
		}
		return mrerr.Success

	case "signal": // signal <pidfile>
		if len(fields) != 2 {
			return mrerr.UpdBadInstr
		}
		data, err := a.ReadHostFile(fields[1])
		if err != nil {
			return mrerr.UpdNoFile
		}
		pid, err := strconv.Atoi(strings.TrimSpace(string(data)))
		if err != nil {
			return mrerr.UpdBadInstr
		}
		a.mu.Lock()
		a.signals = append(a.signals, pid)
		a.mu.Unlock()
		return mrerr.Success

	case "exec": // exec <command> [args...]
		start := time.Now()
		code := s.exec(fields)
		sp.Record("agent.exec", start, time.Since(start), int32(code))
		return code

	default:
		return mrerr.UpdBadInstr
	}
}

// extract writes one member of the staged bundle to <dest>.moira_update.
// The member is a sub-slice of the verified in-memory bundle: it is
// neither read back from disk nor copied before the write.
func (s *updateSession) extract(fields []string) mrerr.Code {
	if len(fields) != 3 || s.bundle == nil {
		return mrerr.UpdBadInstr
	}
	data, err := ExtractMember(s.bundle, fields[1])
	if err != nil {
		return mrerr.UpdNoFile
	}
	if err := s.agent.WriteHostFile(fields[2]+updateSuffix, data); err != nil {
		if code, ok := err.(mrerr.Code); ok {
			return code
		}
		return mrerr.MrInternal
	}
	return mrerr.Success
}

// exec runs a registered command: the service's own reload.
func (s *updateSession) exec(fields []string) mrerr.Code {
	if len(fields) < 2 {
		return mrerr.UpdBadInstr
	}
	a := s.agent
	a.mu.Lock()
	fn := a.commands[fields[1]]
	a.mu.Unlock()
	if fn == nil {
		return mrerr.UpdBadInstr
	}
	if err := fn(a, fields[2:]); err != nil {
		return mrerr.UpdScriptError
	}
	return mrerr.Success
}
