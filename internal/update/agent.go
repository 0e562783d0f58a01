package update

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"moira/internal/clock"
	"moira/internal/health"
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

	// The data transfer: the pusher names the base the new file is made
	// from (the empty file for a whole push) and the new file's sum,
	// then sends the edits, each replacing a stretch of the base, in
	// order; the agent applies each to the target's bytes as it arrives,
	// writing the result to a staging file, and the assemble copies the
	// rest, checks both sums and renames the staging file over the
	// target. Op 21 is unassigned.
	OpUBegin    uint16 = 24 // args: target path, base sha256 hex, new sha256 hex
	OpUEdits    uint16 = 25 // args: (old offset, old length, new bytes) per edit; offset and length 8-byte big-endian
	OpUAssemble uint16 = 26 // no args; copy the rest, verify, rename
)

// Suffixes used by the atomic installation dance: a transfer stages its
// target at <target>.moira_xfer, an extract its member at
// <dest>.moira_update, and install keeps the replaced file at
// <path>.moira_backup.
const (
	xferSuffix   = ".moira_xfer"
	updateSuffix = ".moira_update"
	backupSuffix = ".moira_backup"
)

// CommandFunc is a registered handler for the "exec" instruction. The
// original ran shell commands on the target host; here target services
// (the NFS host simulation, the hesiod restart script) register Go
// handlers under command names. in is the view of the push running the
// command (nil when local tooling runs it), so a service can reload
// only what the push changed. args is valid until the command returns;
// its strings may be kept.
type CommandFunc func(a *Agent, in *Install, args []string) error

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
	// protocol.DefaultDrainTimeout.
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

	// The connection of the one session holding the host lock (section
	// 5.9 allows one update at a time per host) is read and written
	// through these, reset for each connection, so the frame buffer a
	// push's edits arrive in outlives the connection.
	br *bufio.Reader
	bw *bufio.Writer
	fr *protocol.FrameReader

	// ln accepts, drains and force-closes the connections.
	ln *protocol.Listener

	// root is Root cleaned, ending in a separator: every host path
	// starts with it.
	root string

	// What the agent keeps between pushes, in memory only, read and
	// written only by the session holding the host lock. assembled maps
	// a target's host path to the bundle last assembled there, placed a
	// destination's host path to the member the last install put there.
	assembled map[string]bundleIndex
	placed    map[string]placement

	reg    *stats.Registry
	tracer *trace.Tracer
}

// bundleIndex is a bundle's sum and the index of its members, built
// from bytes checked against that sum.
type bundleIndex struct {
	sum   Sum
	index *tarIndex
}

// placement is what an install put at a destination: member of the
// bundle whose sum is sum, assembled at the host path target, in the
// file fi describes (its inode, size and mtime right after the rename).
type placement struct {
	sum    Sum
	member string
	target string
	fi     os.FileInfo
}

// NewAgent creates an update agent for a host rooted at dir.
func NewAgent(host, dir string, verifier *kerberos.Verifier) *Agent {
	root := filepath.Clean(dir)
	if !strings.HasSuffix(root, string(os.PathSeparator)) {
		root += string(os.PathSeparator)
	}
	return &Agent{
		Host: host, Root: dir, Verifier: verifier,
		ReadTimeout: 30 * time.Second,
		BusyWait:    5 * time.Second,
		commands:    make(map[string]CommandFunc),
		sem:         make(chan struct{}, 1),
		ln:          protocol.NewListener(),
		reg:         stats.NewRegistry(),
		root:        root,
		assembled:   make(map[string]bundleIndex),
		placed:      make(map[string]placement),
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
// goes through the same handlers. There is no push, so the command gets
// a nil view and reads what it needs from the host's files.
func (a *Agent) ExecCommand(name string, args []string) error {
	a.mu.Lock()
	fn := a.commands[name]
	a.mu.Unlock()
	if fn == nil {
		return mrerr.UpdBadInstr
	}
	return fn(a, nil, args)
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
	a.ln.Drain = a.DrainTimeout
	a.ln.ForceClosed = a.reg.Counter("update.conns.forceclosed")
	return a.ln.Listen(addr, a.serve)
}

// Addr returns the bound address.
func (a *Agent) Addr() net.Addr { return a.ln.Addr() }

// Close stops the agent (protocol.Listener.Close): it stops accepting,
// closes idle connections at once, waits up to DrainTimeout for an
// in-flight update to finish, then force-closes whatever is left. An
// update still waiting for the host lock gives up.
func (a *Agent) Close() error { return a.ln.Close() }

// HealthProbe reports the agent's drain state for the health checker
// (protocol.Listener.State): not ready once Close has begun.
func (a *Agent) HealthProbe() health.Status {
	ok, detail := a.ln.State()
	return health.Status{Name: "agent", OK: ok, Detail: detail + " host=" + a.Host +
		" busy=" + strconv.FormatInt(a.reg.Counter("update.conns.busy").Value(), 10)}
}

// HostPath resolves a host path inside the agent root, refusing one
// that escapes it (UpdBadInstr). Every instruction and registered
// command reaches the host's files through it. The path it returns is
// the one string it allocates for a clean p.
func (a *Agent) HostPath(p string) (string, error) {
	clean := filepath.Clean(a.root + filepath.FromSlash(strings.TrimLeft(p, "/")))
	if !strings.HasPrefix(clean, a.root) && clean != a.root[:len(a.root)-1] {
		return "", mrerr.UpdBadInstr
	}
	return clean, nil
}

// filePath is HostPath for an instruction's destination, which names a
// file in the root, never the root itself: its staging and backup
// names sit beside it.
func (a *Agent) filePath(p string) (string, error) {
	fp, err := a.HostPath(p)
	if err == nil && len(fp) < len(a.root) {
		err = mrerr.UpdBadInstr
	}
	return fp, err
}

// ReadHostFile reads a file from the host's private filesystem, for
// the services (and tests) running on this host.
func (a *Agent) ReadHostFile(p string) ([]byte, error) {
	fp, err := a.HostPath(p)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(fp)
}

// RenameHostFile atomically renames one host file to another, for
// registered commands that perform their own controlled switchover (the
// mailhub's aliases activation).
func (a *Agent) RenameHostFile(oldPath, newPath string) error {
	op, err := a.HostPath(oldPath)
	if err != nil {
		return err
	}
	np, err := a.HostPath(newPath)
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
	fp, err := a.HostPath(p)
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
	fields []string // the instruction running, split
	trace  string   // bare trace ID carried by the push's requests
	parent string   // span ID of the DCM push span, from the wire field

	// install is the exec commands' view of the transfer, reading the
	// staged bundle and the one it replaced through the handles the
	// transfer opened: nil until a transfer in this session succeeds,
	// added to by each extract, closed with the session. installed is
	// the host path the transfer assembled it at.
	install   *Install
	installed string

	// kept holds the destinations (host paths) whose last extract in
	// this session found the member already in place and wrote nothing;
	// their install and revert do nothing.
	kept map[string]bool

	// xfer is the transfer between OpUBegin and OpUAssemble, to
	// xferTarget; a session that ends without assembling it removes its
	// staging file.
	xfer       *xfer
	xferTarget string
}

// end closes the session's view of its transfer, keeping the index of
// its bundle's members if an extract built one, and abandons a transfer
// it did not assemble.
func (s *updateSession) end() {
	if in := s.install; in != nil && in.newIndex != nil {
		s.agent.assembled[s.installed] = bundleIndex{in.sum, in.newIndex}
	}
	s.install.Close()
	s.install = nil
	clear(s.kept)
	s.abandon()
}

// abandon drops the transfer in progress, if any: its staging file is
// removed, and the target stays as it is.
func (s *updateSession) abandon() {
	if s.xfer != nil {
		s.xfer.abort()
		s.xfer = nil
	}
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
// for a previous update (or its connection teardown) to finish, and
// gives up when Close begins.
func (a *Agent) lock() bool {
	select {
	case a.sem <- struct{}{}:
		return true
	default:
	}
	if a.BusyWait <= 0 {
		return false
	}
	t := time.NewTimer(a.BusyWait)
	defer t.Stop()
	select {
	case a.sem <- struct{}{}:
		return true
	case <-t.C:
	case <-a.ln.Draining():
	}
	return false
}

func (a *Agent) unlock() {
	<-a.sem
}

func (a *Agent) serve(c *protocol.Conn) {
	conn := c.Conn
	if !a.lock() {
		if a.ln.Closed() {
			return
		}
		a.reg.Counter("update.conns.busy").Inc()
		a.reply(conn, bufio.NewWriter(conn), mrerr.UpdBusy)
		return
	}
	defer a.unlock()

	a.mu.Lock()
	lat := a.latency
	a.mu.Unlock()
	if lat > 0 {
		clock.Sleep(a.clk(), lat)
	}

	if a.fr == nil {
		a.br, a.bw = bufio.NewReader(conn), bufio.NewWriter(conn)
		a.fr = protocol.NewFrameReader(a.br)
	} else {
		a.br.Reset(conn)
		a.bw.Reset(conn)
	}
	ses := &updateSession{agent: a, authed: a.Verifier == nil}
	defer ses.end()

	for {
		if c.Idle() {
			return
		}
		if a.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(a.ReadTimeout))
		}
		// A request is valid until the next read: the handlers copy
		// what they keep and write pushed edits to the staging file.
		req, err := a.fr.ReadRequest()
		if err != nil {
			return
		}
		c.Begin()
		if req.Version != protocol.Version {
			if a.reply(conn, a.bw, mrerr.MrVersionMismatch) != nil {
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
		if a.reply(conn, a.bw, code) != nil {
			return
		}
	}
}

// reply writes and flushes one reply frame under the write deadline.
func (a *Agent) reply(conn net.Conn, bw *bufio.Writer, code mrerr.Code) error {
	if a.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(a.WriteTimeout))
	}
	if err := protocol.WriteReply(bw, &protocol.Reply{Version: protocol.Version, Code: int32(code)}); err != nil {
		return err
	}
	return bw.Flush()
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
	case OpUBegin:
		code = ses.begin(req)
	case OpUEdits:
		code = ses.edits(req)
	case OpUAssemble:
		// The assemble is the step that stages the transferred file,
		// so the xfer crash points ("server died around the data
		// transfer") fire here.
		if a.crash(conn, "before-xfer") {
			return code, true
		}
		code = ses.assemble(req)
		if a.crash(conn, "after-xfer") {
			return code, true
		}
	case OpUScript:
		code = ses.loadScript(req)
	case OpUExecute:
		if a.crash(conn, "before-execute") {
			return code, true
		}
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
	payload, err := kerberos.UnmarshalAuthPayload(bytes.Clone(req.Args[0]))
	if err != nil {
		return mrerr.UpdAuthFailed
	}
	if _, _, err := s.agent.Verifier.Verify(payload); err != nil {
		return mrerr.UpdAuthFailed
	}
	s.authed = true
	return mrerr.Success
}

// begin starts a transfer: it opens the target, unless the base is the
// empty file, and creates the staging file. A second begin in a session
// replaces the first.
func (s *updateSession) begin(req *protocol.Request) mrerr.Code {
	if !s.authed {
		return mrerr.UpdAuthFailed
	}
	if len(req.Args) != 3 {
		return mrerr.MrArgs
	}
	var base, sum Sum
	for i, dst := range []*Sum{&base, &sum} {
		if len(req.Args[1+i]) != 2*len(dst) {
			return mrerr.MrArgs
		}
		if _, err := hex.Decode(dst[:], req.Args[1+i]); err != nil {
			return mrerr.MrArgs
		}
	}
	target := string(req.Args[0])
	fp, err := s.agent.HostPath(target)
	if err != nil {
		return mrerr.UpdBadInstr
	}
	s.abandon()
	x, err := beginXfer(fp, base, sum)
	if err != nil {
		return mrerr.MrInternal
	}
	s.xfer, s.xferTarget = x, target
	return mrerr.Success
}

// edits applies pushed edits (offset, length, data per edit) to the
// transfer, writing each into the staging file as it arrives. A failed
// edit ends the transfer.
func (s *updateSession) edits(req *protocol.Request) mrerr.Code {
	if !s.authed {
		return mrerr.UpdAuthFailed
	}
	if s.xfer == nil {
		return mrerr.UpdNoFile
	}
	if len(req.Args)%3 != 0 {
		return mrerr.MrArgs
	}
	for i := 0; i < len(req.Args); i += 3 {
		off, ok1 := uint63(req.Args[i])
		n, ok2 := uint63(req.Args[i+1])
		code := mrerr.MrArgs
		if ok1 && ok2 {
			code = s.xfer.apply(off, n, req.Args[i+2])
		}
		if code != mrerr.Success {
			s.failed(s.xfer, code)
			return code
		}
	}
	return mrerr.Success
}

// uint63 parses an 8-byte big-endian offset or length.
func uint63(b []byte) (int, bool) {
	if len(b) != 8 || b[0]&0x80 != 0 {
		return 0, false
	}
	return int(binary.BigEndian.Uint64(b)), true
}

// failed abandons a transfer that failed with code, forgetting the
// index of the bundle its target held and counting a base mismatch.
func (s *updateSession) failed(x *xfer, code mrerr.Code) {
	delete(s.agent.assembled, x.fp)
	s.abandon()
	if code == mrerr.UpdBaseMismatch {
		s.agent.reg.Counter("update.base.mismatch").Inc()
	}
}

// assemble finishes the transfer (xfer.assemble): the staged file is
// checked and renamed over the target. The staging file stays open as
// the session's view of the new bundle, the target's old inode as its
// view of the old one. When the verified base is the bundle the agent
// last assembled there, the view takes that bundle's kept member index
// instead of walking its headers again.
func (s *updateSession) assemble(req *protocol.Request) mrerr.Code {
	if !s.authed {
		return mrerr.UpdAuthFailed
	}
	if s.xfer == nil {
		return mrerr.UpdNoFile
	}
	x, target := s.xfer, s.xferTarget
	s.xfer, s.xferTarget = nil, ""
	s.end()

	in, code := x.assemble()
	if code != mrerr.Success {
		s.failed(x, code)
		return code
	}
	if k, ok := s.agent.assembled[x.fp]; ok && k.sum == in.base {
		in.oldIndex = k.index
	}
	in.headers = s.agent.reg.Counter("update.headers.read")
	delete(s.agent.assembled, x.fp)
	s.target, s.install, s.installed = target, in, x.fp
	// Staged files and their sizes, the edits that made them and the
	// runs of the old file they kept.
	reg := s.agent.reg
	reg.Counter("update.xfers").Inc()
	reg.Counter("update.bytes").Add(int64(in.new.Len()))
	reg.Counter("update.chunks.pushed").Add(int64(len(x.edits)))
	reg.Counter("update.chunks.reused").Add(int64(x.kept))
	return mrerr.Success
}

// loadScript keeps the script's lines: one string holds them all, and
// each line is a slice of it.
func (s *updateSession) loadScript(req *protocol.Request) mrerr.Code {
	if !s.authed {
		return mrerr.UpdAuthFailed
	}
	n := 0
	for _, a := range req.Args {
		n += len(a)
	}
	var b strings.Builder
	b.Grow(n)
	for _, a := range req.Args {
		b.Write(a)
	}
	all := b.String()
	s.script = make([]string, len(req.Args))
	for i, a := range req.Args {
		s.script[i], all = all[:len(a)], all[len(a):]
	}
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
	s.agent.mu.Lock()
	hooked := s.agent.crashPoint != nil
	s.agent.mu.Unlock()
	for i, line := range s.script {
		if hooked && s.agent.crash(conn, fmt.Sprintf("instr-%d", i)) {
			return mrerr.Code(-1)
		}
		if code := s.runInstruction(line, sp); code != mrerr.Success {
			return code
		}
	}
	s.removeLeft()
	return mrerr.Success
}

// removeLeft removes, once the script has succeeded, each destination
// an earlier install of the push's target placed that this push
// neither installed nor kept: the file of a member that left the
// bundle, and its backup. Each install and keep of this push recorded
// its destination under the new bundle, so these are the target's
// placements under any other sum; one a failed push left behind goes
// with the next push that succeeds.
func (s *updateSession) removeLeft() {
	if s.install == nil {
		return
	}
	for fp, p := range s.agent.placed {
		if p.target != s.installed || p.sum == s.install.sum {
			continue
		}
		if err := os.Remove(fp); err != nil && !os.IsNotExist(err) {
			continue // kept placed: the next push that succeeds retries
		}
		os.Remove(fp + backupSuffix) // only a revert of fp, which no script now names, reads it
		delete(s.agent.placed, fp)
		s.agent.reg.Counter("update.files.removed").Inc()
	}
}

func (s *updateSession) runInstruction(line string, sp *trace.Span) mrerr.Code {
	s.fields = appendFields(s.fields[:0], line)
	fields := s.fields
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
		fp, err := a.filePath(fields[1])
		if err != nil {
			return mrerr.UpdBadInstr
		}
		if s.kept[fp] { // the file is already the new bundle's member
			p := a.placed[fp]
			p.sum = s.install.sum
			a.placed[fp] = p
			return mrerr.Success
		}
		staged := fp + updateSuffix
		if _, err := os.Stat(staged); err != nil {
			return mrerr.UpdNoFile
		}
		// Keep the old file, if there is one, for revert; both stay in
		// the same directory so the renames never cross a partition.
		if err := os.Rename(fp, fp+backupSuffix); err != nil && !os.IsNotExist(err) {
			return mrerr.UpdRename
		}
		delete(a.placed, fp)
		if err := os.Rename(staged, fp); err != nil {
			return mrerr.UpdRename
		}
		s.place(fp, fields[1])
		return mrerr.Success

	case "revert": // revert <path>: put the old file back
		if len(fields) != 2 {
			return mrerr.UpdBadInstr
		}
		fp, err := a.filePath(fields[1])
		if err != nil {
			return mrerr.UpdBadInstr
		}
		if s.kept[fp] { // the install replaced nothing
			return mrerr.Success
		}
		if _, err := os.Stat(fp + backupSuffix); err != nil {
			return mrerr.UpdNoRevert
		}
		delete(a.placed, fp)
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

// appendFields appends the fields of line to dst: the runs of
// characters between white space, as strings.Fields splits them.
func appendFields(dst []string, line string) []string {
	start := -1
	for i, r := range line {
		switch space := unicode.IsSpace(r); {
		case space && start >= 0:
			dst, start = append(dst, line[start:i]), -1
		case !space && start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// extract writes one member of the staged bundle to <dest>.moira_update,
// found in the session's one index of the bundle's headers, copied from
// the staged file file to file: no part of the member is read into a
// buffer on the way. A member already in place at dest (inPlace) is
// not written: dest is marked kept.
func (s *updateSession) extract(fields []string) mrerr.Code {
	if len(fields) != 3 || s.install == nil {
		return mrerr.UpdBadInstr
	}
	member, dest := fields[1], fields[2]
	r, ok := s.install.member(member)
	if !ok {
		return mrerr.UpdNoFile
	}
	fp, err := s.agent.filePath(dest)
	if err != nil {
		return mrerr.UpdBadInstr
	}
	if s.inPlace(fp, member, r) {
		if s.kept == nil {
			s.kept = map[string]bool{}
		}
		s.kept[fp] = true
		s.install.extracted(member, dest)
		s.agent.reg.Counter("update.extracts.kept").Inc()
		return mrerr.Success
	}
	delete(s.kept, fp)
	staged := fp + updateSuffix
	f, err := os.Create(staged)
	if os.IsNotExist(err) {
		if err = os.MkdirAll(filepath.Dir(staged), 0o755); err == nil {
			f, err = os.Create(staged)
		}
	}
	if err != nil {
		return mrerr.MrInternal
	}
	err = s.install.new.copyTo(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return mrerr.MrInternal
	}
	s.install.extracted(member, dest)
	return mrerr.Success
}

// inPlace reports whether the file at host path fp already holds
// member, whose data is nr in the new bundle: the last install there
// put member of the push's verified base, the push left the member's
// bytes as they were, and the file still has the inode, size and mtime
// the install left it with. A change made to the file outside the
// update protocol that keeps all three goes unseen.
func (s *updateSession) inPlace(fp, member string, nr Range) bool {
	in := s.install
	p, ok := s.agent.placed[fp]
	if !ok || p.sum != in.base || p.member != member {
		return false
	}
	or, ok := in.oldMember(member)
	if !ok || or.Hi-or.Lo != nr.Hi-nr.Lo {
		return false
	}
	if es, ok := memberEdits(in.edits, or, nr); !ok || len(es) > 0 {
		return false
	}
	fi, err := os.Lstat(fp)
	return err == nil && os.SameFile(fi, p.fi) && fi.Size() == p.fi.Size() && fi.ModTime().Equal(p.fi.ModTime())
}

// place records what the install just renamed to host path fp: the
// member this session last extracted to dest, if it extracted one.
func (s *updateSession) place(fp, dest string) {
	member, ok := "", false
	if s.install != nil {
		member, ok = s.install.members[cleanDest(dest)]
	}
	if !ok {
		return
	}
	if fi, err := os.Lstat(fp); err == nil {
		s.agent.placed[fp] = placement{sum: s.install.sum, member: member, target: s.installed, fi: fi}
	}
}

// exec runs a registered command: the service's own reload, handed the
// session's install view.
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
	if err := fn(a, s.install, fields[2:]); err != nil {
		return mrerr.UpdScriptError
	}
	return mrerr.Success
}
