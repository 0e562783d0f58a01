package replica

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
	"moira/internal/trace"
)

// Config configures a replica.
type Config struct {
	// From is the primary's replication address.
	From string

	// Clock drives timestamps and reconnect backoff; nil means the
	// system clock.
	Clock clock.Clock

	// Logf receives replication log lines; nil discards them.
	Logf func(format string, args ...any)

	// Tracer, when non-nil, records a span per applied record (linked
	// by the record's trace ID to the originating client call) and per
	// bootstrap. Nil disables tracing; instrumentation is unconditional.
	Tracer *trace.Tracer

	// DialTimeout bounds each connection attempt (default 10s).
	DialTimeout time.Duration

	// RetryDelay is the backoff between reconnect attempts (default 1s),
	// slept through Clock.
	RetryDelay time.Duration

	// Cluster (required) wires the replica into its node: the handshake
	// carries the node's election epoch, the primary's hello and lease
	// frames are surfaced through the callbacks, and applied positions
	// are acknowledged up the connection for the primary's lease and
	// semi-synchronous commit gate.
	Cluster *ReplicaCluster
}

// ReplicaCluster wires a Replica into its Cluster; every field is
// required.
type ReplicaCluster struct {
	// Epoch reports the node's current election epoch, sent in the
	// handshake and every acknowledgement.
	Epoch func() int64

	// OnHello receives the primary's greeting. Returning an error ends
	// the session (e.g. the primary's epoch is older than ours: a
	// deposed primary must not be followed).
	OnHello func(epoch int64, replAddr, clientAddr string) error

	// OnLease is called at each lease frame, at receive time — the
	// replica's election timer anchors here.
	OnLease func(epoch int64)

	// OnRedirect is called when the dialed node refuses the stream
	// read-only and names the primary it knows (a follower was asked
	// to act as one); the session ends and the caller retargets.
	OnRedirect func(replAddr string)
}

// Replica is a read-only copy of the primary, kept hot by tailing its
// journal. OpenRejoin attaches it to the node's live database, Start
// begins tailing, and the DB serves retrieval queries throughout —
// during bootstrap, the old state keeps serving until the restored
// snapshot is adopted in one lock acquisition.
type Replica struct {
	cfg  Config
	clk  clock.Clock
	logf func(string, ...any)

	d  *db.DB
	dd *db.DataDir

	mu      sync.Mutex
	conn    net.Conn
	started bool

	closing chan struct{}
	done    chan struct{}

	// forceBoot makes the next handshake request a full bootstrap
	// (position -1, -1): set on rejoin after this node was primary, so
	// a diverged journal tail is replaced, never appended to.
	forceBoot atomic.Bool

	// Mirror of the primary's journal, owned by the run goroutine.
	mf   *os.File
	mseg int64

	// Position and lag, published via emitStats. next* name the record
	// the replica wants next; head* echo the primary's last head frame.
	nextSeg    atomic.Int64
	nextIdx    atomic.Int64
	segBytes   atomic.Int64 // bytes mirrored into the current segment
	headSeg    atomic.Int64
	headIdx    atomic.Int64
	headOff    atomic.Int64
	applied    atomic.Int64
	skipped    atomic.Int64
	failed     atomic.Int64
	reconnects atomic.Int64
	bootstraps atomic.Int64
	connected  atomic.Bool

	// Freshness, for the repl.lag.seconds gauge. freshAsOf is the last
	// instant (primary's clock, Unix seconds) the replica is known to
	// have been current: the journal timestamp of the newest applied
	// record, refreshed by each head-frame heartbeat's timestamp while
	// caught up. caughtUp latches while the primary reports our position
	// at its head and clears on any new record or disconnect.
	freshAsOf atomic.Int64
	caughtUp  atomic.Bool
}

// OpenRejoin builds a Replica over an already-open live database — the
// cluster's boot-as-follower path and the fenced-primary rejoin path.
// No recovery runs (the state is live and keeps serving reads; a fresh
// process recovers it with queries.Recover first), and the caller must
// already have detached the database's journal writer. The resume
// position is computed from the mirrored journal in dd. With force set,
// the first handshake requests a full bootstrap (position -1, -1): a
// node that journaled as primary may hold a tail this history never
// committed, which must be replaced, not appended to.
func OpenRejoin(cfg Config, d *db.DB, dd *db.DataDir, force bool) (*Replica, error) {
	if cfg.From == "" || cfg.Cluster == nil {
		return nil, fmt.Errorf("replica: From and Cluster are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = time.Second
	}
	r := &Replica{
		cfg:     cfg,
		clk:     cfg.Clock,
		logf:    cfg.Logf,
		d:       d,
		dd:      dd,
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	seg, idx, off, err := scanPosition(dd.JournalDir())
	if err != nil {
		return nil, err
	}
	if seg > 0 && !force {
		// A torn tail from the replica's own crash must be cut off
		// whenever the segment will be appended to rather than replaced:
		// the primary resends that record whole, and appending it after
		// the partial bytes would manufacture mid-file corruption.
		if err := truncateSegment(filepath.Join(dd.JournalDir(), db.SegmentName(seg)), off); err != nil {
			return nil, err
		}
	}
	r.nextSeg.Store(seg)
	r.nextIdx.Store(idx)
	r.segBytes.Store(off)
	r.forceBoot.Store(force)
	r.logf("repl: rejoining %s at position (%d, %d), force-bootstrap=%v", cfg.From, seg, idx, force)
	return r, nil
}

// SetFrom retargets the replica at a different primary: the current
// session is cut and the reconnect loop dials the new address.
func (r *Replica) SetFrom(addr string) {
	r.mu.Lock()
	if addr == r.cfg.From {
		r.mu.Unlock()
		return
	}
	r.cfg.From = addr
	conn := r.conn
	r.mu.Unlock()
	r.logf("repl: retargeting to %s", addr)
	if conn != nil {
		conn.Close()
	}
}

// ForceBootstrap discards the local tail on the next session: the
// replica re-handshakes with the explicit bootstrap position, so the
// primary ships a full snapshot instead of a tail that might not share
// a prefix with this node's journal. The cluster uses it whenever the
// election epoch advances past the epoch this node's tail was written
// under.
func (r *Replica) ForceBootstrap() {
	r.forceBoot.Store(true)
	r.mu.Lock()
	conn := r.conn
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// From reports the primary address the replica currently targets.
func (r *Replica) From() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.From
}

// DB returns the replica's database, live throughout. Serve it
// read-only: nothing attaches a journal to it, so locally executed
// mutations would be silently undone by the next bootstrap — the
// server's MR_READONLY gate is what keeps them out.
func (r *Replica) DB() *db.DB { return r.d }

// Position returns the next (segment, record) the replica wants.
func (r *Replica) Position() (seg, idx int64) {
	return r.nextSeg.Load(), r.nextIdx.Load()
}

// Connected reports whether a replication session is currently live.
func (r *Replica) Connected() bool { return r.connected.Load() }

// emitStats emits the replica's upstream and lag series; the Cluster's
// stats group calls it while this replica is the node's follower. Lag
// in records and bytes is exact while applier and head share a segment
// and a lower bound while the applier is segments behind.
func (r *Replica) emitStats(emit func(string, int64)) {
	emit("repl.applied.records", r.applied.Load())
	if s := r.skipped.Load(); s > 0 {
		emit("repl.skipped.records", s)
	}
	if f := r.failed.Load(); f > 0 {
		emit("repl.failed.records", f)
	}
	hs, hi, ho := r.headSeg.Load(), r.headIdx.Load(), r.headOff.Load()
	if hs > 0 {
		emit("repl.head.seg", hs)
		emit("repl.head.idx", hi)
		lagSegs := hs - r.nextSeg.Load()
		if lagSegs < 0 {
			lagSegs = 0
		}
		emit("repl.lag.segments", lagSegs)
		lagRecs, lagBytes := hi, ho
		if lagSegs == 0 {
			lagRecs = hi - r.nextIdx.Load()
			lagBytes = ho - r.segBytes.Load()
		}
		if lagRecs < 0 {
			lagRecs = 0
		}
		if lagBytes < 0 {
			lagBytes = 0
		}
		emit("repl.lag.records", lagRecs)
		emit("repl.lag.bytes", lagBytes)
	}
	emit("repl.lag.seconds", r.LagSeconds())
	emit("repl.reconnects", r.reconnects.Load())
	if b := r.bootstraps.Load(); b > 0 {
		emit("repl.bootstraps", b)
	}
	if r.connected.Load() {
		emit("repl.connected", 1)
	} else {
		emit("repl.connected", 0)
	}
}

// LagSeconds estimates how far behind the primary this replica is in
// time: zero while the primary's head-frame heartbeats report us caught
// up, otherwise the age of the last known-current instant (newest
// applied record's journal timestamp, refreshed by heartbeats while
// caught up). A replica that has applied nothing and never connected
// reports zero — there is nothing to be stale relative to.
func (r *Replica) LagSeconds() int64 {
	if r.caughtUp.Load() {
		return 0
	}
	fresh := r.freshAsOf.Load()
	if fresh == 0 {
		return 0
	}
	lag := r.clk.Now().Unix() - fresh
	if lag < 0 {
		lag = 0
	}
	return lag
}

// Start launches the tailing loop: connect, handshake, apply, and
// reconnect with backoff until Close.
func (r *Replica) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go r.run()
}

func (r *Replica) run() {
	defer close(r.done)
	defer r.closeMirror()
	first := true
	for {
		select {
		case <-r.closing:
			return
		default:
		}
		if !first {
			r.reconnects.Add(1)
			clock.Sleep(r.clk, r.cfg.RetryDelay)
		}
		first = false
		if err := r.session(); err != nil {
			select {
			case <-r.closing:
				return
			default:
			}
			r.logf("repl: session ended: %v", err)
		}
	}
}

// setConn records the live connection so Close can cut it.
func (r *Replica) setConn(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-r.closing:
		return false
	default:
	}
	r.conn = conn
	return true
}

// session runs one connection to the primary to completion.
func (r *Replica) session() error {
	from := r.From()
	conn, err := net.DialTimeout("tcp", from, r.cfg.DialTimeout)
	if err != nil {
		return err
	}
	if !r.setConn(conn) {
		conn.Close()
		return nil
	}
	defer func() {
		conn.Close()
		r.connected.Store(false)
		// No heartbeats while disconnected: lag must grow from the last
		// known-current instant instead of sticking at zero.
		r.caughtUp.Store(false)
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
	}()

	cl := r.cfg.Cluster
	bw := bufio.NewWriter(conn)
	seg, idx := r.nextSeg.Load(), r.nextIdx.Load()
	args := []string{itoa(seg), itoa(idx), itoa(cl.Epoch())}
	if r.forceBoot.Load() {
		args[0], args[1] = "-1", "-1"
	}
	err = protocol.WriteRequest(bw, &protocol.Request{
		Version: protocol.Version,
		Op:      protocol.OpReplicate,
		Args:    protocol.BytesArgs(args),
	})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return err
	}
	r.connected.Store(true)
	r.logf("repl: connected to %s at position (%d, %d)", from, seg, idx)

	// Acknowledgements: one OpElection "ack" request back up the
	// stream, carrying our epoch, the newest lease sequence seen, and the
	// next record we want (everything before it is mirrored and
	// applied). Sent at each lease frame and after each drained burst of
	// records.
	var lastLeaseSeq int64
	helloSeen := false
	ack := func() error {
		if !helloSeen {
			return nil
		}
		err := protocol.WriteRequest(bw, &protocol.Request{
			Version: protocol.Version,
			Op:      protocol.OpElection,
			Args: protocol.BytesArgs([]string{electAck, itoa(cl.Epoch()),
				itoa(lastLeaseSeq), itoa(r.nextSeg.Load()), itoa(r.nextIdx.Load())}),
		})
		if err == nil {
			err = bw.Flush()
		}
		return err
	}

	// leaseAck processes one lease frame wherever it arrives — in the
	// main stream or interleaved with snapshot chunks.
	leaseAck := func(epoch, seq int64) error {
		if seq > lastLeaseSeq {
			lastLeaseSeq = seq
		}
		cl.OnLease(epoch)
		return ack()
	}

	br := bufio.NewReader(conn)
	dirty := false // positions advanced since the last ack
	for {
		rep, err := protocol.ReadReply(br)
		if err != nil {
			return err
		}
		if code := mrerr.Code(rep.Code); code != mrerr.MrMoreData {
			if code == mrerr.MrReadonly {
				// The dialed node is not (or no longer) the primary. If
				// it knows who is, chase that instead of redialing it.
				if f := rep.StringFields(); len(f) > 0 && f[0] != "" {
					cl.OnRedirect(f[0])
				}
				return fmt.Errorf("%s is not the primary", from)
			}
			return fmt.Errorf("primary ended stream with code %d (%v)", rep.Code, code.OrNil())
		}
		if len(rep.Fields) == 0 {
			return fmt.Errorf("empty stream frame")
		}
		f := rep.StringFields()
		switch f[0] {
		case tagRec:
			if len(f) != 4 {
				return fmt.Errorf("malformed rec frame (%d fields)", len(f))
			}
			if err := r.applyRecord(f[1], f[2], f[3]); err != nil {
				return err
			}
			dirty = true
		case tagHello:
			if len(f) != 4 {
				return fmt.Errorf("malformed hello frame")
			}
			epoch, err := parseInt(f[1])
			if err != nil {
				return fmt.Errorf("malformed hello frame")
			}
			if err := cl.OnHello(epoch, f[2], f[3]); err != nil {
				return err
			}
			helloSeen = true
		case tagLease:
			if len(f) != 3 {
				return fmt.Errorf("malformed lease frame")
			}
			epoch, e1 := parseInt(f[1])
			seq, e2 := parseInt(f[2])
			if e1 != nil || e2 != nil {
				return fmt.Errorf("malformed lease frame")
			}
			if err := leaseAck(epoch, seq); err != nil {
				return err
			}
			dirty = false
		case tagHead:
			// The trailing field is the primary's clock (Unix seconds), so
			// heartbeats keep freshness current.
			if len(f) != 5 {
				return fmt.Errorf("malformed head frame (%d fields)", len(f))
			}
			hs, e1 := parseInt(f[1])
			hi, e2 := parseInt(f[2])
			ho, e3 := parseInt(f[3])
			ts, e4 := parseInt(f[4])
			if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
				return fmt.Errorf("malformed head frame")
			}
			r.headSeg.Store(hs)
			r.headIdx.Store(hi)
			r.headOff.Store(ho)
			// A head frame means the stream has delivered everything up
			// to the primary's head: this replica is caught up right now.
			r.caughtUp.Store(true)
			if ts > r.freshAsOf.Load() {
				r.freshAsOf.Store(ts)
			}
		case tagSnapBegin:
			if len(f) != 3 {
				return fmt.Errorf("malformed snap-begin frame")
			}
			if err := r.receiveSnapshot(br, f[1], f[2], leaseAck); err != nil {
				return err
			}
			r.forceBoot.Store(false)
			dirty = true
		default:
			return fmt.Errorf("unknown stream frame %q", f[0])
		}
		// Acknowledge advanced positions once the read buffer drains: a
		// burst of records costs one ack, and the primary's commit gate
		// hears about the burst's last commit promptly.
		if dirty && br.Buffered() == 0 {
			if err := ack(); err != nil {
				return err
			}
			dirty = false
		}
	}
}

// applyRecord mirrors one journal line to disk and applies it through
// the replay path.
func (r *Replica) applyRecord(segField, idxField, line string) error {
	seg, e1 := parseInt(segField)
	idx, e2 := parseInt(idxField)
	if e1 != nil || e2 != nil {
		return fmt.Errorf("malformed rec position")
	}
	if _, ok := db.SplitJournalCRC(line); !ok {
		return fmt.Errorf("record (%d, %d) fails CRC in flight", seg, idx)
	}
	wantSeg, wantIdx := r.nextSeg.Load(), r.nextIdx.Load()
	switch {
	case wantSeg == 0 && wantIdx == 0:
		// Empty replica streaming without bootstrap: adopt the
		// primary's numbering from the first record.
		if idx != 0 {
			return fmt.Errorf("first record (%d, %d) is mid-segment", seg, idx)
		}
	case seg == wantSeg && idx == wantIdx:
		// In sequence.
	case seg > wantSeg && idx == 0:
		// Primary advanced past our segment's (possibly torn) tail.
	default:
		return fmt.Errorf("record (%d, %d) does not follow position (%d, %d)", seg, idx, wantSeg, wantIdx)
	}

	if err := r.mirrorAppend(seg, line); err != nil {
		return err
	}
	// The record's own trace ID links this apply span to the client call
	// and server spans that produced the record, across both processes.
	var sp *trace.Span
	if rec, perr := db.ParseJournalLine(line); perr == nil {
		sp = r.cfg.Tracer.Start(rec.Trace, "", "repl.apply")
		sp.SetDetail(rec.Query)
		if rec.Time > r.freshAsOf.Load() {
			r.freshAsOf.Store(rec.Time)
		}
	}
	r.caughtUp.Store(false)
	outcome, err := queries.ApplyJournalLine(r.d, line)
	switch outcome {
	case queries.ApplyApplied:
		r.applied.Add(1)
		sp.End()
	case queries.ApplySkipped:
		r.skipped.Add(1)
		sp.End()
	default:
		// The record is mirrored — local recovery will classify it the
		// same way — so a failed apply is logged and counted, exactly
		// as replay treats it, rather than killing the stream.
		r.failed.Add(1)
		r.logf("repl: apply (%d, %d): %v", seg, idx, err)
		sp.EndCode(int32(mrerr.CodeOf(err)))
	}
	r.nextSeg.Store(seg)
	r.nextIdx.Store(idx + 1)
	return nil
}

// mirrorAppend writes one record line into the replica's own journal
// segment, rolling files as the primary's numbering advances. The
// mirror is synced at segment rolls and shutdown, not per record: a
// lost tail is re-fetched from the primary after the next handshake.
func (r *Replica) mirrorAppend(seg int64, line string) error {
	if r.mf == nil || seg != r.mseg {
		if err := r.closeMirror(); err != nil {
			return err
		}
		f, err := os.OpenFile(filepath.Join(r.dd.JournalDir(), db.SegmentName(seg)),
			os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		r.mf = f
		r.mseg = seg
		r.segBytes.Store(0)
		if st, err := f.Stat(); err == nil {
			r.segBytes.Store(st.Size())
		}
	}
	n, err := r.mf.Write([]byte(line + "\n"))
	r.segBytes.Add(int64(n))
	if err != nil {
		return fmt.Errorf("mirror append: %w", err)
	}
	return nil
}

func (r *Replica) closeMirror() error {
	if r.mf == nil {
		return nil
	}
	err := r.mf.Sync()
	if cerr := r.mf.Close(); err == nil {
		err = cerr
	}
	r.mf = nil
	return err
}

// receiveSnapshot reassembles a bootstrap snapshot into the replica's
// own snapshots directory, verifies its manifest, restores it into a
// private database, and adopts the result in one lock acquisition —
// readers see the old state until the swap, never a half-loaded one.
// The stale mirror segments are removed; tailing resumes at the
// snapshot's journal sequence.
func (r *Replica) receiveSnapshot(br *bufio.Reader, genField, seqField string, leaseAck func(epoch, seq int64) error) (err error) {
	gen, e1 := parseInt(genField)
	jseq, e2 := parseInt(seqField)
	if e1 != nil || e2 != nil || gen <= 0 || jseq <= 0 {
		return fmt.Errorf("malformed snap-begin frame")
	}
	sp := r.cfg.Tracer.Start("", "", "repl.bootstrap")
	sp.SetDetail(fmt.Sprintf("generation %d", gen))
	defer func() {
		if err != nil {
			sp.EndCode(int32(mrerr.MrInternal))
		} else {
			sp.End()
		}
	}()
	r.logf("repl: receiving bootstrap snapshot generation %d (journal seq %d)", gen, jseq)

	store, err := db.NewCheckpointStore(r.dd.SnapshotsDir(), 0)
	if err != nil {
		return err
	}
	final := store.Path(gen)
	tmp := final + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	cleanup := tmp
	defer func() {
		if cleanup != "" {
			os.RemoveAll(cleanup)
		}
	}()

	var cur *os.File
	closeCur := func() error {
		if cur == nil {
			return nil
		}
		err := cur.Sync()
		if cerr := cur.Close(); err == nil {
			err = cerr
		}
		cur = nil
		return err
	}
	defer closeCur()

receive:
	for {
		rep, err := protocol.ReadReply(br)
		if err != nil {
			return err
		}
		if mrerr.Code(rep.Code) != mrerr.MrMoreData || len(rep.Fields) == 0 {
			return fmt.Errorf("stream ended mid-snapshot")
		}
		tag := string(rep.Fields[0])
		switch tag {
		case tagFile:
			if len(rep.Fields) != 2 {
				return fmt.Errorf("malformed file frame")
			}
			name := string(rep.Fields[1])
			if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
				return fmt.Errorf("unsafe snapshot file name %q", name)
			}
			if err := closeCur(); err != nil {
				return err
			}
			cur, err = os.OpenFile(filepath.Join(tmp, name),
				os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
		case tagChunk:
			if cur == nil || len(rep.Fields) != 2 {
				return fmt.Errorf("chunk frame outside a file")
			}
			if _, err := cur.Write(rep.Fields[1]); err != nil {
				return err
			}
		case tagFileEnd:
			if err := closeCur(); err != nil {
				return err
			}
		case tagLease:
			// Lease heartbeats ride between chunks; acknowledging them
			// keeps the primary's lease alive through a long bootstrap.
			f := rep.StringFields()
			if len(f) != 3 {
				return fmt.Errorf("malformed lease frame")
			}
			epoch, e1 := parseInt(f[1])
			seq, e2 := parseInt(f[2])
			if e1 != nil || e2 != nil {
				return fmt.Errorf("malformed lease frame")
			}
			if err := leaseAck(epoch, seq); err != nil {
				return err
			}
		case tagSnapEnd:
			break receive
		default:
			return fmt.Errorf("unexpected frame %q inside snapshot", tag)
		}
	}
	if err := closeCur(); err != nil {
		return err
	}

	// Verify before adopting: a bit flipped in flight must not become
	// the replica's state.
	m, err := db.ReadManifest(tmp)
	if err == nil {
		err = m.Verify(tmp)
	}
	if err != nil {
		return fmt.Errorf("received snapshot fails verification: %w", err)
	}
	if m.JournalSeq != jseq || m.Generation != gen {
		return fmt.Errorf("received manifest (gen %d, seq %d) does not match announcement (gen %d, seq %d)",
			m.Generation, m.JournalSeq, gen, jseq)
	}

	if err := os.RemoveAll(final); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	cleanup = ""

	fresh, err := db.Restore(final, r.clk)
	if err != nil {
		return err
	}

	// Drop the stale mirror: every retained record predates the
	// snapshot or belongs to a history this replica no longer follows.
	if err := r.closeMirror(); err != nil {
		return err
	}
	segs, err := db.ListSegments(r.dd.JournalDir())
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(s.Path); err != nil {
			return err
		}
	}

	r.d.AdoptFrom(fresh)
	r.nextSeg.Store(jseq)
	r.nextIdx.Store(0)
	r.segBytes.Store(0)
	r.bootstraps.Add(1)
	r.logf("repl: adopted snapshot generation %d; tailing from segment %d", gen, jseq)
	return nil
}

// Close stops tailing, waits for the loop to end and syncs the mirror.
// The database stays usable for reads, and openPrimary may make it a
// primary's.
func (r *Replica) Close() error {
	r.mu.Lock()
	select {
	case <-r.closing:
	default:
		close(r.closing)
	}
	if r.conn != nil {
		r.conn.Close()
	}
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	} else {
		r.closeMirror()
	}
	return nil
}

// scanPosition derives the resume position from a mirrored journal
// directory: the highest segment, the count of complete CRC-valid
// lines in it, and the byte offset just past the last of them. An
// empty directory is (0, 0, 0).
func scanPosition(dir string) (seg, idx, off int64, err error) {
	segs, err := db.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		return 0, 0, 0, err
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last.Path)
	if err != nil {
		return 0, 0, 0, err
	}
	idx, off = countValidLines(data)
	return last.Seq, idx, off, nil
}

// countValidLines counts the leading run of complete CRC-valid lines
// in a segment image and the byte offset past the last one. Anything
// after — a torn tail, or in the worst case mid-file damage recovery
// already refused — is not counted.
func countValidLines(data []byte) (idx, off int64) {
	for int(off) < len(data) {
		j := -1
		for k := int(off); k < len(data); k++ {
			if data[k] == '\n' {
				j = k
				break
			}
		}
		if j < 0 {
			break // incomplete final line
		}
		line := string(data[off:int64(j)])
		if line != "" {
			if _, ok := db.SplitJournalCRC(line); !ok {
				break
			}
			idx++
		}
		off = int64(j) + 1
	}
	return idx, off
}

// truncateSegment cuts a mirrored segment back to its valid prefix.
func truncateSegment(path string, off int64) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if st.Size() == off {
		return nil
	}
	return os.Truncate(path, off)
}
