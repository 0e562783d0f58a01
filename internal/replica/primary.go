package replica

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// PrimaryConfig configures a replication primary.
type PrimaryConfig struct {
	// Journal is the primary's live journal writer: the tailer follows
	// its segment files and parks on its append notifications.
	Journal *db.JournalWriter

	// Store is the primary's checkpoint store, the source of bootstrap
	// snapshots for replicas too far behind the retained segments.
	Store *db.CheckpointStore

	// Checkpoint, when non-nil, is invoked to take a snapshot on demand
	// when a replica needs bootstrapping and no manifest-valid snapshot
	// exists yet (typically Cluster.Checkpoint).
	Checkpoint func() (int64, error)

	// Logf receives replication log lines; nil discards them.
	Logf func(format string, args ...any)

	// Clock stamps head-frame heartbeats (replicas measure lag against
	// it, cancelling cross-host clock skew); nil means the system clock.
	Clock clock.Clock

	// Cluster (required) wires the primary into its node: it greets
	// each replica with a hello frame, interleaves lease heartbeats with
	// the stream, and reads position/lease acknowledgements back up the
	// same connection.
	Cluster *PrimaryCluster
}

// PrimaryCluster wires a Primary into its Cluster: what to announce
// and who to tell when an acknowledgement reveals this primary has
// been deposed.
type PrimaryCluster struct {
	// Epoch reports the node's current election epoch, announced in
	// hello and lease frames and compared against replica handshakes.
	Epoch func() int64

	// ReplAddr and ClientAddr are the advertised replication and
	// client (query) addresses sent in the hello frame; clients
	// chasing the primary are redirected to ClientAddr.
	ReplAddr   string
	ClientAddr string

	// LeaseInterval is how often lease frames are sent per connection.
	LeaseInterval time.Duration

	// OnStaleSelf is called when a replica reports a higher epoch than
	// ours: the cluster has moved on and this primary must fence.
	OnStaleSelf func(peerEpoch int64)
}

// Primary serves the replication stream: it answers each Replicate
// handshake its Cluster's listener dispatches to it, bootstraps the
// replica from a snapshot if needed, and then tails the live journal to
// it with group-commit-aware flushing — records are written through a
// buffered writer that is flushed only when the tailer catches up to
// the journal head, so a burst of appends rides out in few network
// writes.
type Primary struct {
	cfg  PrimaryConfig
	clk  clock.Clock
	logf func(string, ...any)

	closing chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	tails  map[*subscriberPos]struct{}
	closed bool

	// ackWake is closed and replaced under mu on every inbound ack;
	// WaitAcked parks on it.
	ackWake chan struct{}

	leaseSeq   atomic.Int64 // lease frame sequence numbers, all conns
	leasesSent atomic.Int64
	acksRecv   atomic.Int64
	firstSub   atomic.Int64 // UnixNano of the first subscription; 0 = none yet

	active    atomic.Int64
	served    atomic.Int64
	snapshots atomic.Int64
	sentRecs  atomic.Int64
	sentBytes atomic.Int64
}

// subscriberPos is one tailing replica's ship position — the next
// (segment, record) the tailer will send it — updated lock-free as the
// stream advances and read by the ship-lag gauges. It also carries the
// replica's acknowledged position (what the commit gate waits on) and
// its lease grant.
type subscriberPos struct {
	seg atomic.Int64
	idx atomic.Int64

	ackSeg atomic.Int64 // next record the replica wants, per its last ack
	ackIdx atomic.Int64
	grant  atomic.Int64 // UnixNano send instant of the newest acked lease seq

	lmu  sync.Mutex
	sent map[int64]time.Time // outstanding lease seq → send instant
}

// leaseGrant records that the replica acknowledged lease seq: the
// grant anchors at the SEND time of that seq, so a delayed ack never
// extends the lease past what the replica actually heard — the fence
// deadline (send-anchored) always precedes the replica's election
// timer (receive-anchored).
func (s *subscriberPos) leaseGrant(seq int64) {
	if seq <= 0 {
		return
	}
	s.lmu.Lock()
	defer s.lmu.Unlock()
	t, ok := s.sent[seq]
	if !ok {
		return
	}
	if n := t.UnixNano(); n > s.grant.Load() {
		s.grant.Store(n)
	}
	for k := range s.sent {
		if k <= seq {
			delete(s.sent, k)
		}
	}
}

// leaseSent records a lease frame's send instant, pruning entries the
// replica never acknowledged once they are clearly dead.
func (s *subscriberPos) leaseSent(seq int64, at time.Time, horizon time.Duration) {
	s.lmu.Lock()
	defer s.lmu.Unlock()
	if s.sent == nil {
		s.sent = make(map[int64]time.Time)
	}
	for k, t := range s.sent {
		if at.Sub(t) > horizon {
			delete(s.sent, k)
		}
	}
	s.sent[seq] = at
}

// NewPrimary builds a replication primary over an open journal writer
// and checkpoint store.
func NewPrimary(cfg PrimaryConfig) *Primary {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	return &Primary{
		cfg:     cfg,
		clk:     clk,
		logf:    logf,
		closing: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		tails:   make(map[*subscriberPos]struct{}),
		ackWake: make(chan struct{}),
	}
}

// emitStats emits the primary's repl.primary.* and lease frame series;
// the Cluster's stats group calls it while this primary is live.
func (p *Primary) emitStats(emit func(string, int64)) {
	emit("repl.primary.conns", p.active.Load())
	emit("repl.primary.served", p.served.Load())
	emit("repl.primary.snapshots", p.snapshots.Load())
	emit("repl.primary.sent.records", p.sentRecs.Load())
	emit("repl.primary.sent.bytes", p.sentBytes.Load())
	lags := p.SubscriberLags()
	emit("repl.primary.subscribers", int64(len(lags)))
	worst := int64(0)
	for _, l := range lags {
		if l > worst {
			worst = l
		}
	}
	emit("repl.primary.shiplag.records", worst)
	emit("lease.acks", p.acksRecv.Load())
	emit("lease.sent", p.leasesSent.Load())
}

// SubscriberLags reports, for every currently tailing replica, how many
// records the journal head is ahead of what has been shipped to it.
// Exact while the subscriber shares the head segment; a lower bound
// (the head segment's record count) while it is segments behind.
func (p *Primary) SubscriberLags() []int64 {
	headSeg, headRecs := p.cfg.Journal.Head()
	p.mu.Lock()
	subs := make([]*subscriberPos, 0, len(p.tails))
	for s := range p.tails {
		subs = append(subs, s)
	}
	p.mu.Unlock()
	lags := make([]int64, 0, len(subs))
	for _, s := range subs {
		lag := headRecs
		if s.seg.Load() == headSeg {
			lag = headRecs - s.idx.Load()
		}
		if lag < 0 {
			lag = 0
		}
		lags = append(lags, lag)
	}
	return lags
}

// Close drops every replica connection and stops the streams; the
// replicas reconnect and resume from their on-disk position.
func (p *Primary) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.closing)
	for conn := range p.conns {
		conn.Close()
	}
}

// ServeReplicate serves one replication stream whose protocol.Version
// Replicate request has already been read from br — the entry point for
// the serve function of a listener that dispatches by op. It registers
// the connection, so Close cuts it, and blocks until the stream is
// over; the listener closes the connection.
func (p *Primary) ServeReplicate(conn net.Conn, br *bufio.Reader, req *protocol.Request) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns[conn] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
		p.active.Add(-1)
	}()
	p.active.Add(1)
	p.served.Add(1)

	bw := bufio.NewWriter(conn)

	// The handshake is [seg, idx, epoch]: the replica's resume position
	// and its election epoch. Position (-1, -1) is the explicit
	// "bootstrap me" of a rejoining node whose journal tail may diverge
	// from this history.
	if len(req.Args) != 3 {
		writeFinal(bw, mrerr.MrArgs)
		return
	}
	args := req.StringArgs()
	seg, err1 := parseInt(args[0])
	idx, err2 := parseInt(args[1])
	replicaEpoch, err3 := parseInt(args[2])
	if err1 != nil || err2 != nil || err3 != nil || idx < 0 != (seg < 0) || replicaEpoch < 0 {
		writeFinal(bw, mrerr.MrArgs)
		return
	}

	force := seg < 0
	cl := p.cfg.Cluster
	myEpoch := cl.Epoch()
	if replicaEpoch > myEpoch {
		// Deposed on contact: the cluster elected a higher epoch while we
		// weren't looking. Fence instead of streaming a dead history.
		p.logf("repl: %s reports epoch %d > ours %d: deposed", conn.RemoteAddr(), replicaEpoch, myEpoch)
		cl.OnStaleSelf(replicaEpoch)
		writeFinal(bw, mrerr.MrReadonly)
		return
	}
	if replicaEpoch < myEpoch {
		// The replica's journal tail may contain records a deposed
		// primary streamed that this history never committed; a full
		// bootstrap replaces it rather than appending to it.
		force = true
	}
	if force {
		seg, idx = 0, 0
	}

	p.logf("repl: %s connected at position (%d, %d)", conn.RemoteAddr(), seg, idx)
	if err := p.stream(br, bw, seg, idx, force); err != nil {
		p.logf("repl: %s: %v", conn.RemoteAddr(), err)
		writeFinal(bw, mrerr.MrInternal)
	}
}

// stream feeds one replica: bootstrap if its position predates the
// retained journal, then tail the segments from its position on.
func (p *Primary) stream(br *bufio.Reader, bw *bufio.Writer, seg, idx int64, force bool) error {
	// Subscribe before examining any on-disk state so no append
	// notification can slip between the scan and the first park.
	notify := p.cfg.Journal.Subscribe()

	sub := &subscriberPos{}
	sub.seg.Store(seg)
	sub.idx.Store(idx)
	// Registered before bootstrap: acknowledgements (and so the lease)
	// flow while the snapshot ships.
	p.mu.Lock()
	p.tails[sub] = struct{}{}
	p.mu.Unlock()
	p.firstSub.CompareAndSwap(0, time.Now().UnixNano())
	defer func() {
		p.mu.Lock()
		delete(p.tails, sub)
		p.mu.Unlock()
	}()

	// The replica sends ack requests up the same connection for the life
	// of the stream; reading them also tells a parked tailer when the
	// replica hangs up.
	connDead := make(chan struct{})
	go p.readAcks(br, sub, connDead)

	send := func(fields ...[]byte) error {
		return protocol.WriteReply(bw, &protocol.Reply{
			Version: protocol.Version,
			Code:    int32(mrerr.MrMoreData),
			Fields:  fields,
		})
	}
	sendStrings := func(fields ...string) error {
		return send(protocol.BytesArgs(fields)...)
	}

	cl := p.cfg.Cluster
	interval := cl.LeaseInterval
	if interval <= 0 {
		interval = time.Second
	}
	// maybeLease interleaves lease heartbeats with whatever else the
	// stream is doing. It never flushes on its own: the frame rides
	// the next flush, which every caller does promptly.
	var lastLease time.Time
	maybeLease := func() error {
		now := time.Now()
		if !lastLease.IsZero() && now.Sub(lastLease) < interval {
			return nil
		}
		lastLease = now
		seq := p.leaseSeq.Add(1)
		sub.leaseSent(seq, now, 10*interval)
		p.leasesSent.Add(1)
		return sendStrings(tagLease, itoa(cl.Epoch()), itoa(seq))
	}

	if err := sendStrings(tagHello, itoa(cl.Epoch()), cl.ReplAddr, cl.ClientAddr); err != nil {
		return err
	}
	if err := maybeLease(); err != nil {
		return err
	}
	// Out before any bootstrap work: the replica acks this lease at
	// once, so an on-demand checkpoint cannot starve the lease that
	// subscribing just made this primary depend on.
	if err := bw.Flush(); err != nil {
		return err
	}

	seg, idx, err := p.maybeBootstrap(bw, send, sendStrings, maybeLease, seg, idx, force)
	if err != nil {
		return err
	}
	sub.seg.Store(seg)
	sub.idx.Store(idx)

	return p.tail(bw, sendStrings, maybeLease, notify, connDead, sub, seg, idx)
}

// readAcks consumes the replica's acknowledgement requests for the
// life of the connection, feeding the subscriber's acked position and
// lease grant, and closes dead when the peer goes away.
func (p *Primary) readAcks(br *bufio.Reader, sub *subscriberPos, dead chan struct{}) {
	defer close(dead)
	cl := p.cfg.Cluster
	for {
		req, err := protocol.ReadRequest(br)
		if err != nil {
			return
		}
		if req.Op != protocol.OpElection {
			continue
		}
		a := req.StringArgs()
		if len(a) != 5 || a[0] != electAck {
			continue
		}
		epoch, e1 := parseInt(a[1])
		seq, e2 := parseInt(a[2])
		aseg, e3 := parseInt(a[3])
		aidx, e4 := parseInt(a[4])
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			return
		}
		if my := cl.Epoch(); epoch > my {
			p.logf("repl: ack reports epoch %d > ours %d: deposed", epoch, my)
			cl.OnStaleSelf(epoch)
			return
		}
		sub.ackSeg.Store(aseg)
		sub.ackIdx.Store(aidx)
		sub.leaseGrant(seq)
		p.acksRecv.Add(1)
		p.mu.Lock()
		close(p.ackWake)
		p.ackWake = make(chan struct{})
		p.mu.Unlock()
	}
}

// WaitAcked blocks until at least need subscribers have acknowledged
// a position past (seg, idx) — the record is then applied and durably
// mirrored on that many replicas — or the timeout lapses. This is the
// semi-synchronous commit gate: a timeout means the commit is journaled
// locally but must not be acknowledged to the client as replicated.
func (p *Primary) WaitAcked(seg, idx int64, need int, timeout time.Duration) error {
	if need <= 0 {
		return nil
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		got := 0
		for s := range p.tails {
			as, ai := s.ackSeg.Load(), s.ackIdx.Load()
			if as > seg || (as == seg && ai > idx) {
				got++
			}
		}
		wake := p.ackWake
		p.mu.Unlock()
		if got >= need {
			return nil
		}
		select {
		case <-wake:
		case <-deadline.C:
			return fmt.Errorf("replica: position (%d, %d) unacknowledged after %v (%d/%d)", seg, idx, timeout, got, need)
		case <-p.closing:
			return fmt.Errorf("replica: primary shut down before position (%d, %d) was acknowledged", seg, idx)
		}
	}
}

// LeaseFresh counts connected subscribers whose lease
// grant is newer than timeout ago — the primary's view of how many
// voters still honour its lease.
func (p *Primary) LeaseFresh(timeout time.Duration) (subs, fresh int) {
	cut := time.Now().Add(-timeout).UnixNano()
	p.mu.Lock()
	defer p.mu.Unlock()
	for s := range p.tails {
		subs++
		if s.grant.Load() > cut {
			fresh++
		}
	}
	return subs, fresh
}

// NewestGrant reports the most recent lease grant instant across all
// subscribers (zero when none have acked a lease).
func (p *Primary) NewestGrant() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	var newest int64
	for s := range p.tails {
		if g := s.grant.Load(); g > newest {
			newest = g
		}
	}
	if newest == 0 {
		return time.Time{}
	}
	return time.Unix(0, newest)
}

// HadSubscriber reports whether any replica has subscribed since this
// primary started. Until one does, the primary is serving alone — a
// fresh failover winner or an operator promotion — and the cluster runs
// degraded: the lease is self-held and the commit gate is waived,
// because there is nobody to replicate to yet.
func (p *Primary) HadSubscriber() bool { return p.firstSub.Load() != 0 }

// FirstSubscribed reports when the first replica subscribed (zero when
// none has). The lease's grace period runs from it as from promotion:
// the new subscriber needs a moment before its first ack arrives.
func (p *Primary) FirstSubscribed() time.Time {
	if n := p.firstSub.Load(); n != 0 {
		return time.Unix(0, n)
	}
	return time.Time{}
}

// maybeBootstrap decides bootstrap-vs-tail and, when the replica's
// position predates what the journal still holds, ships the newest
// manifest-valid snapshot. It returns the position tailing starts from.
func (p *Primary) maybeBootstrap(bw *bufio.Writer, send func(...[]byte) error, sendStrings func(...string) error, maybeLease func() error, seg, idx int64, force bool) (int64, int64, error) {
	segs, err := db.ListSegments(p.cfg.Journal.Dir())
	if err != nil {
		return 0, 0, err
	}
	oldest := int64(0)
	if len(segs) > 0 {
		oldest = segs[0].Seq
	}
	cur := p.cfg.Journal.Seq()
	if seg > cur {
		return 0, 0, fmt.Errorf("replica position (%d, %d) is ahead of journal head %d: diverged history", seg, idx, cur)
	}

	need := force
	switch {
	case need:
		// Epoch skew or an explicit bootstrap request: the replica's
		// history cannot be trusted to be a prefix of ours.
	case seg == 0:
		// Empty replica: bootstrap whenever a snapshot exists (the
		// journal alone may not reach back to the beginning of time);
		// otherwise the retained segments are the full history.
		gens, err := p.cfg.Store.Generations()
		if err != nil {
			return 0, 0, err
		}
		need = len(gens) > 0
		if !need {
			seg, idx = oldest, 0
			if seg == 0 {
				seg = cur
			}
		}
	case oldest == 0 || seg < oldest:
		// The records the replica needs were pruned by checkpointing.
		need = true
	}
	if !need {
		return seg, idx, nil
	}

	gen, m, err := p.newestValidSnapshot()
	if err != nil {
		return 0, 0, err
	}
	if gen == 0 {
		// No usable snapshot on disk: take one now if we can.
		if p.cfg.Checkpoint == nil {
			return 0, 0, fmt.Errorf("replica needs bootstrap but no snapshot exists and no checkpointer is wired")
		}
		if _, err := p.cfg.Checkpoint(); err != nil {
			return 0, 0, fmt.Errorf("on-demand bootstrap checkpoint: %w", err)
		}
		if gen, m, err = p.newestValidSnapshot(); err != nil {
			return 0, 0, err
		}
		if gen == 0 {
			return 0, 0, fmt.Errorf("on-demand checkpoint produced no verifiable snapshot")
		}
	}

	p.logf("repl: bootstrapping from snapshot generation %d (journal seq %d)", gen, m.JournalSeq)
	if err := p.sendSnapshot(send, sendStrings, maybeLease, gen, m); err != nil {
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	p.snapshots.Add(1)
	return m.JournalSeq, 0, nil
}

// newestValidSnapshot returns the newest generation whose manifest
// verifies, or 0 when none does.
func (p *Primary) newestValidSnapshot() (int64, *db.Manifest, error) {
	gens, err := p.cfg.Store.Generations()
	if err != nil {
		return 0, nil, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		dir := p.cfg.Store.Path(gens[i])
		m, verr := db.ReadManifest(dir)
		if verr == nil {
			verr = m.Verify(dir)
		}
		if verr != nil {
			p.logf("repl: skipping snapshot generation %d: %v", gens[i], verr)
			continue
		}
		return gens[i], m, nil
	}
	return 0, nil, nil
}

// sendSnapshot ships every file of one snapshot generation, raw,
// manifest last. The replica verifies the manifest after reassembly,
// so a file damaged in flight is caught before it is adopted.
func (p *Primary) sendSnapshot(send func(...[]byte) error, sendStrings func(...string) error, maybeLease func() error, gen int64, m *db.Manifest) error {
	dir := p.cfg.Store.Path(gen)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && e.Name() != db.ManifestFile {
			names = append(names, e.Name())
		}
	}
	names = append(names, db.ManifestFile)

	if err := sendStrings(tagSnapBegin, itoa(gen), itoa(m.JournalSeq)); err != nil {
		return err
	}
	buf := make([]byte, snapChunkSize)
	for _, name := range names {
		if err := sendStrings(tagFile, name); err != nil {
			return err
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		for {
			// Lease frames ride between chunks so a long bootstrap does
			// not silently expire the primary's lease; the receiving
			// replica acknowledges them mid-snapshot.
			if err := maybeLease(); err != nil {
				f.Close()
				return err
			}
			n, rerr := f.Read(buf)
			if n > 0 {
				if err := send([]byte(tagChunk), buf[:n]); err != nil {
					f.Close()
					return err
				}
				p.sentBytes.Add(int64(n))
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				f.Close()
				return rerr
			}
		}
		f.Close()
		if err := sendStrings(tagFileEnd, name); err != nil {
			return err
		}
	}
	return sendStrings(tagSnapEnd)
}

// headHeartbeat is how often a caught-up tailer re-sends its head
// frame while parked: the heartbeat is what keeps an idle replica's
// freshness (and so its lag-seconds gauge) current.
const headHeartbeat = time.Second

// tail streams journal records from (seg, idx) on, advancing segment
// by segment and parking on the journal's append notification when
// caught up. A complete line that fails its CRC is mid-file corruption
// and kills the stream; an incomplete tail of a *rotated* segment is
// the torn-line crash signature and is skipped, exactly as recovery
// does.
func (p *Primary) tail(bw *bufio.Writer, sendStrings func(...string) error, maybeLease func() error, notify <-chan struct{}, connDead <-chan struct{}, sub *subscriberPos, seg, idx int64) error {
	jdir := p.cfg.Journal.Dir()
	wake := headHeartbeat
	if cl := p.cfg.Cluster; cl.LeaseInterval > 0 && cl.LeaseInterval < wake {
		// Park no longer than the lease interval, or a quiet journal
		// would starve the heartbeat that keeps the lease alive.
		wake = cl.LeaseInterval
	}
	var (
		f        *os.File
		rem      []byte // bytes read but not yet forming a complete line
		lineIdx  int64  // index of the next complete line in this segment
		consumed int64  // byte offset of the end of the last complete line
		sendFrom = idx  // skip lines the replica already has (first segment only)
		drained  bool   // one extra read after observing rotation
	)
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	park := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		select {
		case <-notify:
			return nil
		case <-time.After(wake):
			// Wake to re-send the head frame: an idle replica's lag
			// gauge stays fresh only while heartbeats keep arriving.
			return nil
		case <-p.closing:
			return fmt.Errorf("primary shutting down")
		case <-connDead:
			return fmt.Errorf("replica hung up")
		}
	}

	buf := make([]byte, 64<<10)
	for {
		select {
		case <-p.closing:
			return fmt.Errorf("primary shutting down")
		case <-connDead:
			return fmt.Errorf("replica hung up")
		default:
		}
		if err := maybeLease(); err != nil {
			return err
		}

		if f == nil {
			var err error
			f, err = os.Open(filepath.Join(jdir, db.SegmentName(seg)))
			if os.IsNotExist(err) {
				if seg < p.cfg.Journal.Seq() {
					// Pruned under us: the replica must re-handshake and
					// get bootstrapped.
					return fmt.Errorf("segment %d no longer available", seg)
				}
				// Not created yet; wait for the rotation.
				if err := park(); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return err
			}
			rem, lineIdx, consumed, drained = rem[:0], 0, 0, false
		}

		n, rerr := f.Read(buf)
		progressed := false
		if n > 0 {
			drained = false
			rem = append(rem, buf[:n]...)
			for {
				j := bytes.IndexByte(rem, '\n')
				if j < 0 {
					break
				}
				line := string(rem[:j])
				rem = rem[j+1:]
				consumed += int64(j) + 1
				if line == "" {
					continue
				}
				if _, ok := db.SplitJournalCRC(line); !ok {
					return fmt.Errorf("segment %d line %d fails CRC: journal corrupt", seg, lineIdx)
				}
				if lineIdx >= sendFrom {
					if err := sendStrings(tagRec, itoa(seg), itoa(lineIdx), line); err != nil {
						return err
					}
					p.sentRecs.Add(1)
					p.sentBytes.Add(int64(len(line)) + 1)
					progressed = true
				}
				lineIdx++
				if lineIdx >= sendFrom {
					// Below sendFrom the replica already holds the line,
					// so its ship position never moves backwards.
					sub.idx.Store(lineIdx)
				}
			}
		}
		if rerr != nil && rerr != io.EOF {
			return rerr
		}
		if progressed || n > 0 {
			continue
		}

		// EOF with nothing new.
		cur := p.cfg.Journal.Seq()
		if seg < cur {
			// Rotated away. One more read guards the race where records
			// landed between our EOF and the rotation; after a drained
			// re-read the file can no longer grow. Anything left in rem
			// is the segment's torn tail — skipped, as in recovery.
			if !drained {
				drained = true
				continue
			}
			if len(rem) > 0 {
				p.logf("repl: skipping torn tail of segment %d (%d bytes)", seg, len(rem))
			}
			f.Close()
			f = nil
			seg++
			sendFrom = 0
			sub.seg.Store(seg)
			sub.idx.Store(0)
			continue
		}

		// Caught up on the live segment: report head, flush, park. The
		// trailing field is the primary's clock, so the replica measures
		// its freshness against the same clock that stamped the records.
		if err := sendStrings(tagHead, itoa(seg), itoa(lineIdx), itoa(consumed),
			itoa(p.clk.Now().Unix())); err != nil {
			return err
		}
		if err := park(); err != nil {
			return err
		}
	}
}
