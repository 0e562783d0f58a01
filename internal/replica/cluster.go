package replica

// Cluster: self-driving failover over the replication port (no
// external coordinator). Every node runs one Cluster, which owns the
// node's replication listener (a protocol.Listener, bound and serving
// from OpenCluster) and its role:
//
//   - The primary streams the journal to followers (Primary), renews
//     its deadline lease through the per-connection lease frames, and
//     fences itself — flips read-only and stops streaming — the moment
//     it can no longer prove the lease: fencing is anchored at the
//     SEND time of the last acknowledged lease frame, which strictly
//     precedes any follower's election timer (anchored at receive
//     time plus the timeout plus a full interval of margin plus a
//     randomized backoff), so under a clean partition the old primary
//     is read-only before a new one can be elected. A primary that
//     has never had a subscriber since its promotion — a fresh
//     failover winner whose peers are dead, or an operator promotion —
//     runs degraded instead: it self-holds the lease and waives the
//     commit gate, trading the replication guarantee for availability
//     until a follower arrives.
//
//   - A follower tails the primary and watches the lease from the
//     other side: when no hello or lease frame has arrived for a full
//     lease timeout, it starts an election — poll every peer, defer
//     to a live primary or a better-positioned replica (highest
//     journal position wins, lowest address breaks ties), otherwise
//     claim epoch max+1 from the electorate. A pair (n ≤ 2) elects by
//     self-grant — safety comes from the lease timing — while n ≥ 3
//     requires a majority including self. The operator's promotion
//     (ForcePromote) is the same election with force set: no backoff,
//     no deference, and the peers' grants are advisory.
//
//   - A fenced ex-primary polls for the new history and rejoins as a
//     follower with a forced bootstrap, replacing whatever tail it
//     journaled after its lease expired; if no new primary ever
//     appears (the outage was the follower's, not the network's), it
//     re-elects itself after another timeout.
//
// Every promotion — a won election, the operator's, a standalone boot —
// stops the follower if one runs and then takes one path, openPrimary:
// fsck, a fresh journal segment, the journal attached.
//
// Epochs order promotions: persisted (fsynced) before any grant or
// announcement, carried in handshakes, hellos, leases, and acks, so a
// deposed primary is recognized — and fenced — on first contact.
//
// A node with no peers is a standalone durable server: it is its own
// primary from Start, opens no replication listener, and its lease and
// commit gate are waived. Every durable moirad is a Cluster.

import (
	"bufio"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/health"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
	"moira/internal/stats"
	"moira/internal/trace"
)

// Role names, as reported by _whois and the info RPC.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
	RoleFenced  = "fenced"
)

// ClusterConfig configures one failover cluster node.
type ClusterConfig struct {
	// Root is the node's durable data directory (standard layout).
	Root string

	// ListenRepl is the replication listen address, required exactly
	// when Peers is not empty; AdvertiseRepl is the address peers dial
	// it at (defaults to the bound address).
	ListenRepl    string
	AdvertiseRepl string

	// AdvertiseClient is the node's client (query) address, handed to
	// clients chasing the primary.
	AdvertiseClient string

	// Peers are the other nodes' replication addresses (not self);
	// none makes a standalone node.
	Peers []string

	// LeaseInterval is the heartbeat period (default 2s); LeaseTimeout
	// is how long a lease holds without renewal (default 3×interval).
	LeaseInterval time.Duration
	LeaseTimeout  time.Duration

	// Journal configures the journal writer a promoted primary opens.
	Journal db.JournalOptions

	// CheckpointInterval starts periodic snapshots while primary; zero
	// means snapshots are taken only on demand (replica bootstraps).
	CheckpointInterval time.Duration
	// CheckpointKeep is the snapshot retention depth (default 3).
	CheckpointKeep int

	// Clock stamps journal records and head frames; nil means system.
	Clock clock.Clock
	// Logf receives cluster log lines; nil discards.
	Logf func(format string, args ...any)
	// Stats, when non-nil, receives the node's series: election.*,
	// lease.*, repl.*, and journal.* while it is the primary.
	Stats *stats.Registry
	// Tracer, when non-nil, traces applied records and bootstraps.
	Tracer *trace.Tracer

	// OnRole is called on every role change (never concurrently, never
	// under the cluster's lock): the server flips its read-only gate
	// here. readonly is false exactly while the node is the primary. A
	// change to fenced is delivered before Role reports it, a change to
	// primary after, so the gate is never more writable than the role
	// Role reports (fenced implies read-only).
	OnRole func(role string, readonly bool)
}

// Cluster is one node of a failover cluster.
type Cluster struct {
	cfg  ClusterConfig
	clk  clock.Clock
	logf func(string, ...any)

	d     *db.DB
	dd    *db.DataDir
	store *db.CheckpointStore
	info  *queries.RecoverInfo

	ln      *protocol.Listener // the replication port; nil on a standalone node
	wg      sync.WaitGroup     // the role loop and its checkpoints
	closing chan struct{}
	kick    chan struct{} // prods the run loop after a state change

	electMu sync.Mutex // serializes elections (run loop vs ForcePromote)
	ckptMu  sync.Mutex // serializes checkpoints
	inCkpt  atomic.Bool

	mu            sync.Mutex
	role          string
	epoch         int64
	jw            *db.JournalWriter // primary only
	primary       *Primary          // primary only
	rep           *Replica          // follower only
	primaryRepl   string            // current primary's addresses as this node knows them
	primaryClient string
	lastLease     time.Time // follower: last hello/lease receive instant
	fencedAt      time.Time
	promotedAt    time.Time
	lastCause     string
	pendingDepose int64 // epoch that deposed us, noticed mid-stream
	claimEpoch    int64 // epoch this node is currently claiming (0 none)
	claimSeg      int64
	claimIdx      int64
	posSeg        int64 // position while neither jw nor rep is live
	posIdx        int64
	needBoot      bool        // epoch advanced past our tail: next follow must bootstrap
	flaps         []time.Time // role-change instants, for the flapping probe
	everLease     bool        // a lease was ever observed (gates the boot cause)

	elections     atomic.Int64
	electionsWon  atomic.Int64
	electionsAbrt atomic.Int64
	leaseRenewals atomic.Int64
	leaseExpiries atomic.Int64
	gated         atomic.Int64
	gateFailed    atomic.Int64
	gateWaived    atomic.Int64
	lastCkpt      atomic.Int64 // UnixNano of the last checkpoint this run
}

// OpenCluster recovers the node's data directory, binds and serves the
// replication listener (when the node has peers), and prepares (but
// does not start) the role machinery. Every node boots as a read-only
// follower; Start promotes a standalone node and otherwise runs
// discovery and elections.
func OpenCluster(cfg ClusterConfig) (*Cluster, *queries.RecoverInfo, error) {
	if cfg.Root == "" || (len(cfg.Peers) > 0) != (cfg.ListenRepl != "") {
		return nil, nil, fmt.Errorf("replica: cluster needs Root, and ListenRepl exactly when it has Peers")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.LeaseInterval <= 0 {
		cfg.LeaseInterval = 2 * time.Second
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 3 * cfg.LeaseInterval
	}

	d, info, err := queries.Recover(cfg.Root, cfg.Clock, cfg.Logf)
	if err != nil {
		return nil, info, err
	}
	dd, err := db.OpenDataDir(cfg.Root)
	if err != nil {
		return nil, info, err
	}
	store, err := db.NewCheckpointStore(dd.SnapshotsDir(), cfg.CheckpointKeep)
	if err != nil {
		return nil, info, err
	}
	epoch, err := LoadEpoch(cfg.Root)
	if err != nil {
		return nil, info, err
	}
	seg, idx, _, err := scanPosition(dd.JournalDir())
	if err != nil {
		return nil, info, err
	}

	c := &Cluster{
		cfg:     cfg,
		clk:     cfg.Clock,
		logf:    cfg.Logf,
		d:       d,
		dd:      dd,
		store:   store,
		info:    info,
		closing: make(chan struct{}),
		kick:    make(chan struct{}, 1),
		role:    RoleReplica,
		epoch:   epoch,
		posSeg:  seg,
		posIdx:  idx,
	}
	if cfg.ListenRepl != "" {
		// Served from here on: before Start, an info poll sees a
		// follower, a stream is refused MR_READONLY, and a granted claim
		// waits for the role loop as one granted after Start would.
		c.ln = protocol.NewListener()
		c.ln.Logf = c.logf
		addr, err := c.ln.Listen(cfg.ListenRepl, c.serveConn)
		if err != nil {
			return nil, info, err
		}
		if c.cfg.AdvertiseRepl == "" {
			c.cfg.AdvertiseRepl = addr.String()
		}
	}
	if cfg.Stats != nil {
		c.BindStats(cfg.Stats)
	}
	c.logf("cluster: node %s (client %s) opened at epoch %d, position (%d, %d); peers %v",
		c.cfg.AdvertiseRepl, cfg.AdvertiseClient, epoch, seg, idx, cfg.Peers)
	return c, info, nil
}

// DB returns the node's database, serving reads from the moment
// OpenCluster returns.
func (c *Cluster) DB() *db.DB { return c.d }

// Epoch reports the node's current election epoch.
func (c *Cluster) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Role reports the node's current role.
func (c *Cluster) Role() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// Start launches the role loop. A standalone node is promoted before
// Start returns, so its first request may be a write.
func (c *Cluster) Start() {
	if len(c.cfg.Peers) == 0 {
		if err := c.promote(c.epochFloor()+1, "boot", nil); err != nil {
			c.logf("cluster: boot promotion: %v", err)
		}
	}
	c.wg.Add(1)
	go c.run()
}

// Close shuts the node down: listener, role loop, then the stream and
// the journal. The listener goes first: it cuts every replication
// stream at once (a stream never marks itself in flight), lets an
// election RPC deliver its reply, and returns once their goroutines
// are gone, so no stream still reads a segment when the journal writer
// closes below. The role loop may promote or rejoin until it stops, so
// the primary, follower and journal are taken after it has.
func (c *Cluster) Close() error {
	select {
	case <-c.closing:
		return nil
	default:
	}
	close(c.closing)
	if c.ln != nil {
		c.ln.Close()
	}
	c.wg.Wait()
	c.mu.Lock()
	p, rep, jw := c.primary, c.rep, c.jw
	c.primary, c.rep, c.jw = nil, nil, nil
	c.mu.Unlock()
	if p != nil {
		p.Close()
	}
	if rep != nil {
		rep.Close()
	}
	if jw == nil {
		return nil
	}
	c.d.SetJournal(nil)
	return jw.Close()
}

// ---- listener ----

// writeFinal writes one final (not MR_MORE_DATA) reply and flushes it.
func writeFinal(bw *bufio.Writer, code mrerr.Code, fields ...string) {
	protocol.WriteReply(bw, &protocol.Reply{
		Version: protocol.Version,
		Code:    int32(code),
		Fields:  protocol.BytesArgs(fields),
	})
	bw.Flush()
}

// serveConn serves one connection to the replication port: a stream
// (the primary's, until it ends) or one election RPC. The listener
// closes the connection when it returns.
func (c *Cluster) serveConn(conn *protocol.Conn) {
	br := bufio.NewReader(conn)
	req, err := protocol.ReadRequest(br)
	if err != nil {
		return
	}
	bw := bufio.NewWriter(conn)
	if req.Version != protocol.Version {
		writeFinal(bw, mrerr.MrVersionMismatch)
		return
	}
	switch req.Op {
	case protocol.OpReplicate:
		c.mu.Lock()
		p, primaryRepl := c.primary, c.primaryRepl
		c.mu.Unlock()
		if p == nil {
			// Not the primary: refuse the stream and name the primary
			// we know, so a misdirected follower retargets in one hop.
			writeFinal(bw, mrerr.MrReadonly, primaryRepl)
			return
		}
		p.ServeReplicate(conn, br, req) // blocks until the stream ends
	case protocol.OpElection:
		// In flight: a closing listener lets the reply go out.
		conn.Begin()
		c.serveElection(bw, req)
	default:
		writeFinal(bw, mrerr.MrUnknownProc)
	}
}

func (c *Cluster) serveElection(bw *bufio.Writer, req *protocol.Request) {
	args := req.StringArgs()
	if len(args) == 0 {
		writeFinal(bw, mrerr.MrArgs)
		return
	}
	switch args[0] {
	case electInfo:
		c.mu.Lock()
		role, epoch := c.role, c.epoch
		seg, idx := c.posLocked()
		held := role == RolePrimary && c.leaseHeldLocked()
		c.mu.Unlock()
		heldField := "0"
		if held {
			heldField = "1"
		}
		writeFinal(bw, mrerr.Success, role, itoa(epoch), itoa(seg), itoa(idx),
			c.cfg.AdvertiseRepl, c.cfg.AdvertiseClient, heldField)
	case electClaim:
		if len(args) != 7 {
			writeFinal(bw, mrerr.MrArgs)
			return
		}
		epoch, e1 := parseInt(args[1])
		seg, e2 := parseInt(args[2])
		idx, e3 := parseInt(args[3])
		if e1 != nil || e2 != nil || e3 != nil {
			writeFinal(bw, mrerr.MrArgs)
			return
		}
		granted, reason, myEpoch := c.evaluateClaim(epoch, seg, idx, args[4], args[5], args[6] == "1")
		if granted {
			writeFinal(bw, mrerr.Success, "granted")
		} else {
			writeFinal(bw, mrerr.MrPerm, reason, itoa(myEpoch))
		}
	default:
		writeFinal(bw, mrerr.MrArgs)
	}
}

// evaluateClaim is one node's vote on a candidate's claim to lead a
// new epoch.
func (c *Cluster) evaluateClaim(epoch, seg, idx int64, candRepl, candClient string, force bool) (bool, string, int64) {
	c.mu.Lock()
	myEpoch := c.epoch
	mySeg, myIdx := c.posLocked()
	var reason string
	switch {
	case epoch <= myEpoch:
		reason = "stale-epoch"
	case !force && c.role == RolePrimary && c.leaseHeldLocked():
		// The candidate jumped the gun: our lease is still provably
		// held, so no correct election can be due yet.
		reason = "lease-held"
	case !force && c.role != RoleFenced && better(mySeg, myIdx, c.cfg.AdvertiseRepl, seg, idx, candRepl):
		// Electing a candidate behind us would lose acknowledged
		// commits; the candidate must defer to us (or someone better).
		reason = "better-candidate"
	case !force && c.claimEpoch >= epoch && better(c.claimSeg, c.claimIdx, c.cfg.AdvertiseRepl, seg, idx, candRepl):
		reason = "competing-claim"
	}
	if reason != "" {
		c.mu.Unlock()
		c.logf("cluster: denied claim epoch %d from %s (%s)", epoch, candRepl, reason)
		return false, reason, myEpoch
	}
	// Granting adopts the epoch — persisted before the reply leaves,
	// so a crash cannot make this node grant the same epoch twice.
	if err := StoreEpoch(c.cfg.Root, epoch); err != nil {
		c.mu.Unlock()
		c.logf("cluster: persisting granted epoch %d: %v", epoch, err)
		return false, "epoch-persist-failed", myEpoch
	}
	c.epoch = epoch
	c.primaryRepl, c.primaryClient = candRepl, candClient
	c.lastLease = time.Now() // grace: give the new primary time to start streaming
	wasPrimary := c.role == RolePrimary
	if wasPrimary {
		c.pendingDepose = epoch
	}
	// Our journal is a verbatim prefix of the winner's only if the
	// claim covers us within our own segment; a winner ahead by a
	// whole segment may have rotated past records we still hold (and a
	// forced claim may be behind us outright), so the next follow must
	// bootstrap instead of tailing into divergence.
	needBoot := !(seg == mySeg && idx >= myIdx)
	if needBoot {
		c.needBoot = true
	}
	rep := c.rep
	c.mu.Unlock()
	c.logf("cluster: granted claim epoch %d to %s", epoch, candRepl)
	if rep != nil {
		if needBoot {
			rep.ForceBootstrap()
			c.mu.Lock()
			c.needBoot = false
			c.mu.Unlock()
		}
		rep.SetFrom(candRepl)
	}
	c.kickNow()
	return true, "", myEpoch
}

func (c *Cluster) kickNow() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// posLocked reports the node's journal position as (segment, next
// record index) — the primary's head, a follower's applied position,
// or the boot/fenced scan.
func (c *Cluster) posLocked() (int64, int64) {
	if c.jw != nil {
		return c.jw.Head()
	}
	if c.rep != nil {
		return c.rep.Position()
	}
	return c.posSeg, c.posIdx
}

// quorumNeed is how many peer grants (or acks) a decision needs: a
// pair decides alone (safety comes from the lease timing), three or
// more need a majority including self.
func (c *Cluster) quorumNeed() int {
	n := len(c.cfg.Peers) + 1
	if n <= 2 {
		return 0
	}
	return n / 2
}

// leaseHeldLocked is the primary's own view of its lease.
func (c *Cluster) leaseHeldLocked() bool {
	if len(c.cfg.Peers) == 0 {
		return true
	}
	if c.primary == nil {
		return false
	}
	// Degraded mode: no replica has subscribed since this promotion.
	// A fresh failover winner (or operator promotion) whose peers are
	// dead serves alone rather than flapping; the moment a replica
	// connects and then goes stale, the normal rule below takes over
	// and the lease can be lost.
	if !c.primary.HadSubscriber() {
		return true
	}
	need := c.quorumNeed()
	if need == 0 {
		need = 1
	}
	if _, fresh := c.primary.LeaseFresh(c.cfg.LeaseTimeout); fresh >= need {
		return true
	}
	// Grace after promotion, and after the first subscription that ended
	// degraded mode: followers need a moment to find us, and a new
	// subscriber to ack its first lease.
	if sub := c.primary.FirstSubscribed(); time.Since(sub) < c.cfg.LeaseTimeout {
		return true
	}
	return time.Since(c.promotedAt) < c.cfg.LeaseTimeout
}

// ---- role loop ----

func (c *Cluster) run() {
	defer c.wg.Done()
	c.bootDiscover()
	tick := c.cfg.LeaseInterval / 2
	if tick < 20*time.Millisecond {
		tick = 20 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.closing:
			return
		case <-t.C:
		case <-c.kick:
		}
		c.step()
	}
}

// bootDiscover polls the peers once before choosing a role: a live
// primary with an epoch at least ours is followed; otherwise lastLease
// stays zero, so the first step runs an election (with the usual
// randomized backoff and re-poll).
func (c *Cluster) bootDiscover() {
	c.followLive(c.pollPeers(c.cfg.LeaseInterval), "boot")
}

func (c *Cluster) step() {
	c.mu.Lock()
	role := c.role
	pending := c.pendingDepose
	lease := c.lastLease
	fencedAt := c.fencedAt
	repNil := c.rep == nil
	target := c.primaryRepl
	everLease := c.everLease
	c.mu.Unlock()

	switch role {
	case RolePrimary:
		if pending > 0 {
			c.fence("deposed")
			return
		}
		c.mu.Lock()
		held := c.leaseHeldLocked()
		c.mu.Unlock()
		if !held {
			c.leaseExpiries.Add(1)
			c.fence("lease-expired")
			return
		}
		c.primaryMaintain()
	case RoleReplica:
		if repNil && target != "" {
			c.becomeFollower("boot", false)
			return
		}
		// The election threshold adds a full interval beyond the lease
		// timeout: the primary's own fence check runs on the step
		// ticker, so this margin guarantees the old primary is fenced
		// strictly before any follower can promote.
		if time.Since(lease) > c.cfg.LeaseTimeout+c.cfg.LeaseInterval {
			cause := "lease-expired"
			if !everLease && lease.IsZero() {
				cause = "boot"
			}
			c.elect(cause, false)
		}
	case RoleFenced:
		// Look for the new history to rejoin; failing that, after a
		// further timeout, stand for election ourselves (maybe nobody
		// else could be elected).
		if c.followLive(c.pollPeers(c.cfg.LeaseInterval), "rejoin") {
			return
		}
		if time.Since(fencedAt) > c.cfg.LeaseTimeout {
			c.elect("lease-expired", false)
		}
	}
}

// primaryMaintain runs the primary's periodic duties: checkpoints,
// and watching for a rival primary (a healed boot-time split brain).
func (c *Cluster) primaryMaintain() {
	if iv := c.cfg.CheckpointInterval; iv > 0 {
		last := c.lastCkpt.Load()
		if time.Since(time.Unix(0, last)) > iv && c.inCkpt.CompareAndSwap(false, true) {
			// Counted in wg so Close returns only once no snapshot is
			// being written into the data directory.
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer c.inCkpt.Store(false)
				if gen, err := c.Checkpoint(); err != nil {
					c.logf("cluster: checkpoint: %v", err)
				} else {
					c.logf("cluster: checkpoint: snapshot generation %d", gen)
				}
			}()
		}
	}
}

// adoptPrimary records a discovered primary (persisting its epoch if
// it advances ours). A primary discovered by polling — unlike one that
// granted us nothing and proved nothing about our position — may hold
// a history that does not extend our tail (we may have journaled
// records it never acknowledged), so advancing the epoch here marks
// the next follow as a forced bootstrap.
func (c *Cluster) adoptPrimary(epoch int64, replAddr, clientAddr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		if err := StoreEpoch(c.cfg.Root, epoch); err != nil {
			c.logf("cluster: persisting adopted epoch %d: %v", epoch, err)
			return
		}
		c.epoch = epoch
		c.needBoot = true
	}
	c.primaryRepl, c.primaryClient = replAddr, clientAddr
	c.lastLease = time.Now()
}

func (c *Cluster) epochFloor() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// pollPeers polls every peer in parallel, returning whoever answered.
func (c *Cluster) pollPeers(timeout time.Duration) []peerInfo {
	var (
		mu    sync.Mutex
		infos []peerInfo
		wg    sync.WaitGroup
	)
	for _, addr := range c.cfg.Peers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			pi, err := pollPeer(addr, timeout)
			if err != nil {
				return
			}
			mu.Lock()
			infos = append(infos, pi)
			mu.Unlock()
		}(addr)
	}
	wg.Wait()
	return infos
}

// ---- transitions ----

// becomeFollower attaches (or re-attaches) the tailing replica at the
// currently known primary. force requests a full bootstrap — required
// whenever this node's journal tail may diverge (it was primary).
func (c *Cluster) becomeFollower(cause string, force bool) {
	c.mu.Lock()
	target := c.primaryRepl
	if target == "" || c.rep != nil || c.role == RolePrimary {
		c.mu.Unlock()
		return
	}
	force = force || c.needBoot
	c.mu.Unlock()

	rep, err := OpenRejoin(Config{
		From:        target,
		Clock:       c.clk,
		Logf:        c.logf,
		Tracer:      c.cfg.Tracer,
		RetryDelay:  c.cfg.LeaseInterval / 2,
		DialTimeout: c.cfg.LeaseTimeout,
		Cluster: &ReplicaCluster{
			Epoch:      c.Epoch,
			OnHello:    c.onHello,
			OnLease:    c.onLease,
			OnRedirect: c.onRedirect,
		},
	}, c.d, c.dd, force)
	if err != nil {
		c.logf("cluster: rejoin as follower: %v", err)
		return
	}

	c.mu.Lock()
	c.rep = rep
	c.needBoot = false
	c.setRoleLocked(RoleReplica, cause)
	c.lastLease = time.Now()
	c.mu.Unlock()
	// Lift a fence's DetachJournal latch: from here the stream is the
	// only writer, and its records apply through the query layer.
	c.d.SetJournal(nil)
	rep.Start()
	c.notifyRole(RoleReplica)
}

// fence demotes the primary: read-only first, then publish the fenced
// role, then tear the stream and the journal down. The node keeps
// serving reads and enters the rejoin loop.
func (c *Cluster) fence(cause string) {
	c.mu.Lock()
	primary := c.role == RolePrimary
	c.mu.Unlock()
	if !primary {
		return
	}
	c.logf("cluster: fencing (%s): writes off, stream down", cause)
	// The server's gate closes while the node still reports primary, so
	// nothing that observes "fenced" (_whois, /readyz) can still get a
	// write admitted. OnRole runs outside mu, as it may call back in;
	// only the role loop (our caller) leaves RolePrimary, so the role
	// cannot change before we publish it below.
	c.notifyRole(RoleFenced)

	// Then the journal comes off under the database lock, latching the
	// store against mutations: a write that passed the gate before it
	// closed either committed already (journaled) or is refused when it
	// gets the lock. It never applies in memory alone, which a later
	// re-promotion of this node would carry into the new epoch. Only
	// the role loop changes c.jw while the node runs.
	c.mu.Lock()
	jw := c.jw
	c.mu.Unlock()
	if jw != nil {
		c.d.DetachJournal()
	}

	c.mu.Lock()
	p := c.primary
	if jw != nil {
		seg, recs := jw.Head()
		c.posSeg, c.posIdx = seg, recs
	}
	c.primary, c.jw = nil, nil
	c.pendingDepose = 0
	c.fencedAt = time.Now()
	c.setRoleLocked(RoleFenced, cause)
	c.mu.Unlock()

	if p != nil {
		p.Close()
	}
	if jw != nil {
		jw.Close()
	}
	c.kickNow()
}

// promote makes this node the primary for epoch. rep is the follower
// being promoted (nil at boot or from fenced): it stops first, and
// stays the node's follower, stopped, until the role changes, so the
// role loop cannot start another in between. The epoch is persisted
// under mu, with the claim grants and adoptions that also write it,
// and a promotion whose epoch a grant or adoption has reached meanwhile
// is refused: two primaries never share an epoch.
func (c *Cluster) promote(epoch int64, cause string, rep *Replica) error {
	if rep != nil {
		rep.Close()
	}
	var err error
	c.mu.Lock()
	if c.epoch >= epoch {
		err = fmt.Errorf("epoch %d superseded by %d", epoch, c.epoch)
	} else if err = StoreEpoch(c.cfg.Root, epoch); err != nil {
		err = fmt.Errorf("persisting epoch %d: %w", epoch, err)
	}
	c.mu.Unlock()
	var jw *db.JournalWriter
	if err == nil {
		jw, err = openPrimary(c.d, c.dd, c.cfg.Journal, c.logf)
	}
	if err != nil {
		// The follower is stopped either way; fall to fenced and let
		// the rejoin loop rebuild a clean one. Read-only first, as in
		// fence.
		c.notifyRole(RoleFenced)
		c.mu.Lock()
		c.rep = nil
		c.fencedAt = time.Now()
		c.setRoleLocked(RoleFenced, cause)
		c.mu.Unlock()
		return err
	}
	if c.cfg.Stats != nil {
		jw.TimeSyncs(c.cfg.Stats)
	}

	p := NewPrimary(PrimaryConfig{
		Journal:    jw,
		Store:      c.store,
		Checkpoint: func() (int64, error) { return c.Checkpoint() },
		Logf:       c.logf,
		Clock:      c.clk,
		Cluster: &PrimaryCluster{
			Epoch:         c.Epoch,
			ReplAddr:      c.cfg.AdvertiseRepl,
			ClientAddr:    c.cfg.AdvertiseClient,
			LeaseInterval: c.cfg.LeaseInterval,
			OnStaleSelf:   c.onStaleSelf,
		},
	})

	c.mu.Lock()
	c.epoch = epoch
	c.rep = nil
	c.jw = jw
	c.primary = p
	c.promotedAt = time.Now()
	c.primaryRepl, c.primaryClient = c.cfg.AdvertiseRepl, c.cfg.AdvertiseClient
	c.pendingDepose = 0
	c.needBoot = false // our journal IS the epoch's history now
	c.setRoleLocked(RolePrimary, cause)
	c.mu.Unlock()

	c.electionsWon.Add(1)
	c.logf("cluster: promoted to primary, epoch %d (%s); journal segment %d", epoch, cause, jw.Seq())
	c.notifyRole(RolePrimary)
	return nil
}

// openPrimary is the one way a node's database becomes a primary's:
// the referential-integrity check refuses on any finding (the node
// keeps serving reads and the operator decides), then a fresh journal
// segment opens in dd, one past any mirrored history, and is attached,
// so d journals, and so accepts, mutations. No follower may be tailing
// into d.
func openPrimary(d *db.DB, dd *db.DataDir, opts db.JournalOptions, logf func(string, ...any)) (*db.JournalWriter, error) {
	if issues := d.Fsck(); len(issues) > 0 {
		for _, in := range issues {
			logf("cluster: promote fsck: %s", in)
		}
		return nil, fmt.Errorf("fsck found %d inconsistencies; refusing promotion", len(issues))
	}
	jw, err := db.OpenJournalWriter(dd.JournalDir(), opts)
	if err != nil {
		return nil, err
	}
	d.SetJournal(jw)
	return jw, nil
}

// setRoleLocked records a role change (caller holds mu). The OnRole
// callback is NOT called here — callers invoke notifyRole outside mu.
func (c *Cluster) setRoleLocked(role, cause string) {
	if c.role == role {
		return
	}
	c.role = role
	c.lastCause = cause
	now := time.Now()
	c.flaps = append(c.flaps, now)
	// Keep a bounded window; the flapping probe looks back 5 minutes.
	for len(c.flaps) > 0 && now.Sub(c.flaps[0]) > 5*time.Minute {
		c.flaps = c.flaps[1:]
	}
}

func (c *Cluster) notifyRole(role string) {
	if c.cfg.OnRole != nil {
		c.cfg.OnRole(role, role != RolePrimary)
	}
}

// ---- elections ----

// elect runs one election round. Without force, the round waits out
// the lease and a randomized backoff, follows a live primary or defers
// to a better-positioned replica if the poll finds one, skips a round
// nobody answers when the node may not promote alone, and promotes on
// a quorum of grants. force, the operator's promotion, skips all of
// that: the grants are advisory (granting retargets a peer at once
// instead of on first contact), so a forced round promotes even with
// no peer reachable. A round that does not promote is logged and
// counted, not an error; the error is promote's.
func (c *Cluster) elect(cause string, force bool) error {
	c.electMu.Lock()
	defer c.electMu.Unlock()

	// Re-check under the election lock: another round (or an inbound
	// claim grant) may have already resolved this.
	c.mu.Lock()
	if c.role == RolePrimary {
		c.mu.Unlock()
		return nil
	}
	startRole := c.role
	lease := c.lastLease
	everLease := c.everLease
	c.mu.Unlock()
	if !force && !lease.IsZero() && time.Since(lease) < c.cfg.LeaseTimeout+c.cfg.LeaseInterval {
		return nil
	}

	c.elections.Add(1)
	if !force {
		// Randomized backoff staggers simultaneous candidates; the
		// better-positioned one claims first and the rest defer.
		backoff := time.Duration(rand.Int63n(int64(c.cfg.LeaseInterval)))
		select {
		case <-time.After(backoff):
		case <-c.closing:
			return nil
		}
	}

	infos := c.pollPeers(c.cfg.LeaseInterval)
	if !force && c.followLive(infos, "rejoin") {
		c.logf("cluster: election aborted: a primary is live")
		c.electionsAbrt.Add(1)
		return nil
	}
	c.mu.Lock()
	maxEpoch := c.epoch
	mySeg, myIdx := c.posLocked()
	myAddr := c.cfg.AdvertiseRepl
	c.mu.Unlock()
	for _, pi := range infos {
		maxEpoch = max(maxEpoch, pi.epoch)
		if !force && pi.role == RoleReplica && better(pi.seg, pi.idx, pi.replAddr, mySeg, myIdx, myAddr) {
			// Defer to the better candidate; if it never claims, the
			// next timeout retries (and it will have failed the same
			// deference check only if it outranks us, so one of us
			// always eventually stands).
			c.logf("cluster: election deferred to better candidate %s at (%d, %d)", pi.replAddr, pi.seg, pi.idx)
			c.electionsAbrt.Add(1)
			return nil
		}
	}

	if !force && len(infos) == 0 {
		// Nobody answered the poll. A fenced ex-primary stays fenced
		// rather than flapping promote/fence against a dead network,
		// and a node that has never heard any primary this incarnation
		// refuses to boot a solo history (a partitioned cold boot must
		// not create two primaries). Only a follower that personally
		// watched a live primary's lease lapse may self-promote.
		if startRole == RoleFenced {
			c.logf("cluster: election skipped: fenced with no reachable peers")
			c.electionsAbrt.Add(1)
			return nil
		}
		if c.quorumNeed() == 0 && !everLease {
			c.logf("cluster: election skipped: no peers reachable and no primary ever heard")
			c.electionsAbrt.Add(1)
			return nil
		}
	}

	newEpoch := maxEpoch + 1
	c.mu.Lock()
	c.claimEpoch, c.claimSeg, c.claimIdx = newEpoch, mySeg, myIdx
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.claimEpoch, c.claimSeg, c.claimIdx = 0, 0, 0
		c.mu.Unlock()
	}()

	c.logf("cluster: standing for election: epoch %d at (%d, %d), cause %s", newEpoch, mySeg, myIdx, cause)
	type vote struct {
		res claimResult
		err error
	}
	votes := make([]vote, len(c.cfg.Peers))
	var wg sync.WaitGroup
	for i, addr := range c.cfg.Peers {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			res, err := sendClaim(addr, c.cfg.LeaseTimeout, newEpoch, mySeg, myIdx,
				c.cfg.AdvertiseRepl, c.cfg.AdvertiseClient, force)
			votes[i] = vote{res, err}
		}(i, addr)
	}
	wg.Wait()

	grants, denials := 0, 0
	for _, v := range votes {
		switch {
		case v.err != nil:
			// Unreachable: not a vote either way.
		case v.res.granted:
			grants++
		default:
			denials++
		}
	}
	need := c.quorumNeed()
	won := force || grants >= need
	if !force && need == 0 && denials > 0 {
		// A pair (or smaller) elects by self-grant only when the peer
		// is silent; an explicit denial means our view was wrong.
		won = false
	}
	if !won {
		c.logf("cluster: election lost: %d grants, %d denials (need %d)", grants, denials, need)
		c.electionsAbrt.Add(1)
		return nil
	}

	c.mu.Lock()
	rep := c.rep
	c.mu.Unlock()
	err := c.promote(newEpoch, cause, rep)
	if err != nil {
		c.logf("cluster: promotion failed: %v", err)
	}
	return err
}

// followLive adopts the first live primary in infos whose epoch is at
// least ours and points the follower machinery at it, reporting
// whether it found one: the step that boot discovery, a fenced node's
// rejoin poll and an election's poll share.
func (c *Cluster) followLive(infos []peerInfo, cause string) bool {
	for _, pi := range infos {
		if pi.role == RolePrimary && pi.epoch >= c.Epoch() {
			c.logf("cluster: %s is primary at epoch %d", pi.replAddr, pi.epoch)
			c.adoptPrimary(pi.epoch, pi.replAddr, pi.clientAddr)
			c.retargetOrFollow(cause)
			return true
		}
	}
	return false
}

// retargetOrFollow points the follower machinery at the currently
// known primary: a running follower is retargeted, otherwise one
// starts (with a forced bootstrap from fenced, or when the epoch
// advanced past our tail).
func (c *Cluster) retargetOrFollow(cause string) {
	c.mu.Lock()
	rep, target, role := c.rep, c.primaryRepl, c.role
	needBoot := c.needBoot
	c.needBoot = false
	c.mu.Unlock()
	if target == "" {
		return
	}
	if rep == nil {
		c.becomeFollower(cause, needBoot || role == RoleFenced)
		return
	}
	if needBoot {
		rep.ForceBootstrap()
	}
	rep.SetFrom(target)
}

// ForcePromote is the operator's promotion (SIGUSR1, -promote): an
// election with force set, which seizes the lease now at an epoch past
// everything reachable. It fails only if this node cannot promote.
func (c *Cluster) ForcePromote(cause string) error {
	return c.elect(cause, true)
}

// ---- follower callbacks ----

func (c *Cluster) onHello(epoch int64, replAddr, clientAddr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.epoch {
		return fmt.Errorf("primary at epoch %d is stale (ours %d)", epoch, c.epoch)
	}
	if epoch > c.epoch {
		if err := StoreEpoch(c.cfg.Root, epoch); err != nil {
			return fmt.Errorf("persisting epoch %d: %w", epoch, err)
		}
		c.epoch = epoch
	}
	c.primaryRepl, c.primaryClient = replAddr, clientAddr
	c.lastLease = time.Now()
	c.everLease = true
	return nil
}

func (c *Cluster) onLease(epoch int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.epoch {
		return // a stale primary's lease must not delay our election
	}
	c.lastLease = time.Now()
	c.everLease = true
	c.leaseRenewals.Add(1)
}

func (c *Cluster) onRedirect(replAddr string) {
	c.mu.Lock()
	c.primaryRepl = replAddr
	rep := c.rep
	c.mu.Unlock()
	if rep != nil {
		rep.SetFrom(replAddr)
	}
}

func (c *Cluster) onStaleSelf(peerEpoch int64) {
	c.mu.Lock()
	if c.role == RolePrimary && peerEpoch > c.epoch {
		c.pendingDepose = peerEpoch
	}
	c.mu.Unlock()
	c.kickNow()
}

// ---- the server's failover surface ----

// Whois reports the node's failover identity for the _whois handle.
func (c *Cluster) Whois() queries.WhoisInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	seg, idx := c.posLocked()
	w := queries.WhoisInfo{
		Role:        c.role,
		Epoch:       c.epoch,
		Seg:         seg,
		Idx:         idx,
		Primary:     c.primaryClient,
		PrimaryRepl: c.primaryRepl,
		LastCause:   c.lastCause,
	}
	w.LeaseRemain = c.leaseRemainLocked()
	return w
}

func (c *Cluster) leaseRemainLocked() time.Duration {
	switch {
	case c.role == RolePrimary:
		if c.primary != nil && !c.primary.HadSubscriber() {
			// Degraded solo primary: the lease is self-held.
			return c.cfg.LeaseTimeout
		}
		anchor := c.promotedAt
		if c.primary != nil {
			if s := c.primary.FirstSubscribed(); s.After(anchor) {
				anchor = s // the grace leaseHeldLocked gives a first subscriber
			}
			if g := c.primary.NewestGrant(); g.After(anchor) {
				anchor = g
			}
		}
		return c.cfg.LeaseTimeout - time.Since(anchor)
	case c.lastLease.IsZero():
		return 0
	default:
		return c.cfg.LeaseTimeout - time.Since(c.lastLease)
	}
}

// CommitGate is the semi-synchronous replication gate: it blocks
// until the commit at (seg, idx) is acknowledged by the quorum (one
// replica in a pair, a majority including self otherwise). A timeout
// is MR_NOT_REPLICATED: the commit is journaled locally but was never
// acknowledged, so the client must not rely on it surviving failover.
func (c *Cluster) CommitGate(seg, idx int64) error {
	if len(c.cfg.Peers) == 0 {
		return nil
	}
	c.mu.Lock()
	p := c.primary
	c.mu.Unlock()
	if p == nil {
		return mrerr.MrReadonly
	}
	if !p.HadSubscriber() {
		// Degraded mode (see leaseHeldLocked): nobody to replicate to
		// yet, so the commit stands on local fsync alone.
		c.gateWaived.Add(1)
		return nil
	}
	need := c.quorumNeed()
	if need == 0 {
		need = 1
	}
	c.gated.Add(1)
	if err := p.WaitAcked(seg, idx, need, c.cfg.LeaseTimeout); err != nil {
		c.gateFailed.Add(1)
		c.logf("cluster: commit gate: %v", err)
		return mrerr.MrNotReplicated
	}
	return nil
}

// Token mints the v5 position token for a commit.
func (c *Cluster) Token(seg, idx int64) string {
	return protocol.Pos{Epoch: c.Epoch(), Seg: seg, Idx: idx}.String()
}

// WaitCovered blocks (bounded by one lease interval) until the node's
// applied position covers pos — the read-your-writes check for v5
// retrieves carrying a minimum-position token.
func (c *Cluster) WaitCovered(pos protocol.Pos) bool {
	if pos.IsZero() {
		return true
	}
	deadline := time.Now().Add(c.cfg.LeaseInterval)
	for {
		c.mu.Lock()
		seg, idx := c.posLocked()
		c.mu.Unlock()
		if pos.Covers(seg, idx) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-c.closing:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// PrimaryClient names the current primary's client address, for
// MR_READONLY / MR_STALE redirects ("" when unknown).
func (c *Cluster) PrimaryClient() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.role == RolePrimary {
		return c.cfg.AdvertiseClient
	}
	return c.primaryClient
}

// Checkpoint takes a snapshot now (primary only): rotate the journal,
// dump every table plus manifest, and prune the snapshots beyond the
// keep depth and the journal segments none of the retained snapshots
// need.
func (c *Cluster) Checkpoint() (int64, error) {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	c.mu.Lock()
	jw := c.jw
	c.mu.Unlock()
	if jw == nil {
		return 0, fmt.Errorf("cluster: not the primary")
	}
	gen, err := c.store.Take(c.d, jw.Rotate)
	if err != nil {
		return 0, err
	}
	c.lastCkpt.Store(time.Now().UnixNano())
	if oldest := c.store.OldestKeptJournalSeq(); oldest > 0 {
		if n, err := db.PruneSegments(jw.Dir(), oldest); err != nil {
			c.logf("cluster: checkpoint: pruning journal segments: %v", err)
		} else if n > 0 {
			c.logf("cluster: checkpoint: pruned %d journal segments below %d", n, oldest)
		}
	}
	return gen, nil
}

// ---- observability ----

// BindStats publishes the node's series into reg as one group that
// reads, at scrape time, whichever follower, primary stream, and
// journal writer are live: election.*, lease.*, repl.commit.*, the
// follower's upstream and lag series, the primary's repl.primary.*, and
// journal.*.
func (c *Cluster) BindStats(reg *stats.Registry) {
	reg.AddGroup(func(emit func(string, int64)) {
		c.mu.Lock()
		role := c.role
		epoch := c.epoch
		seg, idx := c.posLocked()
		held := role == RolePrimary && c.leaseHeldLocked()
		remain := c.leaseRemainLocked().Milliseconds()
		flaps := c.flapsLocked()
		p, rep, jw := c.primary, c.rep, c.jw
		c.mu.Unlock()

		roleCode := int64(1)
		switch role {
		case RolePrimary:
			roleCode = 2
		case RoleFenced:
			roleCode = 3
		}
		emit("repl.role", roleCode)
		emit("repl.applied.seg", seg)
		emit("repl.applied.idx", idx)
		emit("election.epoch", epoch)
		emit("election.count", c.elections.Load())
		emit("election.won", c.electionsWon.Load())
		emit("election.aborted", c.electionsAbrt.Load())
		emit("election.flaps", int64(flaps))
		if held {
			emit("lease.held", 1)
		} else {
			emit("lease.held", 0)
		}
		if remain < 0 {
			remain = 0
		}
		emit("lease.remaining.ms", remain)
		emit("lease.renewals", c.leaseRenewals.Load())
		emit("lease.expiries", c.leaseExpiries.Load())
		emit("repl.commit.gated", c.gated.Load())
		emit("repl.commit.gatefail", c.gateFailed.Load())
		emit("repl.commit.waived", c.gateWaived.Load())
		if p != nil {
			p.emitStats(emit)
		}
		if rep != nil {
			rep.emitStats(emit)
		}
		if jw != nil {
			jw.EmitStats(emit)
		}
	})
}

// flapsLocked counts the role changes in the last five minutes.
func (c *Cluster) flapsLocked() int {
	now := time.Now()
	flaps := 0
	for _, t := range c.flaps {
		if now.Sub(t) <= 5*time.Minute {
			flaps++
		}
	}
	return flaps
}

// FollowerLag reports the follower's upstream session state and how
// many seconds it is behind the primary; following is false while the
// node runs no follower (it is the primary, or fenced between streams).
func (c *Cluster) FollowerLag() (connected bool, lagSeconds int64, following bool) {
	c.mu.Lock()
	rep := c.rep
	c.mu.Unlock()
	if rep == nil {
		return false, 0, false
	}
	return rep.Connected(), rep.LagSeconds(), true
}

// BindHealth registers the node's probes: no-primary (the node has not
// heard from any primary — or been one — within two lease timeouts),
// election-flapping (more than three role changes in five minutes), and
// checkpoint (as primary, the last snapshot is more than three
// checkpoint intervals old).
func (c *Cluster) BindHealth(h *health.Checker) {
	h.AddFunc("no-primary", func() (bool, string) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.role == RolePrimary {
			return true, "primary"
		}
		if c.lastLease.IsZero() {
			return false, "no primary heard from since boot"
		}
		if age := time.Since(c.lastLease); age > 2*c.cfg.LeaseTimeout {
			return false, fmt.Sprintf("no primary heard from (last lease %v ago)", age.Round(time.Millisecond))
		}
		return true, "primary at " + c.primaryRepl
	})
	h.AddFunc("election-flapping", func() (bool, string) {
		c.mu.Lock()
		flaps := c.flapsLocked()
		c.mu.Unlock()
		return flaps <= 3, fmt.Sprintf("%d role changes in the last 5m", flaps)
	})
	h.AddFunc("checkpoint", func() (bool, string) {
		if c.Role() != RolePrimary {
			return true, "not the primary"
		}
		last := c.lastCkpt.Load()
		if last == 0 {
			return true, "no checkpoint yet this run"
		}
		age := time.Since(time.Unix(0, last))
		if iv := c.cfg.CheckpointInterval; iv > 0 && age > 3*iv {
			return false, fmt.Sprintf("last checkpoint %s ago (interval %s)", age.Round(time.Second), iv)
		}
		return true, fmt.Sprintf("last checkpoint %s ago", age.Round(time.Second))
	})
}
