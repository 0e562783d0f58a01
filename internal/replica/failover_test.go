package replica

// Chaos tests for the failover cluster: primary death, netsplits,
// deposed-primary rejoin, and read-your-writes, all in-process so the
// race detector sees every interleaving. The timing knobs are scaled
// way down (100ms leases) so a full failover fits in well under a
// second of wall clock.

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moira/internal/client"
	"moira/internal/db"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/queries"
	"moira/internal/server"
	"moira/internal/stats"
)

const (
	testLeaseInterval = 100 * time.Millisecond
	testLeaseTimeout  = 400 * time.Millisecond

	foServer = "moira.server"
	foAdmin  = "fadmin"
	foPass   = "fadminpw"
)

// freeAddr reserves a loopback address: bind, read it back, release.
// The tiny window before the node rebinds it is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// fenv is the shared Kerberos world for a failover test: one KDC and
// one verifier that every node's server trusts.
type fenv struct {
	kdc *kerberos.KDC
	ver *kerberos.Verifier
}

func newFenv(t *testing.T) *fenv {
	t.Helper()
	kdc := kerberos.NewKDC("ATHENA.MIT.EDU", staticClock{instant})
	if err := kdc.AddPrincipal(foServer, "server-password"); err != nil {
		t.Fatal(err)
	}
	if err := kdc.AddPrincipal(foAdmin, foPass); err != nil {
		t.Fatal(err)
	}
	key, err := kdc.Srvtab(foServer)
	if err != nil {
		t.Fatal(err)
	}
	return &fenv{kdc: kdc, ver: kerberos.NewVerifier(foServer, key, staticClock{instant})}
}

// seedAdmin creates the admin account on the elected primary; the
// mutations journal and replicate like any other write.
func (e *fenv) seedAdmin(t *testing.T, prim *fnode) {
	t.Helper()
	priv := &queries.Context{DB: prim.cl.DB(), Privileged: true, App: "seed"}
	nop := func([]string) error { return nil }
	if err := queries.Execute(priv, "add_user",
		[]string{foAdmin, "-1", "/bin/csh", "Admin", "Failover", "", "1", "x", "STAFF"}, nop); err != nil {
		t.Fatalf("seed admin user: %v", err)
	}
	if err := queries.Execute(priv, "add_member_to_list",
		[]string{queries.AdminList, "USER", foAdmin}, nop); err != nil {
		t.Fatalf("seed admin membership: %v", err)
	}
}

// dialAdmin connects to addr and authenticates as the admin.
func (e *fenv) dialAdmin(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.DialTimeout(addr, 5*time.Second, staticClock{instant})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Disconnect() })
	e.auth(t, c)
	return c
}

// dialAdminFailover connects with the address-list dialer, then auths.
func (e *fenv) dialAdminFailover(t *testing.T, addrs []string) *client.Client {
	t.Helper()
	c, err := client.DialFailover(addrs, 5*time.Second, staticClock{instant})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Disconnect() })
	e.auth(t, c)
	return c
}

func (e *fenv) auth(t *testing.T, c *client.Client) {
	t.Helper()
	creds, err := e.kdc.GetTicket(foAdmin, foPass, foServer)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Auth(creds, "failover-test"); err != nil {
		t.Fatalf("auth: %v", err)
	}
}

// fnode is one in-process cluster node: a Cluster plus a query server
// wired to it through the Failover surface.
type fnode struct {
	root       string
	replAddr   string // the address this node listens for replication on
	clientAddr string
	cl         *Cluster
	srv        *server.Server
	closed     atomic.Bool
}

// startNode boots one cluster node. peers are the replication
// addresses this node polls and claims against — proxies included.
func startNode(t *testing.T, env *fenv, root, replAddr, clientAddr string, peers []string) *fnode {
	return startNodeAdv(t, env, root, replAddr, replAddr, clientAddr, peers)
}

// startNodeAdv is startNode with a distinct advertised replication
// address, so netsplit tests can route all inter-node traffic —
// including the follower's adopted primary address — through a
// cuttable proxy.
func startNodeAdv(t *testing.T, env *fenv, root, replAddr, advRepl, clientAddr string, peers []string) *fnode {
	t.Helper()
	n := &fnode{root: root, replAddr: replAddr, clientAddr: clientAddr}
	var roleCB atomic.Value // func(string, bool)
	reg := stats.NewRegistry()
	cl, info, err := OpenCluster(ClusterConfig{
		Root:            root,
		ListenRepl:      replAddr,
		AdvertiseRepl:   advRepl,
		AdvertiseClient: clientAddr,
		Peers:           peers,
		LeaseInterval:   testLeaseInterval,
		LeaseTimeout:    testLeaseTimeout,
		Journal:         db.JournalOptions{Policy: db.SyncEveryCommit},
		Clock:           staticClock{instant},
		Stats:           reg,
		Logf: func(format string, args ...any) {
			if !n.closed.Load() {
				t.Logf("[%s] "+format, append([]any{replAddr}, args...)...)
			}
		},
		OnRole: func(role string, readonly bool) {
			if f := roleCB.Load(); f != nil {
				f.(func(string, bool))(role, readonly)
			}
		},
	})
	if err != nil {
		t.Fatalf("open cluster node: %v", err)
	}
	if len(info.Fsck) != 0 {
		t.Fatalf("cluster node fsck: %v", info.Fsck)
	}
	srv := server.New(server.Config{
		DB:       cl.DB(),
		Verifier: env.ver,
		Clock:    staticClock{instant},
		Stats:    reg,
		ReadOnly: true,
		Failover: cl,
	})
	if _, err := srv.Listen(clientAddr); err != nil {
		t.Fatalf("node client listen: %v", err)
	}
	roleCB.Store(func(role string, readonly bool) { srv.SetReadOnly(readonly) })
	n.cl, n.srv = cl, srv
	cl.Start()
	t.Cleanup(func() { n.stop() })
	return n
}

// stop tears the node down (idempotent).
func (n *fnode) stop() {
	if n.closed.CompareAndSwap(false, true) {
		n.srv.Close()
		n.cl.Close()
	}
}

// startPair boots a two-node cluster on fresh roots.
func startPair(t *testing.T, env *fenv) (a, b *fnode) {
	t.Helper()
	ra, rb := freeAddr(t), freeAddr(t)
	ca, cb := freeAddr(t), freeAddr(t)
	a = startNode(t, env, t.TempDir(), ra, ca, []string{rb})
	b = startNode(t, env, t.TempDir(), rb, cb, []string{ra})
	return a, b
}

// waitRole polls until the node settles into role.
func waitRole(t *testing.T, n *fnode, role string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if n.cl.Role() == role {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s role = %s, want %s (within %v)", n.replAddr, n.cl.Role(), role, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitOnePrimary waits until exactly one node is primary and the other
// follows it, returning (primary, follower).
func waitOnePrimary(t *testing.T, a, b *fnode) (*fnode, *fnode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ra, rb := a.cl.Role(), b.cl.Role()
		if ra == RolePrimary && rb == RoleReplica {
			return a, b
		}
		if rb == RolePrimary && ra == RoleReplica {
			return b, a
		}
		if time.Now().After(deadline) {
			t.Fatalf("no settled primary/replica pair: %s=%s %s=%s", a.replAddr, ra, b.replAddr, rb)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hasMachine reports whether the node's database holds the machine.
func (n *fnode) hasMachine(name string) bool {
	d := n.cl.DB()
	d.LockShared()
	defer d.UnlockShared()
	_, ok := db.Machines.Get(d, strings.ToUpper(name))
	return ok
}

// TestClusterBootElection: two empty nodes boot, exactly one wins the
// election, the other follows it, and _whois on both names the same
// primary.
func TestClusterBootElection(t *testing.T) {
	env := newFenv(t)
	a, b := startPair(t, env)
	prim, repl := waitOnePrimary(t, a, b)

	// OnRole sets a server's gate after the role is published: wait for
	// it as waitOnePrimary waits for the roles.
	deadline := time.Now().Add(10 * time.Second)
	for (prim.srv.ReadOnly() || !repl.srv.ReadOnly()) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if prim.srv.ReadOnly() {
		t.Error("primary's server still read-only after promotion")
	}
	if !repl.srv.ReadOnly() {
		t.Error("follower's server is writable")
	}

	// _whois answers on both nodes (the follower is read-only) and
	// both name the primary's client address.
	for _, n := range []*fnode{prim, repl} {
		c, err := client.Dial(n.clientAddr)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.QueryAll("_whois")
		c.Disconnect()
		if err != nil {
			t.Fatalf("_whois on %s: %v", n.replAddr, err)
		}
		if len(rows) != 1 || len(rows[0]) < 8 {
			t.Fatalf("_whois on %s = %v", n.replAddr, rows)
		}
		if got := rows[0][2]; got != prim.clientAddr {
			t.Errorf("_whois on %s names primary %q, want %q", n.replAddr, got, prim.clientAddr)
		}
	}
}

// TestClusterStatsSeries: one stats group per node reports whichever
// side of the stream the node is on — the follower's upstream and lag,
// the primary's journal and subscribers — over the ordinary _stats
// handle, every series declared in stats.KnownNames.
func TestClusterStatsSeries(t *testing.T) {
	env := newFenv(t)
	a, b := startPair(t, env)
	prim, repl := waitOnePrimary(t, a, b)
	env.seedAdmin(t, prim)
	waitConverged(t, prim.cl.DB(), repl.cl.DB())

	for _, tc := range []struct {
		n    *fnode
		want []string
	}{
		{repl, []string{"repl.lag.seconds", "repl.connected"}},
		{prim, []string{"journal.appends", "repl.primary.subscribers"}},
	} {
		c, err := client.Dial(tc.n.clientAddr)
		if err != nil {
			t.Fatal(err)
		}
		have := map[string]bool{}
		err = c.Query("_stats", nil, func(tu []string) error {
			have[tu[1]] = true
			return nil
		})
		c.Disconnect()
		if err != nil {
			t.Fatalf("_stats on %s: %v", tc.n.cl.Role(), err)
		}
		for _, name := range tc.want {
			if !have[name] {
				t.Errorf("%s _stats lacks %s", tc.n.cl.Role(), name)
			}
		}
		for name := range have {
			if !stats.KnownName(name) {
				t.Errorf("%s _stats series %s not declared in stats.KnownNames", tc.n.cl.Role(), name)
			}
		}
	}
}

// TestFailoverOnPrimaryDeath is the acceptance core: kill the primary
// under concurrent writes; the follower self-promotes within two lease
// timeouts; no acknowledged commit is lost; the revived old primary
// refuses writes and rejoins as a follower.
func TestFailoverOnPrimaryDeath(t *testing.T) {
	env := newFenv(t)
	a, b := startPair(t, env)
	prim, repl := waitOnePrimary(t, a, b)
	env.seedAdmin(t, prim)

	c := env.dialAdminFailover(t, []string{prim.clientAddr, repl.clientAddr})

	// Write storm: every Success is an acknowledged (replica-acked)
	// commit that must survive the failover.
	var (
		mu    sync.Mutex
		acked []string
		stop  = make(chan struct{})
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("storm%04d.mit.edu", i)
			if _, err := c.QueryAll("add_machine", name, "VAX"); err == nil {
				mu.Lock()
				acked = append(acked, name)
				mu.Unlock()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Let some writes land, then kill the primary mid-storm.
	time.Sleep(300 * time.Millisecond)
	killedAt := time.Now()
	prim.stop()

	// Self-promotion within two lease timeouts (plus scheduling slack
	// for the race detector).
	waitRole(t, repl, RolePrimary, 2*testLeaseTimeout+2*time.Second)
	t.Logf("self-promotion after %v (2 lease timeouts = %v)", time.Since(killedAt), 2*testLeaseTimeout)

	// Writes must resume against the new primary (the client chases
	// the redirect transparently).
	resumed := false
	for i := 0; i < 200; i++ {
		if _, err := c.QueryAll("add_machine", fmt.Sprintf("resumed%03d.mit.edu", i), "VAX"); err == nil {
			resumed = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !resumed {
		t.Fatal("writes never resumed after failover")
	}
	close(stop)
	<-done

	// Zero lost acked commits: every Success lives on the new primary.
	mu.Lock()
	ledger := append([]string(nil), acked...)
	mu.Unlock()
	if len(ledger) == 0 {
		t.Fatal("write storm landed no acked commits; test proves nothing")
	}
	for _, name := range ledger {
		if !repl.hasMachine(name) {
			t.Errorf("acked commit %s lost in failover", name)
		}
	}
	t.Logf("%d acked commits all survived", len(ledger))

	// Revive the old primary on its old root: it must come back as a
	// read-only follower of the new primary and converge — including
	// discarding any unacked tail it journaled before dying.
	revived := startNode(t, env, prim.root, prim.replAddr, prim.clientAddr, []string{repl.replAddr})
	waitRole(t, revived, RoleReplica, 10*time.Second)
	if !revived.srv.ReadOnly() {
		t.Error("revived old primary is writable")
	}
	waitConverged(t, repl.cl.DB(), revived.cl.DB())
}

// TestDeposedPrimaryFencesAndRejoins: an operator force-promotes the
// follower while the primary is alive and healthy. The old primary
// must fence itself on first contact with the new epoch, refuse
// writes, and rejoin as a follower.
func TestDeposedPrimaryFencesAndRejoins(t *testing.T) {
	env := newFenv(t)
	a, b := startPair(t, env)
	prim, repl := waitOnePrimary(t, a, b)
	env.seedAdmin(t, prim)

	c := env.dialAdmin(t, prim.clientAddr)
	if _, err := c.QueryAll("add_machine", "before.mit.edu", "VAX"); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	// A forced promotion takes whatever history the follower holds, and
	// the rest of the test (the admin's ACL, before.mit.edu) lives in the
	// seed writes: let them arrive first.
	waitConverged(t, prim.cl.DB(), repl.cl.DB())

	if err := repl.cl.ForcePromote("operator"); err != nil {
		t.Fatalf("force promote: %v", err)
	}
	waitRole(t, repl, RolePrimary, 5*time.Second)

	// The deposed primary must stop accepting writes and eventually
	// re-follow the new history.
	waitRole(t, prim, RoleReplica, 10*time.Second)
	if !prim.srv.ReadOnly() {
		t.Error("deposed primary still accepts writes")
	}

	// A write against the deposed node redirects to the new primary.
	dc := env.dialAdmin(t, prim.clientAddr)
	if _, err := dc.QueryAll("add_machine", "after.mit.edu", "VAX"); err != nil {
		t.Fatalf("write via deposed node (expect redirect): %v", err)
	}
	if dc.Redirects() == 0 {
		t.Error("client reached the new primary without a redirect?")
	}
	waitConverged(t, repl.cl.DB(), prim.cl.DB())
	if !prim.hasMachine("after.mit.edu") || !prim.hasMachine("before.mit.edu") {
		t.Error("rejoined follower missing state")
	}
}

// TestPrimaryKilledDuringElection: the primary dies while the
// follower's forced election is in flight (the claim may reach a dying
// or already-dead granter). The election must still converge on
// exactly one writable primary.
func TestPrimaryKilledDuringElection(t *testing.T) {
	env := newFenv(t)
	a, b := startPair(t, env)
	prim, repl := waitOnePrimary(t, a, b)
	env.seedAdmin(t, prim)
	// Make sure the pair exchanged a lease first, so the survivor is a
	// legitimate successor rather than a partitioned cold boot.
	waitConverged(t, prim.cl.DB(), repl.cl.DB())

	// Race the kill against the election. Whichever way it lands —
	// grant, denial from a half-dead node, or no answer at all — the
	// follower must end up primary within a few lease timeouts.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		prim.stop()
	}()
	if err := repl.cl.ForcePromote("operator"); err != nil {
		t.Logf("forced election during kill: %v (lease expiry will retry)", err)
	}
	<-killed
	waitRole(t, repl, RolePrimary, 3*testLeaseTimeout+5*time.Second)
	if repl.srv.ReadOnly() {
		t.Error("surviving primary still read-only")
	}
}

// TestForcePromoteWithNoPeerReachable: the operator's promotion is one
// election with force set, and under force the grants are advisory. A
// node of three whose two peers are closed ports, its role loop not
// started so no other round runs, still becomes primary at one past
// the highest epoch it knows, and the promotion counts as one election.
func TestForcePromoteWithNoPeerReachable(t *testing.T) {
	root := t.TempDir()
	const known = 4
	if err := StoreEpoch(root, known); err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	c, _, err := OpenCluster(ClusterConfig{
		Root:          root,
		ListenRepl:    freeAddr(t),
		Peers:         []string{freeAddr(t), freeAddr(t)},
		LeaseInterval: testLeaseInterval,
		LeaseTimeout:  testLeaseTimeout,
		Journal:       db.JournalOptions{Policy: db.SyncEveryCommit},
		Clock:         staticClock{instant},
		Stats:         reg,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	count := func() int64 { return reg.Snapshot().Counters["election.count"] }
	before := count()

	if err := c.ForcePromote("operator"); err != nil {
		t.Fatalf("force promote: %v", err)
	}
	if got := c.Role(); got != RolePrimary {
		t.Fatalf("role after forced promotion = %s, want primary", got)
	}
	if got := c.Epoch(); got != known+1 {
		t.Errorf("epoch after forced promotion = %d, want %d", got, known+1)
	}
	if got, err := LoadEpoch(root); err != nil || got != known+1 {
		t.Errorf("persisted epoch = %d (%v), want %d", got, err, known+1)
	}
	if got := count() - before; got != 1 {
		t.Errorf("election.count rose by %d, want 1", got)
	}
}

// TestReadYourWrites: a commit token from the primary makes a read on
// a (possibly lagging) follower either wait for coverage or refuse
// with MR_STALE and redirect; a malformed token is rejected outright.
func TestReadYourWrites(t *testing.T) {
	env := newFenv(t)
	a, b := startPair(t, env)
	prim, repl := waitOnePrimary(t, a, b)
	env.seedAdmin(t, prim)

	pc := env.dialAdmin(t, prim.clientAddr)
	if _, err := pc.QueryAll("add_machine", "ryw.mit.edu", "VAX"); err != nil {
		t.Fatalf("write: %v", err)
	}
	token := pc.LastToken()
	if token == "" {
		t.Fatal("gated commit minted no token")
	}

	// Present the token on the follower: the read must not answer
	// until the follower covers the commit — so when it answers
	// successfully, the row must be there.
	rc, err := client.Dial(repl.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Disconnect()
	rc.SetMinPos(token)
	rows, err := rc.QueryAll("get_machine", "RYW.MIT.EDU")
	if err != nil {
		// The other legal outcome is MR_STALE with a redirect chase
		// that lands the row anyway; a bare stale answer is not.
		t.Fatalf("read-your-writes read: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("read-your-writes returned %d rows, want 1", len(rows))
	}

	// A malformed token is refused outright.
	rc.SetMinPos("not-a-token")
	if _, err := rc.QueryAll("get_machine", "RYW.MIT.EDU"); err != mrerr.MrArgs {
		t.Errorf("malformed token read = %v, want MR_ARGS", err)
	}
	rc.SetMinPos("")
}

// ---- netsplit ----

// chaosProxy is a cuttable TCP proxy: while cut, existing conns die
// and new ones are refused (accepted and instantly closed), which is
// what a netsplit looks like to the dialer.
type chaosProxy struct {
	ln     net.Listener
	target string
	cut    atomic.Bool
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.Close)
	return p
}

func (p *chaosProxy) Addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.cut.Load() {
			conn.Close()
			continue
		}
		up, err := net.DialTimeout("tcp", p.target, time.Second)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		p.conns[conn] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(conn, up)
		go p.pipe(up, conn)
	}
}

func (p *chaosProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, src)
	dst.Close()
	src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}

// Cut severs the proxy: every live connection dies now, new ones are
// refused until Heal.
func (p *chaosProxy) Cut() {
	p.cut.Store(true)
	p.mu.Lock()
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
}

func (p *chaosProxy) Heal() { p.cut.Store(false) }

func (p *chaosProxy) Close() {
	if p.closed.CompareAndSwap(false, true) {
		p.ln.Close()
		p.Cut()
		p.wg.Wait()
	}
}

// TestNetsplitOneWritablePrimary is the split-brain acceptance test: a
// pair is partitioned mid-write-storm. At every sampled instant at
// most one node accepts writes; acked commits are never lost; after
// the heal the journals converge.
func TestNetsplitOneWritablePrimary(t *testing.T) {
	env := newFenv(t)
	// All inter-node traffic flows through cuttable proxies: every node
	// advertises its proxy address, so peers — and the follower's
	// adopted primary address — always route through the cut point.
	// Client traffic is never partitioned.
	ra, rb := freeAddr(t), freeAddr(t)
	ca, cb := freeAddr(t), freeAddr(t)
	pa := newChaosProxy(t, ra) // B's path to A
	pb := newChaosProxy(t, rb) // A's path to B
	a := startNodeAdv(t, env, t.TempDir(), ra, pa.Addr(), ca, []string{pb.Addr()})
	b := startNodeAdv(t, env, t.TempDir(), rb, pb.Addr(), cb, []string{pa.Addr()})
	prim, repl := waitOnePrimary(t, a, b)
	env.seedAdmin(t, prim)

	c := env.dialAdminFailover(t, []string{prim.clientAddr, repl.clientAddr})

	var (
		mu    sync.Mutex
		acked []string
		stop  = make(chan struct{})
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("split%04d.mit.edu", i)
			if _, err := c.QueryAll("add_machine", name, "VAX"); err == nil {
				mu.Lock()
				acked = append(acked, name)
				mu.Unlock()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)

	// Split the pair. The old primary must fence (its lease cannot
	// renew); the follower elects itself.
	pa.Cut()
	pb.Cut()

	// Sample the writable-primary count throughout the partition:
	// never more than one server accepting writes.
	sampleUntil := time.Now().Add(3 * testLeaseTimeout)
	for time.Now().Before(sampleUntil) {
		writable := 0
		for _, n := range []*fnode{a, b} {
			if !n.srv.ReadOnly() {
				writable++
			}
		}
		if writable > 1 {
			t.Fatalf("netsplit: %d writable primaries at once", writable)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitRole(t, repl, RolePrimary, 5*time.Second)
	waitRole(t, prim, RoleFenced, 5*time.Second)
	if !prim.srv.ReadOnly() {
		t.Error("fenced ex-primary still writable")
	}

	// Heal. The fenced node finds the new history and rejoins; the
	// write storm keeps running throughout.
	pa.Heal()
	pb.Heal()
	waitRole(t, prim, RoleReplica, 10*time.Second)
	time.Sleep(200 * time.Millisecond)
	close(stop)
	<-done

	// Convergence and the acked ledger.
	waitConverged(t, repl.cl.DB(), prim.cl.DB())
	mu.Lock()
	ledger := append([]string(nil), acked...)
	mu.Unlock()
	if len(ledger) == 0 {
		t.Fatal("write storm landed no acked commits; test proves nothing")
	}
	for _, name := range ledger {
		if !repl.hasMachine(name) {
			t.Errorf("acked commit %s lost in netsplit", name)
		}
	}
	t.Logf("netsplit: %d acked commits, all survived", len(ledger))
}

// TestLeaseExpiryFencesPrimary: with its only follower unreachable
// (connections severed, dials refused), the primary must fence itself
// within a lease timeout rather than keep accepting unreplicatable
// writes.
func TestLeaseExpiryFencesPrimary(t *testing.T) {
	env := newFenv(t)
	ra, rb := freeAddr(t), freeAddr(t)
	ca, cb := freeAddr(t), freeAddr(t)
	pa := newChaosProxy(t, ra) // all traffic toward A
	pb := newChaosProxy(t, rb) // all traffic toward B
	a := startNodeAdv(t, env, t.TempDir(), ra, pa.Addr(), ca, []string{pb.Addr()})
	b := startNodeAdv(t, env, t.TempDir(), rb, pb.Addr(), cb, []string{pa.Addr()})
	prim, repl := waitOnePrimary(t, a, b)

	// Engage the lease machinery before cutting: a freshly promoted
	// primary with no subscriber yet self-holds its lease (degraded
	// mode), so fencing only applies once the follower's replication
	// session is live. Replicated state proves it is.
	env.seedAdmin(t, prim)
	waitConverged(t, prim.cl.DB(), repl.cl.DB())

	// Sever only the primary's inbound path: its follower's lease acks
	// stop, but the follower can still reach (and later re-follow) the
	// other side. Whichever node won the boot election, its inbound
	// proxy is the cut point.
	if prim == a {
		pa.Cut()
	} else {
		pb.Cut()
	}
	waitRole(t, prim, RoleFenced, 3*testLeaseTimeout+2*time.Second)
	if !prim.srv.ReadOnly() {
		t.Error("primary kept accepting writes after its lease expired")
	}
}

// TestWhoisStandalone: a server with no Failover state reports the
// standalone role rather than failing.
func TestWhoisStandalone(t *testing.T) {
	d := queries.NewBootstrappedDB(staticClock{instant})
	srv := server.New(server.Config{DB: d})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	rows, err := c.QueryAll("_whois")
	if err != nil {
		t.Fatalf("_whois: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "standalone" {
		t.Fatalf("_whois = %v, want standalone", rows)
	}
}
