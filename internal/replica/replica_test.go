package replica

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
	"moira/internal/server"
	"moira/internal/trace"
)

// instant is the pinned wall-clock moment both sides of every test run
// at. Replay stamps mod-times at apply-time Now(), so byte-identical
// table comparison needs the primary's and the replica's clocks to
// read the same instant whenever a record lands.
var instant = time.Unix(600000000, 0)

// staticClock is pinned like clock.Fake but, unlike Fake, does not
// implement Sleeper: reconnect backoff sleeps real time instead of
// silently advancing the replica's virtual clock away from the
// primary's.
type staticClock struct{ t time.Time }

func (c staticClock) Now() time.Time { return c.t }

// worldEpoch is the election epoch both sides of a primaryWorld stream
// report, so the handshake never forces a bootstrap on epoch skew.
const worldEpoch = 1

// primaryWorld is a live primary: a bootstrapped database journaling
// into a data directory, a checkpoint store over it, and a replication
// Primary served through a protocol.Listener on a loopback port, as a
// Cluster's listener dispatches to it.
type primaryWorld struct {
	t     *testing.T
	root  string
	clk   *clock.Fake
	d     *db.DB
	jw    *db.JournalWriter
	store *db.CheckpointStore
	prim  *Primary
	ln    *protocol.Listener
	addr  string
}

func newPrimaryWorld(t *testing.T) *primaryWorld {
	t.Helper()
	root := t.TempDir()
	clk := clock.NewFake(instant)
	dd, err := db.OpenDataDir(root)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := db.OpenJournalWriter(dd.JournalDir(), db.JournalOptions{Policy: db.SyncEveryCommit})
	if err != nil {
		t.Fatal(err)
	}
	d := queries.NewBootstrappedDB(clk)
	d.SetJournal(jw)
	store, err := db.NewCheckpointStore(dd.SnapshotsDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w := &primaryWorld{t: t, root: root, clk: clk, d: d, jw: jw, store: store}
	w.prim = NewPrimary(PrimaryConfig{
		Journal:    jw,
		Store:      store,
		Checkpoint: w.checkpoint,
		Cluster: &PrimaryCluster{
			Epoch:       func() int64 { return worldEpoch },
			OnStaleSelf: func(int64) {},
		},
	})
	w.ln = protocol.NewListener()
	addr, err := w.ln.Listen("127.0.0.1:0", func(conn *protocol.Conn) {
		br := bufio.NewReader(conn)
		if req, err := protocol.ReadRequest(br); err == nil {
			w.prim.ServeReplicate(conn, br, req)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w.addr = addr.String()
	t.Cleanup(func() {
		w.stop()
		jw.Close()
	})
	return w
}

// stop kills the primary: no new streams, every live one cut.
func (w *primaryWorld) stop() {
	w.ln.Close()
	w.prim.Close()
}

// checkpoint snapshots the primary and prunes journal segments the
// snapshot has made redundant — the state that forces a lagging
// replica to bootstrap.
func (w *primaryWorld) checkpoint() (int64, error) {
	gen, err := w.store.Take(w.d, w.jw.Rotate)
	if err != nil {
		return 0, err
	}
	if keep := w.store.OldestKeptJournalSeq(); keep > 0 {
		if _, err := db.PruneSegments(w.jw.Dir(), keep); err != nil {
			return 0, err
		}
	}
	return gen, nil
}

func (w *primaryWorld) run(name string, args ...string) {
	w.t.Helper()
	cx := &queries.Context{DB: w.d, Principal: "ops", App: "test", Privileged: true}
	if err := queries.Execute(cx, name, args, func([]string) error { return nil }); err != nil {
		w.t.Errorf("%s %v: %v", name, args, err)
	}
}

// openReplica recovers root and attaches a replica tailing this
// primary, the way a cluster node boots into a follower, with fast
// reconnects for test latency. tr, when non-nil, traces the applies.
func (w *primaryWorld) openReplica(root string, tr *trace.Tracer) *Replica {
	w.t.Helper()
	d, info, err := queries.Recover(root, staticClock{instant}, w.t.Logf)
	if err != nil {
		w.t.Fatalf("replica recovery: %v", err)
	}
	if len(info.Fsck) != 0 {
		w.t.Fatalf("replica recovery fsck: %v", info.Fsck)
	}
	dd, err := db.OpenDataDir(root)
	if err != nil {
		w.t.Fatal(err)
	}
	r, err := OpenRejoin(Config{
		From:       w.addr,
		Clock:      staticClock{instant},
		RetryDelay: 10 * time.Millisecond,
		Logf:       w.t.Logf,
		Tracer:     tr,
		Cluster: &ReplicaCluster{
			Epoch:      func() int64 { return worldEpoch },
			OnHello:    func(int64, string, string) error { return nil },
			OnLease:    func(int64) {},
			OnRedirect: func(string) {},
		},
	}, d, dd, false)
	if err != nil {
		w.t.Fatalf("replica open: %v", err)
	}
	return r
}

// sameTables reports whether every relation dumps byte-identically.
func sameTables(want, got *db.DB) (bool, string) {
	want.LockShared()
	got.LockShared()
	defer want.UnlockShared()
	defer got.UnlockShared()
	for _, tbl := range db.AllTables {
		var a, b bytes.Buffer
		if err := want.DumpTable(tbl, &a); err != nil {
			return false, err.Error()
		}
		if err := got.DumpTable(tbl, &b); err != nil {
			return false, err.Error()
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return false, fmt.Sprintf("table %s differs:\nprimary:\n%s\nreplica:\n%s", tbl, a.String(), b.String())
		}
	}
	return true, ""
}

// waitConverged polls until the replica's tables match the primary's
// byte-for-byte. Call only after all writers have finished.
func waitConverged(t *testing.T, want, got *db.DB) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok, diff := sameTables(want, got)
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: %s", diff)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaConvergesUnderConcurrentWrites is the core acceptance
// test: an empty replica tails a primary that is mutating concurrently,
// is killed and restarted mid-stream, and still ends byte-identical
// per table.
func TestReplicaConvergesUnderConcurrentWrites(t *testing.T) {
	w := newPrimaryWorld(t)
	rroot := t.TempDir()

	rep := w.openReplica(rroot, nil)
	rep.Start()

	// First wave lands while the replica is live.
	for i := 0; i < 20; i++ {
		w.run("add_machine", fmt.Sprintf("m%03d.mit.edu", i), "VAX")
	}

	// Kill the replica mid-stream; the primary keeps writing. Wait for
	// the stream to actually start first — "mid-stream" requires the
	// replica to have mirrored at least one record, and the connect
	// races the write loop above.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if seg, idx := rep.Position(); seg > 0 || idx > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never started mirroring")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 40; i++ {
		w.run("add_machine", fmt.Sprintf("m%03d.mit.edu", i), "VAX")
	}

	// Restart from the same directory: it resumes from its mirrored
	// position, with more writes racing the catch-up.
	rep2 := w.openReplica(rroot, nil)
	seg, idx := rep2.Position()
	if seg == 0 && idx == 0 {
		t.Fatal("restarted replica lost its position")
	}
	rep2.Start()
	defer rep2.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 40; i < 60; i++ {
			w.run("add_machine", fmt.Sprintf("m%03d.mit.edu", i), "VAX")
		}
	}()
	wg.Wait()

	waitConverged(t, w.d, rep2.DB())
	if rep2.applied.Load() == 0 {
		t.Error("restarted replica applied no records")
	}
}

// TestReplicaBootstrapFromSnapshot covers the other arrival path: the
// records an empty replica would need were pruned by checkpointing, so
// the primary must ship a snapshot before tailing.
func TestReplicaBootstrapFromSnapshot(t *testing.T) {
	w := newPrimaryWorld(t)
	for i := 0; i < 10; i++ {
		w.run("add_machine", fmt.Sprintf("pre%02d.mit.edu", i), "VAX")
	}
	if _, err := w.checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 0; i < 10; i++ {
		w.run("add_machine", fmt.Sprintf("post%02d.mit.edu", i), "VAX")
	}

	rep := w.openReplica(t.TempDir(), nil)
	rep.Start()
	defer rep.Close()
	waitConverged(t, w.d, rep.DB())
	if got := rep.bootstraps.Load(); got != 1 {
		t.Errorf("bootstraps = %d, want 1", got)
	}
	seg, _ := rep.Position()
	if seg == 0 {
		t.Error("position still (0, *) after bootstrap")
	}
}

// TestReplicaServesReadsRejectsWrites serves the replica's database
// through a read-only server with the primary down: retrievals work,
// mutations get MR_READONLY.
func TestReplicaServesReadsRejectsWrites(t *testing.T) {
	w := newPrimaryWorld(t)
	w.run("add_machine", "only.mit.edu", "VAX")

	rep := w.openReplica(t.TempDir(), nil)
	rep.Start()
	defer rep.Close()
	waitConverged(t, w.d, rep.DB())

	// The primary dies; the replica keeps serving what it has.
	w.stop()

	srv := server.New(server.Config{DB: rep.DB(), ReadOnly: true})
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

	rows, err := c.QueryAll("_list_queries")
	if err != nil {
		t.Fatalf("retrieval on replica: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("retrieval on replica returned nothing")
	}
	if _, err := c.QueryAll("add_machine", "write.mit.edu", "VAX"); err != mrerr.MrReadonly {
		t.Fatalf("mutation on replica = %v, want MR_READONLY", err)
	}
	if _, err := c.QueryAll("no_such_query"); err != mrerr.MrNoHandle {
		t.Fatalf("unknown handle on replica = %v, want MR_NO_HANDLE", err)
	}
}

// TestPromotion promotes a converged replica the one way every node
// does (stop the follower, openPrimary), writes through it, and proves
// the writes survive the promoted node's own crash-recovery.
func TestPromotion(t *testing.T) {
	w := newPrimaryWorld(t)
	for i := 0; i < 5; i++ {
		w.run("add_machine", fmt.Sprintf("m%d.mit.edu", i), "VAX")
	}

	rroot := t.TempDir()
	rep := w.openReplica(rroot, nil)
	rep.Start()
	waitConverged(t, w.d, rep.DB())

	// Primary lost; operator promotes the replica.
	w.stop()
	rep.Close()
	jw, err := openPrimary(rep.DB(), rep.dd, db.JournalOptions{Policy: db.SyncEveryCommit}, t.Logf)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}

	cx := &queries.Context{DB: rep.DB(), Principal: "ops", App: "test", Privileged: true}
	if err := queries.Execute(cx, "add_machine", []string{"promoted.mit.edu", "VAX"}, func([]string) error { return nil }); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}

	// The promoted node crashes; ordinary recovery over its mirrored
	// directory (snapshotless: bootstrap + replayed segments + the
	// promotion segment) must reproduce its state, new write included.
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, info, err := queries.Recover(rroot, staticClock{instant}, t.Logf)
	if err != nil {
		t.Fatalf("recover promoted node: %v", err)
	}
	if len(info.Fsck) != 0 {
		t.Fatalf("promoted node recovery fsck: %v", info.Fsck)
	}
	if ok, diff := sameTables(rep.DB(), recovered); !ok {
		t.Fatalf("promoted node state lost in recovery: %s", diff)
	}

	// The promoted node's secondary indexes were rebuilt across replica
	// apply, AdoptFrom bootstrap, and promotion; index-backed wildcard
	// retrieval must see every machine, on both the promoted node and
	// its recovered twin, through live and snapshot reads alike.
	for _, node := range []*db.DB{rep.DB(), recovered} {
		count := func(d *db.DB) (n int) {
			db.Machines.Match(d, "*.MIT.EDU", func(*db.Machine) bool { n++; return true })
			return n
		}
		node.LockShared()
		n := count(node)
		node.UnlockShared()
		if n != 6 {
			t.Errorf("indexed wildcard match found %d machines, want 6", n)
		}
		if sn := count(node.Reader()); sn != 6 {
			t.Errorf("snapshot wildcard match found %d machines, want 6", sn)
		}
		if bad := node.Fsck(); len(bad) != 0 {
			t.Errorf("index consistency fsck: %v", bad)
		}
	}
}

// TestReplicationSoak runs the whole lifecycle under -race: one
// primary, two replicas, concurrent writers, a checkpoint mid-stream,
// a replica kill/restart, and a final promotion. CI runs this with the
// race detector as the replication soak.
func TestReplicationSoak(t *testing.T) {
	w := newPrimaryWorld(t)
	rootA, rootB := t.TempDir(), t.TempDir()
	repA := w.openReplica(rootA, nil)
	repA.Start()
	repB := w.openReplica(rootB, nil)
	repB.Start()

	const writers, per = 3, 30
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.run("add_machine", fmt.Sprintf("w%d-%03d.mit.edu", wr, i), "VAX")
			}
		}(wr)
	}

	// Mid-stream: checkpoint (rotating the journal under the tailers)
	// and bounce replica B.
	time.Sleep(20 * time.Millisecond)
	if _, err := w.checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := repB.Close(); err != nil {
		t.Fatal(err)
	}
	repB = w.openReplica(rootB, nil)
	repB.Start()
	wg.Wait()

	waitConverged(t, w.d, repA.DB())
	waitConverged(t, w.d, repB.DB())

	// Primary retires; A takes over and keeps accepting writes.
	w.stop()
	repB.Close()
	repA.Close()
	jw, err := openPrimary(repA.DB(), repA.dd, db.JournalOptions{Policy: db.SyncEveryCommit}, t.Logf)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer jw.Close()
	cx := &queries.Context{DB: repA.DB(), Principal: "ops", App: "test", Privileged: true}
	if err := queries.Execute(cx, "add_machine", []string{"takeover.mit.edu", "VAX"}, func([]string) error { return nil }); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
}

// TestTwoArgHandshakeRefused: the replication handshake is always
// [seg, idx, epoch]; the retired two-argument one-way stream is refused
// with MR_ARGS before anything streams.
func TestTwoArgHandshakeRefused(t *testing.T) {
	w := newPrimaryWorld(t)
	conn, err := net.DialTimeout("tcp", w.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	bw := bufio.NewWriter(conn)
	if err := protocol.WriteRequest(bw, &protocol.Request{
		Version: protocol.Version,
		Op:      protocol.OpReplicate,
		Args:    protocol.BytesArgs([]string{"0", "0"}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := protocol.ReadReply(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if code := mrerr.Code(rep.Code); code != mrerr.MrArgs {
		t.Fatalf("two-argument handshake = %v, want MR_ARGS", code.OrNil())
	}
}
