package replica

import (
	"strings"
	"testing"
	"time"

	"moira/internal/db"
	"moira/internal/health"
	"moira/internal/queries"
	"moira/internal/stats"
)

// TestStandaloneCheckpointsAndRecovers drives a zero-peer cluster, the
// durable node moirad runs without -election: it opens no replication
// listener, is primary — writable — the moment Start returns, its role
// loop checkpoints on the interval and prunes the journal segments no
// retained snapshot needs, the checkpoint probe judges the last
// snapshot's age, and the data directory recovers the write.
func TestStandaloneCheckpointsAndRecovers(t *testing.T) {
	root := t.TempDir()
	reg := stats.NewRegistry()
	open := func() (*Cluster, *queries.RecoverInfo) {
		t.Helper()
		c, info, err := OpenCluster(ClusterConfig{
			Root:               root,
			LeaseInterval:      40 * time.Millisecond,
			Journal:            db.JournalOptions{Policy: db.SyncEveryCommit},
			CheckpointInterval: 20 * time.Millisecond,
			Clock:              staticClock{instant},
			Logf:               t.Logf,
			Stats:              reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Fsck) != 0 {
			t.Fatalf("recovery fsck: %v", info.Fsck)
		}
		return c, info
	}

	c, info := open()
	if info.Generation != 0 {
		t.Errorf("first boot restored generation %d, want fresh bootstrap", info.Generation)
	}
	if c.ln != nil {
		t.Error("standalone node opened a replication listener")
	}
	c.Start()
	if got := c.Role(); got != RolePrimary {
		t.Fatalf("role when Start returns = %s, want primary", got)
	}
	cx := &queries.Context{DB: c.DB(), Principal: "ops", App: "test", Privileged: true}
	if err := queries.Execute(cx, "add_machine", []string{"durable.mit.edu", "VAX"},
		func([]string) error { return nil }); err != nil {
		t.Fatalf("first request, a write: %v", err)
	}
	if got := reg.Snapshot().Counters["journal.appends"]; got != 1 {
		t.Errorf("journal.appends = %d, want 1", got)
	}

	// Every checkpoint rotates the journal; once more snapshots than the
	// keep depth exist, the segment holding the write is pruned.
	jdir := c.dd.JournalDir()
	segs, err := db.ListSegments(jdir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal segments: %v %v", segs, err)
	}
	first := segs[0].Seq
	deadline := time.Now().Add(10 * time.Second)
	for {
		segs, err := db.ListSegments(jdir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > 0 && segs[0].Seq > first {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never pruned the first segment")
		}
		time.Sleep(5 * time.Millisecond)
	}

	h := health.NewChecker()
	c.BindHealth(h)
	probe := func() health.Status {
		for _, st := range h.Check() {
			if st.Name == "checkpoint" {
				return st
			}
		}
		t.Fatal("no checkpoint probe")
		return health.Status{}
	}
	if st := probe(); !st.OK || !strings.Contains(st.Detail, "last checkpoint") {
		t.Errorf("checkpoint probe after checkpoints = %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The loop is gone, so nothing refreshes the stamp: a snapshot far
	// older than three intervals fails the probe.
	c.lastCkpt.Store(time.Now().Add(-time.Hour).UnixNano())
	if st := probe(); st.OK {
		t.Errorf("checkpoint probe with an hour-old snapshot = %+v", st)
	}

	c2, info := open()
	defer c2.Close()
	if info.Generation == 0 {
		t.Error("recovery restored no snapshot generation")
	}
	d := c2.DB()
	d.LockShared()
	_, ok := db.Machines.Get(d, "DURABLE.MIT.EDU")
	d.UnlockShared()
	if !ok {
		t.Error("write lost across checkpoints, prune, and recovery")
	}
}
