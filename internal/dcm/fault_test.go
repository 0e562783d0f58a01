package dcm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"moira/internal/db"
	"moira/internal/update"
	"moira/internal/workload"
)

// crashCounter is a thread-safe crash-point hook that kills the first n
// connections reaching the given stage.
type crashCounter struct {
	mu    sync.Mutex
	stage string
	left  int
	hits  int
}

func (c *crashCounter) hook(stage string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if stage != c.stage || c.left == 0 {
		return false
	}
	if c.left > 0 {
		c.left--
	}
	c.hits++
	return true
}

func (c *crashCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// TestCrashMidXferRetriesAndRecovers kills an agent right after the
// data transfer for the first two connections: the parallel push must
// classify the drops as soft failures and recover via in-pass retries.
func TestCrashMidXferRetriesAndRecovers(t *testing.T) {
	bothJournalStates(t, testCrashMidXferRetriesAndRecovers)
}
func testCrashMidXferRetriesAndRecovers(t *testing.T, journal bool) {
	cfg := workload.Scaled(120)
	cfg.NFSServers = 4
	w := newWorldCfg(t, journal, cfg)
	crash := &crashCounter{stage: "after-xfer", left: 2}
	w.agents["FS-01.MIT.EDU"].SetCrashPoint(crash.hook)

	stats := w.run()
	if crash.count() != 2 {
		t.Fatalf("crash injected %d times, want 2", crash.count())
	}
	if stats.Retries != 2 {
		t.Errorf("retries = %d, want 2", stats.Retries)
	}
	if stats.HostSoftFails != 0 || stats.HostHardFails != 0 {
		t.Errorf("failures after recovery: %+v", stats)
	}
	if stats.HostsUpdated != len(w.agents) {
		t.Errorf("hosts updated = %d, want %d", stats.HostsUpdated, len(w.agents))
	}
	if w.nfsHosts["FS-01.MIT.EDU"].Installs() != 1 {
		t.Errorf("crashed host installs = %d, want 1", w.nfsHosts["FS-01.MIT.EDU"].Installs())
	}
	// The crash never became a recorded host error.
	w.d.LockShared()
	sh, _ := db.ServerHosts.Find(w.d, "NFS", func(sh *db.ServerHost) bool { return sh.MachID == machIDByName(w.d, "FS-01.MIT.EDU") })
	if sh.HostError != 0 || !sh.Success {
		t.Errorf("host row after recovery: %+v", sh)
	}
	w.d.UnlockShared()
}

// TestCrashMidInstallSoftFails kills an agent at the first install
// instruction on every attempt: the pass exhausts its retries, records
// a soft failure (crashes are retried next pass, never hard), and the
// host recovers on the following pass once the fault clears.
func TestCrashMidInstallSoftFails(t *testing.T) { bothJournalStates(t, testCrashMidInstallSoftFails) }
func testCrashMidInstallSoftFails(t *testing.T, journal bool) {
	cfg := workload.Scaled(120)
	cfg.NFSServers = 4
	w := newWorldCfg(t, journal, cfg)
	agent := w.agents["FS-02.MIT.EDU"]
	crash := &crashCounter{stage: "instr-0", left: -1} // every attempt
	agent.SetCrashPoint(crash.hook)

	stats := w.run()
	if stats.HostSoftFails != 1 {
		t.Fatalf("soft fails = %d (stats %+v)", stats.HostSoftFails, stats)
	}
	if stats.Retries != DefaultMaxRetries {
		t.Errorf("retries = %d, want %d", stats.Retries, DefaultMaxRetries)
	}
	if stats.HostHardFails != 0 {
		t.Errorf("mid-install crash recorded as hard failure: %+v", stats)
	}
	if crash.count() != DefaultMaxRetries+1 {
		t.Errorf("attempts = %d, want %d", crash.count(), DefaultMaxRetries+1)
	}
	w.d.LockShared()
	sh, _ := db.ServerHosts.Find(w.d, "NFS", func(sh *db.ServerHost) bool { return sh.MachID == machIDByName(w.d, "FS-02.MIT.EDU") })
	if sh.HostError != 0 {
		t.Error("soft failure set a hard host error")
	}
	if sh.InProgress {
		t.Error("failed host left InProgress")
	}
	if sh.LastSuccess != 0 || sh.LastTry == 0 {
		t.Errorf("lastsuccess/lasttry = %d/%d", sh.LastSuccess, sh.LastTry)
	}
	w.d.UnlockShared()

	// The fault clears; the next pass retries the host and succeeds.
	agent.SetCrashPoint(nil)
	w.clk.Advance(15 * time.Minute)
	stats = w.run()
	if stats.HostsUpdated != 1 || stats.HostSoftFails != 0 {
		t.Errorf("recovery pass: %+v", stats)
	}
	if w.nfsHosts["FS-02.MIT.EDU"].Installs() != 1 {
		t.Errorf("recovered host installs = %d", w.nfsHosts["FS-02.MIT.EDU"].Installs())
	}
}

// TestReplicatedSoftFailureDoesNotAbort crashes one replicated-service
// host persistently: unlike a hard failure, a soft failure (even after
// all retries) must not stop the remaining hosts of the service.
func TestReplicatedSoftFailureDoesNotAbort(t *testing.T) {
	bothJournalStates(t, testReplicatedSoftFailureDoesNotAbort)
}
func testReplicatedSoftFailureDoesNotAbort(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	crash := &crashCounter{stage: "before-execute", left: -1}
	w.agents["Z-1.MIT.EDU"].SetCrashPoint(crash.hook)

	stats := w.run()
	if stats.HostSoftFails != 1 || stats.HostHardFails != 0 {
		t.Fatalf("failures: %+v", stats)
	}
	w.d.LockShared()
	svc, _ := db.Servers.Get(w.d, "ZEPHYR")
	if svc.HardError != 0 {
		t.Error("soft failure hard-errored the replicated service")
	}
	updated := 0
	for _, sh := range hostsOf(w.d, "ZEPHYR") {
		if sh.Success {
			updated++
		}
	}
	w.d.UnlockShared()
	if updated != 2 {
		t.Errorf("remaining replicated hosts updated = %d, want 2", updated)
	}
}

// TestReplicatedHardFailureStopsRemainingHosts re-checks the paper's
// ordered abort under the parallel DCM: replicated hosts are pushed in
// order even when the host pool is wide, and a hard failure on the
// first host stops the rest.
func TestReplicatedHardFailureStopsRemainingHosts(t *testing.T) {
	bothJournalStates(t, testReplicatedHardFailureStopsRemainingHosts)
}
func testReplicatedHardFailureStopsRemainingHosts(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	w.reconfig(func(c *Config) {
		c.MaxParallelServices = 8
		c.MaxParallelHosts = 16
	})
	// An agent with no registered commands: the install script's exec
	// step returns a script error, a hard failure.
	first := "Z-1.MIT.EDU"
	a := update.NewAgent(first, t.TempDir(), nil)
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	w.addrs[first] = addr.String()

	stats := w.run()
	if stats.HostHardFails != 1 {
		t.Fatalf("hard fails = %d (stats %+v)", stats.HostHardFails, stats)
	}
	if stats.Retries != 0 {
		t.Errorf("hard failure was retried %d times", stats.Retries)
	}
	w.d.LockShared()
	svc, _ := db.Servers.Get(w.d, "ZEPHYR")
	if svc.HardError == 0 {
		t.Error("replicated service not marked hard-errored")
	}
	failed := machIDByName(w.d, first)
	for _, sh := range hostsOf(w.d, "ZEPHYR") {
		if sh.MachID != failed && (sh.Success || sh.LastTry != 0) {
			t.Errorf("replicated host %d pushed after the hard failure", sh.MachID)
		}
	}
	w.d.UnlockShared()

	select {
	case n := <-w.notices.C:
		if !strings.Contains(n.Message, "ZEPHYR") {
			t.Errorf("notice = %q", n.Message)
		}
	default:
		t.Error("no zephyrgram on hard failure")
	}
	if w.numMails() == 0 {
		t.Error("no failure mail sent")
	}
}
