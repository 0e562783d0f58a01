package dcm

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"moira/internal/db"
	"moira/internal/gen"
	"moira/internal/workload"
)

// TestStressManyHostsParallel runs one pass over ~50 hosts with
// randomized (seeded) agent latencies and checks that every eligible
// host is updated exactly once and the counters balance.
func TestStressManyHostsParallel(t *testing.T) { bothJournalStates(t, testStressManyHostsParallel) }
func testStressManyHostsParallel(t *testing.T, journal bool) {
	cfg := workload.Scaled(150)
	cfg.NFSServers = 45 // 45 NFS + 1 hesiod + 3 zephyr + 1 mailhub = 50 hosts
	w := newWorldCfg(t, journal, cfg)

	names := make([]string, 0, len(w.agents))
	for name := range w.agents {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != 50 {
		t.Fatalf("managed hosts = %d, want 50", len(names))
	}
	rng := rand.New(rand.NewSource(7))
	for _, name := range names {
		w.agents[name].SetLatency(time.Duration(rng.Intn(8)) * time.Millisecond)
	}

	stats := w.run()
	if stats.HostsUpdated != 50 {
		t.Errorf("hosts updated = %d, want 50", stats.HostsUpdated)
	}
	if got := stats.HostsUpdated + stats.HostSoftFails + stats.HostHardFails + stats.HostsSkippedBusy; got != stats.HostsConsidered {
		t.Errorf("counters do not balance: considered=%d, outcomes sum to %d (%+v)",
			stats.HostsConsidered, got, stats)
	}
	if n := stats.PushLatency.Count(); n < 50 {
		t.Errorf("latency histogram observed %d pushes, want >= 50", n)
	}
	for name, host := range w.nfsHosts {
		if host.Installs() != 1 {
			t.Errorf("%s: installs = %d, want exactly 1", name, host.Installs())
		}
	}
	if w.hub.Swaps() != 1 {
		t.Errorf("mailhub swaps = %d, want exactly 1", w.hub.Swaps())
	}

	// No host is left claimed, and every row records the success.
	w.d.LockShared()
	for _, svc := range []string{"HESIOD", "NFS", "SMTP", "ZEPHYR"} {
		for _, sh := range w.d.ServerHostsOf(svc) {
			if sh.InProgress {
				t.Errorf("%s host %d left InProgress", svc, sh.MachID)
			}
			if !sh.Success || sh.LastSuccess == 0 {
				t.Errorf("%s host %d not recorded as updated: %+v", svc, sh.MachID, sh)
			}
		}
	}
	w.d.UnlockShared()

	// The following pass is idle: nothing is pushed twice.
	w.clk.Advance(10 * time.Minute)
	stats = w.run()
	if stats.HostsUpdated != 0 {
		t.Errorf("idle pass updated %d hosts", stats.HostsUpdated)
	}
	for name, host := range w.nfsHosts {
		if host.Installs() != 1 {
			t.Errorf("%s: installs after idle pass = %d", name, host.Installs())
		}
	}
}

// TestClaimClosesTOCTOU reproduces the check-then-act window directly:
// a host that passes the eligibility scan but is claimed by a
// concurrent worker before the push must be skipped, not pushed twice.
func TestClaimClosesTOCTOU(t *testing.T) { bothJournalStates(t, testClaimClosesTOCTOU) }
func testClaimClosesTOCTOU(t *testing.T, journal bool) {
	w := newWorld(t, journal, 40)
	w.run()
	if w.hub.Swaps() != 1 {
		t.Fatalf("setup: swaps = %d", w.hub.Swaps())
	}

	machID := machIDByName(w.d, "ATHENA.MIT.EDU")
	w.d.LockExclusive()
	sh, _ := w.d.ServerHost("SMTP", machID)
	sh.Override = true
	w.d.NoteUpdate(sh)
	var snap serviceSnapshot
	svc, _ := w.d.ServerByName("SMTP")
	snap.Server = *svc
	w.d.UnlockExclusive()

	// The eligibility scan sees the host as due.
	hosts := w.dcm.hostsNeedingUpdate(&snap)
	if len(hosts) != 1 || hosts[0].machID != machID {
		t.Fatalf("eligible hosts = %+v", hosts)
	}

	// A concurrent worker claims it between the scan and the push.
	w.dcm.setHostFlags("SMTP", machID, func(sh *db.ServerHost) { sh.InProgress = true })

	res, err := gen.Generate(w.d, gen.MailIncremental)
	if err != nil {
		t.Fatal(err)
	}
	stats := &CycleStats{}
	if ok := w.dcm.updateHost(&snap, hosts[0], res, stats, nil); !ok {
		t.Error("lost claim reported as hard failure")
	}
	if stats.HostsSkippedBusy != 1 || stats.HostsUpdated != 0 {
		t.Errorf("skipped=%d updated=%d, want 1/0", stats.HostsSkippedBusy, stats.HostsUpdated)
	}
	if w.hub.Swaps() != 1 {
		t.Errorf("host pushed twice: swaps = %d", w.hub.Swaps())
	}

	// Release the stale claim; the next pass delivers the override.
	w.dcm.setHostFlags("SMTP", machID, func(sh *db.ServerHost) { sh.InProgress = false })
	stats = w.run()
	if stats.HostsUpdated != 1 || w.hub.Swaps() != 2 {
		t.Errorf("after release: updated=%d swaps=%d", stats.HostsUpdated, w.hub.Swaps())
	}
}

// TestClaimSkipsFreshlyUpdatedHost covers the claim's generation
// re-check: a host another pass finished updating (LastSuccess >=
// DFGen) after our scan must not be pushed again.
func TestClaimSkipsFreshlyUpdatedHost(t *testing.T) {
	bothJournalStates(t, testClaimSkipsFreshlyUpdatedHost)
}
func testClaimSkipsFreshlyUpdatedHost(t *testing.T, journal bool) {
	w := newWorld(t, journal, 40)
	w.run()

	w.d.LockExclusive()
	var snap serviceSnapshot
	svc, _ := w.d.ServerByName("SMTP")
	snap.Server = *svc
	w.d.UnlockExclusive()
	snap.DFGen = 0 // a stale snapshot from before the concurrent pass generated

	machID := machIDByName(w.d, "ATHENA.MIT.EDU")
	if w.dcm.claimHost(&snap, machID) {
		t.Error("claimed a host already updated for this generation")
	}
}

// TestConcurrentPassesUpdateOnce runs two full passes concurrently over
// the same database (the trigger-during-cron scenario) and checks no
// host is updated twice. Run under -race this also exercises the
// CycleStats and flag aggregation paths.
func TestConcurrentPassesUpdateOnce(t *testing.T) {
	bothJournalStates(t, testConcurrentPassesUpdateOnce)
}
func testConcurrentPassesUpdateOnce(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	second := New(w.dcm.cfg) // a second DCM instance over the same database

	var wg sync.WaitGroup
	results := make([]*CycleStats, 2)
	for i, m := range []*DCM{w.dcm, second} {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := m.RunOnce()
			if err != nil {
				t.Errorf("pass %d: %v", i, err)
				return
			}
			results[i] = stats
		}()
	}
	wg.Wait()

	totalUpdated := 0
	for _, stats := range results {
		if stats == nil {
			t.Fatal("missing pass results")
		}
		if stats.HostHardFails != 0 {
			t.Errorf("hard failures: %+v", stats)
		}
		totalUpdated += stats.HostsUpdated
	}
	if totalUpdated != len(w.agents) {
		t.Errorf("hosts updated across both passes = %d, want %d", totalUpdated, len(w.agents))
	}
	if w.hub.Swaps() != 1 {
		t.Errorf("mailhub swaps = %d, want exactly 1", w.hub.Swaps())
	}
	for name, host := range w.nfsHosts {
		if host.Installs() != 1 {
			t.Errorf("%s: installs = %d, want exactly 1", name, host.Installs())
		}
	}
}

// TestOverlappingPassesTakeTurns runs two passes of one DCM at once (a
// trigger landing during a scheduled pass) with a host owed an update:
// both reach the host-update path, which patches and renders the one
// model the planner keeps per service, so the cycles must serialize.
// Under -race this fails without the per-service cycle lock.
func TestOverlappingPassesTakeTurns(t *testing.T) {
	bothJournalStates(t, testOverlappingPassesTakeTurns)
}
func testOverlappingPassesTakeTurns(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	w.run()
	w.query("update_user_shell", "root", "/bin/overlap")
	w.query("set_server_host_override", "SMTP", "ATHENA.MIT.EDU")
	w.clk.Advance(time.Minute)

	var wg sync.WaitGroup
	results := make([]*CycleStats, 2)
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := w.dcm.RunOnce()
			if err != nil {
				t.Errorf("pass %d: %v", i, err)
				return
			}
			results[i] = stats
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := results[0].HostsUpdated + results[1].HostsUpdated; got != 1 {
		t.Errorf("hosts updated across both passes = %d, want 1", got)
	}
	if w.hub.Swaps() != 2 {
		t.Errorf("mailhub swaps = %d, want 2", w.hub.Swaps())
	}
}

// TestSequentialConfigStillWorks pins the MaxParallel*=1 path: the
// pass must behave identically, just serially.
func TestSequentialConfigStillWorks(t *testing.T) {
	bothJournalStates(t, testSequentialConfigStillWorks)
}
func testSequentialConfigStillWorks(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	w.reconfig(func(c *Config) {
		c.MaxParallelServices = 1
		c.MaxParallelHosts = 1
	})
	stats := w.run()
	if stats.HostsUpdated != len(w.agents) || stats.HostSoftFails != 0 || stats.HostHardFails != 0 {
		t.Errorf("sequential pass: %+v", stats)
	}
}
