package dcm

import (
	"math/rand"
	"testing"
	"time"

	"moira/internal/db"
)

func TestBackoffDelaySchedule(t *testing.T) {
	exp := BackoffPolicy{Base: 100 * time.Millisecond, Max: time.Second}
	tests := []struct {
		name    string
		policy  BackoffPolicy
		attempt int
		want    time.Duration
	}{
		{"first retry is base", exp, 1, 100 * time.Millisecond},
		{"second doubles", exp, 2, 200 * time.Millisecond},
		{"third doubles again", exp, 3, 400 * time.Millisecond},
		{"fourth doubles again", exp, 4, 800 * time.Millisecond},
		{"fifth hits the cap", exp, 5, time.Second},
		{"stays at the cap", exp, 9, time.Second},
		{"huge attempt does not overflow", exp, 500, time.Second},
		{"attempt zero clamps to one", exp, 0, 100 * time.Millisecond},
		{"negative attempt clamps to one", exp, -3, 100 * time.Millisecond},
		{"cap below base wins", BackoffPolicy{Base: time.Second, Max: 300 * time.Millisecond}, 1, 300 * time.Millisecond},
		{"no cap keeps doubling", BackoffPolicy{Base: time.Millisecond}, 11, 1024 * time.Millisecond},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Delay(tc.attempt, nil); got != tc.want {
				t.Errorf("Delay(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
		})
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := BackoffPolicy{Base: 100 * time.Millisecond, Max: time.Second, Jitter: 0.5}
	rnd := rand.New(rand.NewSource(1))
	for attempt := 1; attempt <= 6; attempt++ {
		full := BackoffPolicy{Base: p.Base, Max: p.Max}.Delay(attempt, nil)
		lo := full - time.Duration(p.Jitter*float64(full))
		seen := map[time.Duration]bool{}
		for i := 0; i < 500; i++ {
			d := p.Delay(attempt, rnd)
			if d < lo || d > full {
				t.Fatalf("attempt %d: jittered delay %v outside [%v, %v]", attempt, d, lo, full)
			}
			seen[d] = true
		}
		if len(seen) < 2 {
			t.Errorf("attempt %d: jitter produced a constant delay", attempt)
		}
	}
}

// TestBackoffResetOnSuccess drives a host through fail-retry-succeed-
// fail cycles and measures the virtual time spent sleeping: after a
// successful update the next failure's schedule must restart at Base,
// not continue doubling.
func TestBackoffResetOnSuccess(t *testing.T) { bothJournalStates(t, testBackoffResetOnSuccess) }
func testBackoffResetOnSuccess(t *testing.T, journal bool) {
	w := newWorld(t, journal, 60)
	w.reconfig(func(c *Config) {
		c.MaxParallelServices = 1
		c.MaxParallelHosts = 1
		c.MaxRetries = 3
		c.Backoff = BackoffPolicy{Base: time.Second, Max: 4 * time.Second}
	})
	const wantSleep = 1*time.Second + 2*time.Second + 4*time.Second

	// Pass 1: the mailhub is unreachable; 3 retries back off 1s, 2s, 4s.
	addr := w.addrs["ATHENA.MIT.EDU"]
	delete(w.addrs, "ATHENA.MIT.EDU")
	stats := w.run()
	if stats.HostSoftFails != 1 || stats.Retries != 3 {
		t.Fatalf("soft=%d retries=%d, want 1/3", stats.HostSoftFails, stats.Retries)
	}
	if got := w.clk.Slept(); got != wantSleep {
		t.Errorf("first failure slept %v, want %v", got, wantSleep)
	}

	// The host recovers; the retry pass succeeds without sleeping.
	w.addrs["ATHENA.MIT.EDU"] = addr
	w.clk.Advance(15 * time.Minute)
	stats = w.run()
	if stats.HostsUpdated != 1 || stats.Retries != 0 {
		t.Fatalf("recovery pass: %+v", stats)
	}
	if got := w.clk.Slept(); got != wantSleep {
		t.Errorf("successful pass slept: total %v, want %v", got, wantSleep)
	}

	// It fails again: the schedule restarts at Base rather than
	// continuing from the cap.
	delete(w.addrs, "ATHENA.MIT.EDU")
	w.clk.Advance(15 * time.Minute)
	w.d.LockExclusive()
	sh, _ := db.ServerHosts.Find(w.d, "SMTP", func(sh *db.ServerHost) bool { return sh.MachID == machIDByName(w.d, "ATHENA.MIT.EDU") })
	sh = db.Edit(w.d, db.ServerHosts, sh)
	sh.Override = true
	w.d.NoteUpdate(sh)
	w.d.UnlockExclusive()
	stats = w.run()
	if stats.HostSoftFails != 1 {
		t.Fatalf("second failure pass: %+v", stats)
	}
	if got := w.clk.Slept(); got != 2*wantSleep {
		t.Errorf("second failure slept %v total, want %v (schedule did not reset)", got, 2*wantSleep)
	}
}
