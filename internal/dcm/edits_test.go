package dcm

import (
	"os"
	"strconv"
	"testing"
	"time"

	"moira/internal/db"
)

// TestBaseMismatchSendsWholeBundle: a push ships a bundle's edits to a
// host holding the bundle they were made from, and the whole bundle to
// any other. A host whose target was rewritten behind the DCM's back
// answers the edits with a base mismatch: the pass counts it, installs
// the whole bundle there in the same attempt, and the pass after ships
// edits again. A restarted DCM knows no host's bundle: its first pass
// pushes every host whole, with no mismatch, and the pass after ships
// edits.
func TestBaseMismatchSendsWholeBundle(t *testing.T) {
	for _, restart := range []bool{false, true} {
		name := map[bool]string{false: "tampered target", true: "restarted DCM"}[restart]
		t.Run(name, func(t *testing.T) { testBaseMismatch(t, restart) })
	}
}

func testBaseMismatch(t *testing.T, restart bool) {
	w := newWorld(t, false, 120)
	w.d.LockShared()
	var login string
	w.d.EachUser(func(u *db.User) bool {
		if u.Status == db.UserActive {
			login = u.Login
			return false
		}
		return true
	})
	svc, _ := db.Servers.Get(w.d, "HESIOD")
	target := svc.TargetFile
	hosts := hostsOf(w.d, "HESIOD")
	host, _ := db.Machines.ByID(w.d, hosts[0].MachID)
	w.d.UnlockShared()

	change := 0
	pass := func() *CycleStats {
		t.Helper()
		change++
		w.query("update_user_shell", login, "/bin/sh"+strconv.Itoa(change))
		w.clk.Advance(25 * time.Hour)
		st := w.run()
		if st.HostsUpdated == 0 || st.HostSoftFails+st.HostHardFails != 0 {
			t.Fatalf("pass %d: %d hosts updated, %d soft and %d hard failures", change, st.HostsUpdated, st.HostSoftFails, st.HostHardFails)
		}
		if err := w.hes.Verify(w.agents[host.Name], "/etc/athena/hesiod"); err != nil {
			t.Fatalf("pass %d: hesiod on %s: %v", change, host.Name, err)
		}
		return st
	}
	edits := func(st *CycleStats) {
		t.Helper()
		if st.PushesWhole != 0 || st.BaseMismatches != 0 || st.PushesEdited != st.HostsUpdated {
			t.Fatalf("pass %d: %d pushes as edits, %d whole, %d mismatches over %d hosts: want every push as edits",
				change, st.PushesEdited, st.PushesWhole, st.BaseMismatches, st.HostsUpdated)
		}
		if st.BytesPushed > st.BytesSkipped/100 {
			t.Fatalf("pass %d: %d bytes pushed, %d skipped", change, st.BytesPushed, st.BytesSkipped)
		}
	}

	if st := w.run(); st.PushesWhole != st.HostsUpdated || st.BaseMismatches != 0 {
		t.Fatalf("first pass: %d of %d pushes whole, %d mismatches", st.PushesWhole, st.HostsUpdated, st.BaseMismatches)
	}
	edits(pass())

	if restart {
		w.reconfig(func(*Config) {})
		st := pass()
		if st.PushesWhole != st.HostsUpdated || st.BaseMismatches != 0 {
			t.Fatalf("restarted DCM: %d of %d pushes whole, %d mismatches, want every push whole and none",
				st.PushesWhole, st.HostsUpdated, st.BaseMismatches)
		}
	} else {
		fp, err := w.agents[host.Name].HostPath(target)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(fp)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x20
		if err := os.WriteFile(fp, b, 0o644); err != nil {
			t.Fatal(err)
		}
		st := pass()
		if st.BaseMismatches != 1 || st.PushesWhole != 1 || st.PushesEdited != st.HostsUpdated-1 {
			t.Fatalf("after tampering: %d mismatches, %d pushes whole, %d as edits of %d hosts: want the one tampered host whole",
				st.BaseMismatches, st.PushesWhole, st.PushesEdited, st.HostsUpdated)
		}
	}
	edits(pass())
}
