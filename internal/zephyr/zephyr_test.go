package zephyr

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/mrerr"
	"moira/internal/update"
)

func TestSendAndSubscribe(t *testing.T) {
	b := NewBroker(clock.NewFake(time.Unix(600000000, 0)))
	sub, err := b.Subscribe("MOIRA", "DCM", "operator")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send("MOIRA", "DCM", "dcm", "hesiod update failed"); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C:
		if n.Class != "MOIRA" || n.Instance != "DCM" || n.Message != "hesiod update failed" {
			t.Errorf("notice = %+v", n)
		}
		if n.Time != 600000000 {
			t.Errorf("time = %d", n.Time)
		}
	default:
		t.Fatal("no notice delivered")
	}
}

func TestWildcardInstance(t *testing.T) {
	b := NewBroker(nil)
	all, _ := b.Subscribe("MOIRA", "*", "op")
	one, _ := b.Subscribe("MOIRA", "NFS", "op")
	b.Send("MOIRA", "DCM", "dcm", "msg1")
	b.Send("MOIRA", "NFS", "dcm", "msg2")
	if len(all.C) != 2 {
		t.Errorf("wildcard got %d notices", len(all.C))
	}
	if len(one.C) != 1 {
		t.Errorf("specific got %d notices", len(one.C))
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	b := NewBroker(nil)
	sub, _ := b.Subscribe("C", "I", "p")
	sub.Cancel()
	b.Send("C", "I", "p", "m")
	if len(sub.C) != 0 {
		t.Error("cancelled subscription received a notice")
	}
}

func TestACLEnforcement(t *testing.T) {
	b := NewBroker(nil)
	b.SetACL("RESTRICTED", &ACL{Xmt: []string{"dcm"}, Sub: []string{"operator"}})

	if err := b.Send("RESTRICTED", "I", "randal", "m"); err != mrerr.MrPerm {
		t.Errorf("unauthorized send err = %v", err)
	}
	if err := b.Send("RESTRICTED", "I", "dcm", "m"); err != nil {
		t.Errorf("authorized send err = %v", err)
	}
	if _, err := b.Subscribe("RESTRICTED", "*", "randal"); err != mrerr.MrPerm {
		t.Errorf("unauthorized sub err = %v", err)
	}
	if _, err := b.Subscribe("RESTRICTED", "*", "operator"); err != nil {
		t.Errorf("authorized sub err = %v", err)
	}
	// Wildcard entry opens the class.
	b.SetACL("OPEN", &ACL{Xmt: []string{"*.*@*"}, Sub: []string{"*.*@*"}})
	if err := b.Send("OPEN", "I", "anyone", "m"); err != nil {
		t.Errorf("wildcard send err = %v", err)
	}
	// Empty (non-nil) ACL denies everyone.
	b.SetACL("CLOSED", &ACL{Xmt: []string{}, Sub: []string{}})
	if err := b.Send("CLOSED", "I", "dcm", "m"); err != mrerr.MrPerm {
		t.Errorf("empty acl send err = %v", err)
	}
	// No ACL at all is unrestricted.
	if err := b.Send("UNKNOWN", "I", "anyone", "m"); err != nil {
		t.Errorf("no-acl send err = %v", err)
	}
}

func TestLoadACLDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("MOIRA.xmt.acl", "dcm\nmoira\n")
	write("MOIRA.sub.acl", "*.*@*\n")
	write("EMPTY.xmt.acl", "")
	write("MOIRA.iws.acl", "ignored\n") // accepted, not enforced
	write("notacl.txt", "junk")

	b := NewBroker(nil)
	if err := b.LoadACLDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("MOIRA", "DCM", "dcm", "ok"); err != nil {
		t.Errorf("dcm send err = %v", err)
	}
	if err := b.Send("MOIRA", "DCM", "stranger", "no"); err != mrerr.MrPerm {
		t.Errorf("stranger send err = %v", err)
	}
	if _, err := b.Subscribe("MOIRA", "*", "anyone"); err != nil {
		t.Errorf("open sub err = %v", err)
	}
	if err := b.Send("EMPTY", "I", "anyone", "m"); err != mrerr.MrPerm {
		t.Errorf("empty class send err = %v", err)
	}
}

func TestLogRecordsAcceptedNotices(t *testing.T) {
	b := NewBroker(nil)
	b.SetACL("X", &ACL{Xmt: []string{}})
	b.Send("X", "I", "p", "rejected")
	b.Send("Y", "I", "p", "accepted")
	log := b.Log()
	if len(log) != 1 || log[0].Message != "accepted" {
		t.Errorf("log = %v", log)
	}
}

func TestFullChannelDoesNotBlockSend(t *testing.T) {
	b := NewBroker(nil)
	sub, _ := b.Subscribe("C", "I", "p")
	for i := 0; i < 200; i++ {
		if err := b.Send("C", "I", "p", "flood"); err != nil {
			t.Fatal(err)
		}
	}
	if len(sub.C) != cap(sub.C) {
		t.Errorf("channel holds %d of %d", len(sub.C), cap(sub.C))
	}
}

// TestReloadACLsStaysInHostTree: reload_zephyr_acls resolves its
// directory inside the agent's root, so a path that climbs out of the
// host tree is refused rather than loaded.
func TestReloadACLsStaysInHostTree(t *testing.T) {
	base := t.TempDir()
	outside := filepath.Join(base, "outside")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outside, "MOIRA.xmt.acl"), []byte("intruder\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := update.NewAgent("Z-1.MIT.EDU", filepath.Join(base, "root"), nil)
	b := NewBroker(nil)
	AttachToAgent(a, b)
	if err := a.ExecCommand("reload_zephyr_acls", []string{"../outside"}); err == nil {
		t.Error("reload from outside the host tree succeeded")
	}
	if err := b.Send("MOIRA", "DCM", "dcm", "m"); err != nil {
		t.Errorf("an ACL from outside the host tree was loaded: send err = %v", err)
	}
}
