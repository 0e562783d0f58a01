package queries

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
)

func TestJournalFormatIsParseable(t *testing.T) {
	f := newFixture(t)
	var journal bytes.Buffer
	f.d.SetJournal(&journal)
	// checkNameChars rejects ':' in logins, so use a legal login but
	// awkward free-text fields; the journal must escape them.
	f.mustRun(t, f.priv, "add_user", "weird", UniqueUID, "/bin/csh",
		"We:ird", "Na\nme", "", "1", "", "STAFF")
	line := strings.TrimRight(journal.String(), "\n")
	rec, err := db.ParseJournalLine(line)
	if err != nil {
		t.Fatalf("ParseJournalLine(%q): %v", line, err)
	}
	if rec.Query != "add_user" || rec.Args[0] != "weird" || rec.Args[3] != "We:ird" || rec.Args[4] != "Na\nme" {
		t.Errorf("record = %+v", rec)
	}
	if rec.Time != f.clk.Now().Unix() {
		t.Errorf("time = %d", rec.Time)
	}
}

func TestJournalSkipsRejectedWrites(t *testing.T) {
	f := newFixture(t)
	var journal bytes.Buffer
	f.d.SetJournal(&journal)
	// A failing write must not be journaled.
	f.run(f.priv, "add_machine", "x.mit.edu", "NOTATYPE")
	if journal.Len() != 0 {
		t.Errorf("failed write journaled: %q", journal.String())
	}
	// Retrieves are never journaled.
	f.mustRun(t, f.priv, "get_machine", "*")
	if journal.Len() != 0 {
		t.Errorf("retrieve journaled: %q", journal.String())
	}
}

// TestBackupPlusJournalRecovery is the full section 5.2.2 recovery story:
// nightly backup, a day of journaled changes, catastrophic loss, restore
// from the backup, replay the journal — no transactions lost.
func TestBackupPlusJournalRecovery(t *testing.T) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := NewBootstrappedDB(clk)
	priv := &Context{DB: d, Privileged: true, App: "test"}
	run := func(name string, args ...string) {
		t.Helper()
		if err := Execute(priv, name, args, func([]string) error { return nil }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Pre-backup state.
	run("add_machine", "charon.mit.edu", "VAX")
	run("add_user", "early", "-1", "/bin/csh", "Early", "Bird", "", "1", "", "STAFF")

	// Nightly backup.
	backupDir := t.TempDir()
	if err := d.Backup(backupDir); err != nil {
		t.Fatal(err)
	}

	// The day's journaled transactions.
	var journal bytes.Buffer
	d.SetJournal(&journal)
	clk.Advance(time.Hour)
	run("add_user", "daytime", "-1", "/bin/csh", "Day", "Time", "", "1", "", "STAFF")
	run("add_list", "lunchclub", "1", "1", "0", "1", "0", "0", "USER", "daytime", "lunch")
	run("add_member_to_list", "lunchclub", "USER", "daytime")
	run("update_user_shell", "early", "/bin/sh")
	run("add_machine", "new.mit.edu", "RT")
	run("delete_machine", "new.mit.edu")

	// Catastrophe: the binary database is lost. Restore + replay.
	restored, err := db.Restore(backupDir, clock.NewFake(clk.Now()))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ReplayJournal(restored, bytes.NewReader(journal.Bytes()), 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("replay stats: %+v", stats)
	}
	if stats.Applied != 6 {
		t.Errorf("applied = %d, want 6", stats.Applied)
	}

	// The day's transactions survived.
	restored.LockShared()
	defer restored.UnlockShared()
	if _, ok := restored.UserByLogin("daytime"); !ok {
		t.Error("daytime user lost")
	}
	if u, _ := restored.UserByLogin("early"); u.Shell != "/bin/sh" {
		t.Errorf("early's shell = %q", u.Shell)
	}
	l, ok := restored.ListByName("lunchclub")
	if !ok {
		t.Fatal("lunchclub lost")
	}
	if len(restored.MembersOf(l.ListID)) != 1 {
		t.Error("lunchclub membership lost")
	}
	if _, ok := db.Machines.Get(restored, "NEW.MIT.EDU"); ok {
		t.Error("deleted machine resurrected")
	}
}

// TestReplayOverlapIsIdempotent replays a journal against a database that
// already contains its effects (the journal window overlapping the dump).
func TestReplayOverlapIsIdempotent(t *testing.T) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := NewBootstrappedDB(clk)
	priv := &Context{DB: d, Privileged: true, App: "test"}
	var journal bytes.Buffer
	d.SetJournal(&journal)
	if err := Execute(priv, "add_machine", []string{"charon.mit.edu", "VAX"},
		func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Replay onto the same database: the add collides, counted skipped.
	stats, err := ReplayJournal(d, bytes.NewReader(journal.Bytes()), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 || stats.Applied != 0 || stats.Failed != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestReplaySinceFilter(t *testing.T) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := NewBootstrappedDB(clk)
	priv := &Context{DB: d, Privileged: true, App: "test"}
	var journal bytes.Buffer
	d.SetJournal(&journal)
	run := func(name string, args ...string) {
		t.Helper()
		if err := Execute(priv, name, args, func([]string) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run("add_machine", "old.mit.edu", "VAX")
	clk.Advance(2 * time.Hour)
	cutoff := clk.Now().Unix()
	run("add_machine", "new.mit.edu", "VAX")

	fresh := NewBootstrappedDB(clock.NewFake(clk.Now()))
	stats, err := ReplayJournal(fresh, bytes.NewReader(journal.Bytes()), cutoff, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 1 {
		t.Errorf("applied = %d", stats.Applied)
	}
	fresh.LockShared()
	defer fresh.UnlockShared()
	if _, ok := db.Machines.Get(fresh, "OLD.MIT.EDU"); ok {
		t.Error("pre-cutoff record replayed")
	}
	if _, ok := db.Machines.Get(fresh, "NEW.MIT.EDU"); !ok {
		t.Error("post-cutoff record not replayed")
	}
}

// TestReplayRefusesCRCLessLines: mrrestore --journal replays through
// ReplayJournal, where a line without its CRC suffix is damage unless it
// is the torn tail.
func TestReplayRefusesCRCLessLines(t *testing.T) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := NewBootstrappedDB(clk)
	var journal bytes.Buffer
	d.SetJournal(&journal)
	priv := &Context{DB: d, Privileged: true, App: "test"}
	for _, m := range []string{"one.mit.edu", "two.mit.edu"} {
		if err := Execute(priv, "add_machine", []string{m, "VAX"}, func([]string) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(journal.String(), "\n"), "\n")
	bare, _ := db.SplitJournalCRC(lines[0])

	mid := bare + "\n" + lines[1] + "\n"
	if _, err := ReplayJournal(NewBootstrappedDB(clk), strings.NewReader(mid), 0, nil); !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("CRC-less line before the tail: err = %v, want ErrJournalCorrupt", err)
	}
	tail := lines[1] + "\n" + bare + "\n"
	stats, err := ReplayJournal(NewBootstrappedDB(clk), strings.NewReader(tail), 0, nil)
	if err != nil || stats.Applied != 1 || stats.Torn != 1 {
		t.Errorf("CRC-less tail: stats %+v, err %v; want 1 applied, 1 torn", stats, err)
	}
}
