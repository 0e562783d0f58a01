package hesiod

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/gen"
	"moira/internal/mailhub"
	"moira/internal/queries"
	"moira/internal/update"
	"moira/internal/workload"
)

// TestGeneratedFilesAlwaysParse is the cross-module contract: everything
// the DCM's hesiod generator emits must be loadable by the nameserver —
// any format drift between producer and consumer fails here.
func TestGeneratedFilesAlwaysParse(t *testing.T) {
	d := queries.NewBootstrappedDB(clock.NewFake(time.Unix(600000000, 0)))
	if _, _, err := workload.Populate(d, workload.Scaled(300)); err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(d, gen.HesiodIncremental)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	if err := s.LoadFiles(res.Files); err != nil {
		t.Fatalf("nameserver rejected generated files: %v", err)
	}
	if s.NumRecords() == 0 {
		t.Fatal("no records loaded")
	}
	// Every active user resolves through both passwd and the uid CNAME.
	d.LockShared()
	defer d.UnlockShared()
	checked := 0
	d.EachUser(func(u *db.User) bool {
		if u.Status != db.UserActive {
			return true
		}
		checked++
		if _, ok := s.Resolve(u.Login + ".passwd"); !ok {
			t.Errorf("%s.passwd unresolvable", u.Login)
			return false
		}
		if vals, ok := s.Resolve(fmt.Sprintf("%d.uid", u.UID)); !ok || !strings.HasPrefix(vals[0], u.Login+":") {
			t.Errorf("%d.uid chase failed: %v %v", u.UID, vals, ok)
			return false
		}
		return true
	})
	if checked < 300 {
		t.Errorf("checked only %d users", checked)
	}
	// Every filesystem label resolves in filsys.
	db.Filesystems.Each(d, func(f *db.Filesys) bool {
		if _, ok := s.Resolve(f.Label + ".filsys"); !ok {
			t.Errorf("%s.filsys unresolvable", f.Label)
			return false
		}
		return true
	})
}

// TestGeneratedFilesKeepPatchesPatching pins the shape of the generated
// files that lets a push's reload patch them (update.LineTable): in
// every .db file each name's lines form one run, so no name starts two
// entries, and only cluster.db and sloc.db give a name more than one
// line; the aliases file gives each name one line. A generator change
// that broke this would fail no other test: every push would just parse
// the file whole.
func TestGeneratedFilesKeepPatchesPatching(t *testing.T) {
	d := queries.NewBootstrappedDB(clock.NewFake(time.Unix(600000000, 0)))
	if _, _, err := workload.Populate(d, workload.Scaled(2000)); err != nil {
		t.Fatal(err)
	}
	res, err := gen.Generate(d, gen.HesiodIncremental)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range StandardFiles {
		text := update.TextOf(res.Files[file])
		recs, err := ParseDB(text)
		if err != nil {
			t.Fatal(err)
		}
		entries, conts := 0, 0
		var open *string
		update.Lines(text, update.Range{Lo: 0, Hi: text.Len()}, func(line string, _ int) error {
			switch name, kind, _ := recordName(line, open); kind {
			case update.Starts:
				entries++
				open = &name
			case update.Continues:
				conts++
			}
			return nil
		})
		t.Logf("%s: %d names, %d continuation lines", file, len(recs), conts)
		if split := entries - len(recs); split != 0 {
			t.Errorf("%s: %d names' lines are split into more than one run", file, split)
		}
		if conts > 0 && file != "cluster.db" && file != "sloc.db" {
			t.Errorf("%s: %d lines continue a name", file, conts)
		}
	}

	mail, err := gen.Generate(d, gen.MailIncremental)
	if err != nil {
		t.Fatal(err)
	}
	aliases, err := mailhub.ParseAliases(mail.Files["aliases"])
	if err != nil {
		t.Fatal(err)
	}
	text := update.TextOf(mail.Files["aliases"])
	lines := 0
	update.Lines(text, update.Range{Lo: 0, Hi: text.Len()}, func(line string, _ int) error {
		if line = strings.TrimSpace(line); line != "" && line[0] != '#' {
			lines++
		}
		return nil
	})
	t.Logf("aliases: %d names", len(aliases))
	if lines != len(aliases) {
		t.Errorf("aliases: %d entry lines hold %d names: a name continues or repeats", lines, len(aliases))
	}
}
