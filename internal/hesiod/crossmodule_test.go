package hesiod

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/gen"
	"moira/internal/queries"
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
