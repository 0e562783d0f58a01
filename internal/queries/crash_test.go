package queries

import (
	"errors"
	"testing"

	"moira/internal/db"
)

// TestCrashRecoveryAtEveryPoint is the fault-injection harness: it kills
// the write path at every injected crash point and asserts that boot-time
// recovery reproduces exactly the state a crash at that point commits to.
//
// Timeline at every point: mutation A, checkpoint, mutation B, then
// mutation C (or a second checkpoint) dies at the injected point. The
// recovered database must match, table for table, a reference database
// that executed only the operations the crash semantics promise:
//
//	journal.midline      C's record is torn mid-line — C is lost, the
//	                     tear is reported, nothing else is damaged.
//	journal.presync      C's record fully reached the file before the
//	                     fsync died — C survives. (The client got an
//	                     error either way; an error promises nothing.)
//	checkpoint.midtables the snapshot dump died half way — the partial
//	                     snapshot is discarded, A and B recover through
//	                     the previous snapshot plus segments.
//	checkpoint.prerename the snapshot finished but was never renamed
//	                     into its generation — same outcome, and the
//	                     orphaned .tmp directory is swept at boot.
func TestCrashRecoveryAtEveryPoint(t *testing.T) {
	opA := []string{"add_machine", "alpha.mit.edu", "VAX"}
	opB := []string{"add_machine", "bravo.mit.edu", "VAX"}
	opC := []string{"add_machine", "charlie.mit.edu", "VAX"}

	cases := []struct {
		point       string
		viaJournal  bool // crash fires inside Execute(opC); else inside a checkpoint
		wantC       bool // opC's effect survives recovery
		wantTorn    int
		wantApplied int // records replayed from segments
	}{
		{point: "journal.midline", viaJournal: true, wantC: false, wantTorn: 1, wantApplied: 1},
		{point: "journal.presync", viaJournal: true, wantC: true, wantTorn: 0, wantApplied: 2},
		{point: "checkpoint.midtables", viaJournal: false, wantC: false, wantTorn: 0, wantApplied: 1},
		{point: "checkpoint.prerename", viaJournal: false, wantC: false, wantTorn: 0, wantApplied: 1},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			f := newDurable(t)
			f.run(t, opA[0], opA[1:]...)
			f.checkpoint(t)
			f.run(t, opB[0], opB[1:]...)

			db.SetCrashHook(func(p string) error {
				if p == tc.point {
					return db.ErrCrashInjected
				}
				return nil
			})
			t.Cleanup(func() { db.SetCrashHook(nil) })

			var err error
			if tc.viaJournal {
				err = Execute(f.cx, opC[0], opC[1:], func([]string) error { return nil })
			} else {
				_, err = f.store.Take(f.d, f.jw.Rotate)
			}
			if !errors.Is(err, db.ErrCrashInjected) {
				t.Fatalf("crash at %s surfaced as %v, want ErrCrashInjected", tc.point, err)
			}
			db.SetCrashHook(nil)
			// The process is dead: nothing is closed, synced, or cleaned.

			rec, info := f.recover(t)
			if info.Generation != 1 {
				t.Errorf("recovered from generation %d, want 1", info.Generation)
			}
			if info.Replay.Torn != tc.wantTorn || info.Replay.Failed != 0 ||
				info.Replay.Applied != tc.wantApplied {
				t.Errorf("replay stats = %+v, want %d applied, %d torn, 0 failed",
					info.Replay, tc.wantApplied, tc.wantTorn)
			}
			if len(info.Fsck) != 0 {
				t.Errorf("recovered database fails fsck: %v", info.Fsck)
			}

			// Reference: a database that executed exactly the committed ops.
			ref := newDurable(t)
			ref.run(t, opA[0], opA[1:]...)
			ref.checkpoint(t)
			ref.run(t, opB[0], opB[1:]...)
			if tc.wantC {
				ref.run(t, opC[0], opC[1:]...)
			}
			assertSameTables(t, ref.d, rec)

			rec.LockShared()
			_, gotC := db.Machines.Get(rec, "CHARLIE.MIT.EDU")
			rec.UnlockShared()
			if gotC != tc.wantC {
				t.Errorf("opC survived = %v, want %v", gotC, tc.wantC)
			}

			// Index-derived results: recovery rebuilds the secondary
			// indexes from the restored rows plus journal replay, so
			// wildcard retrieval (ordered name index) and snapshot reads
			// must see exactly the committed machines, in name order.
			wantNames := []string{"ALPHA.MIT.EDU", "BRAVO.MIT.EDU"}
			if tc.wantC {
				wantNames = append(wantNames, "CHARLIE.MIT.EDU")
			}
			var gotNames []string
			rec.LockShared()
			db.Machines.Match(rec, "*.MIT.EDU", func(m *db.Machine) bool {
				gotNames = append(gotNames, m.Name)
				return true
			})
			rec.UnlockShared()
			if len(gotNames) != len(wantNames) {
				t.Fatalf("recovered wildcard match = %v, want %v", gotNames, wantNames)
			}
			for i := range wantNames {
				if gotNames[i] != wantNames[i] {
					t.Fatalf("recovered wildcard match = %v, want %v", gotNames, wantNames)
				}
			}
			snap := rec.Reader()
			got := 0
			db.Machines.Match(snap, "*.MIT.EDU", func(*db.Machine) bool { got++; return true })
			if got != len(wantNames) {
				t.Errorf("recovered snapshot wildcard match has %d rows, want %d", got, len(wantNames))
			}
		})
	}
}
