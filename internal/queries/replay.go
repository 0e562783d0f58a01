package queries

// Journal replay: roll a restored database forward by re-executing the
// mutating queries recorded since the backup was taken. Together with
// mrbackup/mrrestore this closes section 5.2.2's stated gap — the
// nightly dump alone loses "roughly a day's transactions"; the journal
// recovers them.
//
// Replay distinguishes two kinds of damage. A *torn final line* — the
// process was killed mid-append, so the last line of a segment is
// incomplete — is the expected signature of a crash and is tolerated:
// the line is reported (ReplayStats.Torn), not executed, and replay
// succeeds. Because every process opens a fresh segment and never
// appends to an old one, any segment's tail is a legitimate crash
// point: the segment that was active when some past process died keeps
// its torn last line forever (until a checkpoint prunes it), so
// recovery stays idempotent across any number of restarts. *Mid-file
// corruption* — a line that fails its CRC or cannot be parsed anywhere
// but a segment's tail — means the journal itself was damaged after it
// was written; replaying past it would silently diverge from the real
// history, so it is a hard error.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"moira/internal/db"
	"moira/internal/mrerr"
)

// ErrJournalCorrupt marks mid-file journal corruption: recovery must
// not proceed automatically from such a journal.
var ErrJournalCorrupt = errors.New("queries: journal corrupt")

// ReplayStats summarizes a replay run.
type ReplayStats struct {
	Applied int // queries re-executed successfully
	Skipped int // already present (MR_EXISTS etc.): journal overlaps the dump
	Failed  int // other errors (logged via the logf callback)
	Torn    int // torn final lines, tolerated and not executed (at most 1 per segment)
	Lines   int
}

// add folds one segment's stats into the aggregate.
func (s *ReplayStats) add(o *ReplayStats) {
	s.Applied += o.Applied
	s.Skipped += o.Skipped
	s.Failed += o.Failed
	s.Torn += o.Torn
	s.Lines += o.Lines
}

// ReplayJournal re-executes every journal record from r against the
// database, newest state winning. Records whose effect is already
// present (the journal overlaps the backup window) count as skipped:
// re-adding an existing object or re-deleting a missing one is the
// expected overlap signature, not a failure. since filters records
// older than the given unix time (0 replays everything). logf may be
// nil. Every line must carry a valid CRC suffix, so a truncated record
// can never be mistaken for a shorter legitimate one. A damaged final
// line is tolerated and counted in Torn; damage anywhere else, a line
// without its CRC included, fails with ErrJournalCorrupt.
func ReplayJournal(d *db.DB, r io.Reader, since int64, logf func(string, ...any)) (*ReplayStats, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	stats := &ReplayStats{}

	replayLine := func(line string, final bool) error {
		stats.Lines++
		rec, err := db.ParseJournalLine(line)
		if err != nil {
			if final {
				stats.Torn++
				logf("replay: torn final line %d tolerated: %v", stats.Lines, err)
				return nil
			}
			return fmt.Errorf("%w: line %d: %v", ErrJournalCorrupt, stats.Lines, err)
		}
		if rec.Time < since {
			return nil
		}
		switch outcome, err := apply(d, rec); outcome {
		case ApplyApplied:
			stats.Applied++
		case ApplySkipped:
			stats.Skipped++
		default:
			stats.Failed++
			logf("replay: %s %v: %v", rec.Query, rec.Args, err)
		}
		return nil
	}

	// One line of lookahead: a line is only "final" if nothing follows
	// it, and only the final line may be torn.
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var pending string
	havePending := false
	for sc.Scan() {
		if sc.Text() == "" {
			continue
		}
		if havePending {
			if err := replayLine(pending, false); err != nil {
				return stats, err
			}
		}
		pending = sc.Text()
		havePending = true
	}
	if err := sc.Err(); err != nil {
		return stats, err
	}
	if havePending {
		if err := replayLine(pending, true); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// ReplaySegments rolls d forward through the given journal segment
// files in order. Every segment may carry a torn final line: each
// process opens a fresh segment and never appends to an old one, so
// the tail of any segment is where some past process may have died
// mid-append — and the tear persists across later boots until a
// checkpoint prunes the segment, so tolerating it everywhere is what
// keeps recovery idempotent. A torn or corrupt line anywhere but a
// segment's tail is mid-journal damage and fails with
// ErrJournalCorrupt.
func ReplaySegments(d *db.DB, segs []db.Segment, logf func(string, ...any)) (*ReplayStats, error) {
	total := &ReplayStats{}
	for _, seg := range segs {
		f, err := os.Open(seg.Path)
		if err != nil {
			return total, err
		}
		stats, err := ReplayJournal(d, f, 0, logf)
		f.Close()
		total.add(stats)
		if err != nil {
			return total, fmt.Errorf("segment %d (%s): %w", seg.Seq, seg.Path, err)
		}
	}
	return total, nil
}

// ApplyOutcome classifies the result of applying one journal record.
type ApplyOutcome int

// Apply outcomes, mirroring ReplayStats' counters.
const (
	ApplyApplied ApplyOutcome = iota // executed successfully
	ApplySkipped                     // effect already present (overlap)
	ApplyFailed                      // other error; record could not take effect
)

// ApplyJournalLine executes one CRC-valid journal line against d with
// replay semantics: privileged, original principal preserved, overlap
// errors (the record's effect is already present) counted as skipped
// rather than failed. Replication tailers feed received records through
// it so a replica's apply path is exactly the recovery path. A line
// that fails its CRC or cannot be parsed returns ApplyFailed and a
// wrapped ErrJournalCorrupt: the stream, not the database, is damaged.
func ApplyJournalLine(d *db.DB, line string) (ApplyOutcome, error) {
	rec, err := db.ParseJournalLine(line)
	if err != nil {
		return ApplyFailed, fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
	}
	return apply(d, rec)
}

// apply executes one journal record against d. It runs privileged: the
// original execution already passed its access check, and list
// memberships may since have changed. The original principal is kept
// for the mod-by audit trail.
func apply(d *db.DB, rec *db.JournalRecord) (ApplyOutcome, error) {
	cx := &Context{DB: d, Principal: rec.Principal, App: rec.App, TraceID: rec.Trace, Privileged: true}
	err := Execute(cx, rec.Query, rec.Args, func([]string) error { return nil })
	switch {
	case err == nil:
		return ApplyApplied, nil
	case isOverlapError(err):
		return ApplySkipped, nil
	default:
		return ApplyFailed, err
	}
}

// isOverlapError reports errors that signal "this change is already in
// the restored state" — the journal window overlapping the dump.
func isOverlapError(err error) bool {
	switch err {
	case mrerr.MrExists, mrerr.MrNotUnique, mrerr.MrInUse, mrerr.MrNoMatch:
		return true
	}
	return false
}
