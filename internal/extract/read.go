package extract

import (
	"bufio"
	"errors"
	"fmt"
	"os"

	"moira/internal/db"
	"moira/internal/protocol"
)

// ErrPositionLost reports that the journal no longer holds the range a
// stored position names — the segments were pruned by a checkpoint, or
// the journal was reset under the position (promotion, adoption). The
// planner answers it with a full regeneration, never an error.
var ErrPositionLost = errors.New("extract: journal position lost")

// ErrCorrupt reports a damaged record inside the requested range: a CRC
// mismatch or an unparseable line that is not a torn tail. The planner
// treats it like a lost position (full regeneration) but counts it
// separately.
var ErrCorrupt = errors.New("extract: journal record corrupt")

// ReadRange reads the journal records in [from, to): skipping the first
// from.Idx records of segment from.Seg, through the first to.Idx
// records of segment to.Seg. Idx counts records, matching
// JournalWriter.Head. A torn final line (missing or truncated CRC on
// the last line of a segment) is tolerated and skipped, exactly as
// recovery tolerates it; damage anywhere else is ErrCorrupt.
func ReadRange(dir string, from, to protocol.Pos) ([]*db.JournalRecord, error) {
	if to.Seg < from.Seg || (to.Seg == from.Seg && to.Idx < from.Idx) {
		return nil, fmt.Errorf("%w: head %d.%d behind position %d.%d",
			ErrPositionLost, to.Seg, to.Idx, from.Seg, from.Idx)
	}
	segs, err := db.ListSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPositionLost, err)
	}
	bySeq := make(map[int64]string, len(segs))
	for _, s := range segs {
		bySeq[s.Seq] = s.Path
	}
	var out []*db.JournalRecord
	for seq := from.Seg; seq <= to.Seg; seq++ {
		path, ok := bySeq[seq]
		if !ok {
			return nil, fmt.Errorf("%w: segment %d missing", ErrPositionLost, seq)
		}
		skip := int64(0)
		if seq == from.Seg {
			skip = from.Idx
		}
		limit := int64(-1)
		if seq == to.Seg {
			limit = to.Idx
		}
		recs, err := readSegment(path, skip, limit)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// readSegment reads one segment file, skipping the first skip records
// and stopping after limit records total (limit < 0 means all).
//
// The skipped records were consumed by an earlier pass. They are still
// verified — a line whose CRC checks out on the scanner's bytes is
// counted without allocating, and any other line goes through the full
// parse, so damage before the range is ErrCorrupt and a torn tail is
// skipped — but only records inside the range are decoded. A pass
// therefore costs what its range holds, not what the segment holds.
func readSegment(path string, skip, limit int64) ([]*db.JournalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPositionLost, err)
	}
	defer f.Close()

	var out []*db.JournalRecord
	idx := int64(0)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if limit >= 0 && idx >= limit {
			break
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if idx < skip && db.JournalCRCValid(line) {
			idx++
			continue
		}
		rec, perr := db.ParseJournalLine(string(line))
		if perr != nil {
			// A damaged last line is a torn append from a crash: the
			// change it named was never acknowledged and recovery drops
			// it, so the extract can too. Damage earlier is corruption.
			if !sc.Scan() {
				break
			}
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, perr)
		}
		if idx >= skip {
			out = append(out, rec)
		}
		idx++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	if limit >= 0 && idx < limit {
		return nil, fmt.Errorf("%w: %s holds %d records, wanted %d",
			ErrPositionLost, path, idx, limit)
	}
	if idx < skip {
		return nil, fmt.Errorf("%w: %s holds %d records, position skips %d",
			ErrPositionLost, path, idx, skip)
	}
	return out, nil
}
