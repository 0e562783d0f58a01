package db

import (
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// Structured journal records. Section 5.2.2: the nightly ASCII backup
// "provides recovery with the loss of no more than roughly a day's
// transactions. To improve this, the journal file kept by the Moira
// server daemon contains a listing of all successful changes to the
// database." This implementation makes the listing machine-replayable:
// each successful mutating query appends one colon-escaped row
//
//	timestamp:principal:application:query:arg1:arg2:...
//
// so a restore can be rolled forward by re-executing the journal (see
// queries.ReplayJournal).
//
// Version 2 of the layout adds the request's trace ID, marked by a
// literal "v2" first field (timestamps are numeric, so the layouts
// cannot collide):
//
//	v2:timestamp:principal:application:trace:query:arg1:arg2:...
//
// Version 3 appends a per-line CRC32 suffix to the colon-escaped
// record, separated by '#':
//
//	v2:timestamp:principal:application:trace:query:arg1:...#crc32hex
//
// The checksum is what lets recovery tell a torn final line (a crash
// mid-append — expected, tolerated) from silent mid-file corruption
// (fail loudly). ParseJournalLine accepts all three layouts, so
// journals spanning the upgrades replay cleanly.

// JournalRecord is one parsed journal line.
type JournalRecord struct {
	Time      int64
	Principal string
	App       string
	Trace     string // trace ID of the originating request; "" in v1 lines
	Query     string
	Args      []string
}

// CRCState classifies a journal line's checksum suffix.
type CRCState int

// CRC suffix states.
const (
	// CRCMissing: the line has no "#xxxxxxxx" suffix — a legacy (pre-v3)
	// line, or a line torn before the checksum was written.
	CRCMissing CRCState = iota
	// CRCValid: the suffix is present and matches the payload.
	CRCValid
	// CRCBad: the suffix is present but does not match — the payload was
	// damaged after it was written, or the line was torn mid-payload in a
	// way that left a stale suffix shape.
	CRCBad
)

// crcSuffixLen is 1 ('#') + 8 hex digits.
const crcSuffixLen = 9

// journalCRC returns the line checksum of payload.
func journalCRC(payload string) uint32 {
	return crc32.ChecksumIEEE([]byte(payload))
}

// AppendJournalCRC suffixes payload with its CRC32, producing a v3
// journal line.
func AppendJournalCRC(payload string) string {
	return fmt.Sprintf("%s#%08x", payload, journalCRC(payload))
}

// SplitJournalCRC strips and verifies the CRC suffix of one journal
// line, returning the payload and the checksum verdict. A legacy line
// whose final field happens to end in '#' plus eight hex digits is
// indistinguishable from a damaged v3 line and reports CRCBad; the
// writer has always escaped its records, so this cannot occur for
// lines it produced.
func SplitJournalCRC(line string) (payload string, state CRCState) {
	i, sum, ok := crcSuffix(line)
	if !ok {
		return line, CRCMissing
	}
	payload = line[:i]
	if journalCRC(payload) != sum {
		return payload, CRCBad
	}
	return payload, CRCValid
}

// JournalCRCValid reports whether a raw journal line (no newline) ends
// in a CRC suffix that matches its payload — SplitJournalCRC's CRCValid
// verdict, without allocating. It is for readers that must verify
// records they will not decode; any other line goes through
// ParseJournalLine.
func JournalCRCValid(line []byte) bool {
	i, sum, ok := crcSuffix(line)
	return ok && crc32.ChecksumIEEE(line[:i]) == sum
}

// crcSuffix locates a line's "#xxxxxxxx" suffix, returning the payload
// length and the checksum the suffix spells.
func crcSuffix[T string | []byte](line T) (payloadLen int, sum uint32, ok bool) {
	i := len(line) - crcSuffixLen
	if i < 0 || line[i] != '#' {
		return 0, 0, false
	}
	for j := i + 1; j < len(line); j++ {
		c := line[j]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, 0, false
		}
		sum = sum<<4 | uint32(c)
	}
	return i, sum, true
}

// JournalQuery appends one successful mutating query to the journal.
// Caller holds the exclusive lock (it runs inside the query
// transaction). A write error fails the enclosing transaction: the
// client is told the change did not commit, and the error is counted
// in the journal.errors series — a full disk must not silently lose
// committed changes. It also latches the fail-stop flag
// (JournalWedged): the in-memory mutation has already been applied, so
// the store now diverges from what recovery can reproduce, and the
// query layer refuses further mutations until the journal is repointed.
func (d *DB) JournalQuery(principal, app, trace, query string, args []string) error {
	if d.journal == nil {
		return nil
	}
	row := append([]string{
		"v2", strconv.FormatInt(d.Now(), 10), principal, app, trace, query,
	}, args...)
	line := AppendJournalCRC(EncodeRow(row))
	if _, err := io.WriteString(d.journal, line+"\n"); err != nil {
		d.journalErrs.Add(1)
		d.wedged.Store(true)
		return fmt.Errorf("db: journal write: %w", err)
	}
	return nil
}

// journalGrouper is the optional group-commit face of a journal sink;
// JournalWriter implements it. See JournalWriter.BeginGroup.
type journalGrouper interface {
	BeginGroup()
	EndGroup() error
}

// JournalGroup runs fn with the journal sink in group-commit mode: the
// appends fn makes (via JournalQuery) defer their per-commit fsyncs and
// share the single fsync issued when fn returns. The sync error, if
// any, is returned even when fn succeeded — the batch is durable only
// if both are nil. Sinks without group support (plain io.Writers, nil
// journal) run fn unchanged.
func (d *DB) JournalGroup(fn func() error) error {
	g, ok := d.journal.(journalGrouper)
	if !ok {
		return fn()
	}
	g.BeginGroup()
	err := fn()
	if serr := g.EndGroup(); serr != nil {
		d.journalErrs.Add(1)
		d.wedged.Store(true)
		if err == nil {
			err = fmt.Errorf("db: journal group sync: %w", serr)
		}
	}
	return err
}

// JournalErrors reports how many journal appends have failed.
func (d *DB) JournalErrors() int64 { return d.journalErrs.Load() }

// ParseJournalLine decodes one journal line, in any layout. A line
// whose CRC suffix does not match its payload is an error.
func ParseJournalLine(line string) (*JournalRecord, error) {
	payload, state := SplitJournalCRC(line)
	if state == CRCBad {
		return nil, fmt.Errorf("db: journal line CRC mismatch")
	}
	fields, err := DecodeRow(payload)
	if err != nil {
		return nil, err
	}
	rec := &JournalRecord{}
	if len(fields) > 0 && fields[0] == "v2" {
		if len(fields) < 6 {
			return nil, fmt.Errorf("db: v2 journal line has %d fields", len(fields))
		}
		rec.Principal, rec.App, rec.Trace = fields[2], fields[3], fields[4]
		rec.Query, rec.Args = fields[5], fields[6:]
		fields = fields[1:] // timestamp is now fields[0]
	} else {
		if len(fields) < 4 {
			return nil, fmt.Errorf("db: journal line has %d fields", len(fields))
		}
		rec.Principal, rec.App = fields[1], fields[2]
		rec.Query, rec.Args = fields[3], fields[4:]
	}
	ts, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("db: journal timestamp %q", fields[0])
	}
	rec.Time = ts
	return rec, nil
}
