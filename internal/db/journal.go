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
// each successful mutating query appends one colon-escaped row, marked
// by a literal "v2" first field, carrying the request's trace ID and a
// CRC32 suffix separated by '#':
//
//	v2:timestamp:principal:application:trace:query:arg1:...#crc32hex
//
// so a restore can be rolled forward by re-executing the journal (see
// queries.ReplayJournal). The checksum is what lets recovery tell a
// torn final line (a crash mid-append — expected, tolerated) from
// silent mid-file corruption (fail loudly). This is the only layout
// ParseJournalLine accepts: a line without its checksum is damage
// wherever it is not a torn tail.

// JournalRecord is one parsed journal line.
type JournalRecord struct {
	Time      int64
	Principal string
	App       string
	Trace     string // trace ID of the originating request
	Query     string
	Args      []string
}

// crcSuffixLen is 1 ('#') + 8 hex digits.
const crcSuffixLen = 9

// journalCRC returns the line checksum of payload.
func journalCRC(payload string) uint32 {
	return crc32.ChecksumIEEE([]byte(payload))
}

// AppendJournalCRC suffixes payload with its CRC32, producing a journal
// line.
func AppendJournalCRC(payload string) string {
	return fmt.Sprintf("%s#%08x", payload, journalCRC(payload))
}

// SplitJournalCRC strips and verifies the CRC suffix of one journal
// line, returning the payload and whether the suffix is present and
// matches it.
func SplitJournalCRC(line string) (payload string, ok bool) {
	i, sum, ok := crcSuffix(line)
	if !ok || journalCRC(line[:i]) != sum {
		return line, false
	}
	return line[:i], true
}

// JournalCRCValid reports whether a raw journal line (no newline) ends
// in a CRC suffix that matches its payload — SplitJournalCRC's verdict,
// without allocating. It is for readers that must verify records they
// will not decode; any other line goes through ParseJournalLine.
func JournalCRCValid(line []byte) bool {
	i, sum, ok := crcSuffix(line)
	return ok && crc32.ChecksumIEEE(line[:i]) == sum
}

// crcSuffix locates a line's "#xxxxxxxx" suffix, returning the payload
// length and the checksum the suffix spells. Only the lowercase hex
// AppendJournalCRC writes is a suffix, so a valid line has one spelling.
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

// ParseJournalLine decodes one journal line. A line whose CRC suffix is
// missing or does not match its payload is an error.
func ParseJournalLine(line string) (*JournalRecord, error) {
	payload, ok := SplitJournalCRC(line)
	if !ok {
		return nil, fmt.Errorf("db: journal line CRC missing or mismatched")
	}
	fields, err := DecodeRow(payload)
	if err != nil {
		return nil, err
	}
	if len(fields) < 6 || fields[0] != "v2" {
		return nil, fmt.Errorf("db: journal line is not a v2 record (%d fields)", len(fields))
	}
	ts, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("db: journal timestamp %q", fields[1])
	}
	return &JournalRecord{
		Time: ts, Principal: fields[2], App: fields[3], Trace: fields[4],
		Query: fields[5], Args: fields[6:],
	}, nil
}
