package db

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzJournalRecord fuzzes the journal line parser that recovery and
// replication both feed with bytes read straight off disk or the wire.
// It must never panic, and any line it does accept must survive a
// re-encode/re-parse roundtrip unchanged — otherwise a replica could
// apply a different mutation than the primary journaled.
func FuzzJournalRecord(f *testing.F) {
	// Seed with the layout the parser accepts (v2 + CRC suffix) and the
	// shapes it must refuse: the retired v1 (no trace) and CRC-less v2
	// layouts, with and without a checksum, and damaged lines.
	seeds := []string{
		"600000000:root:mrtest:add_user:login,alice",
		"v2:600000000:root:mrtest:t1a2b3c4d-7:add_user:login,alice",
		AppendJournalCRC("v2:600000000:root:moirad:t-9:update_user:alice:status,1"),
		AppendJournalCRC("v2:600000001:admin:dcm:t-10:delete_member_from_list:staff:USER:bob"),
		AppendJournalCRC(""),
		"v2:600000000:root:moirad:t-9:update_user:alice#00000000", // bad CRC
		"not:a:number:query:arg",
		"v2:short",
		"field\\:with\\:colons:p:a:q",
		"#deadbeef",
		strings.Repeat(":", 40),
		AppendJournalCRC("600000000:root:mrtest:add_user:login,alice"),
		"v2:600000000:root:moirad:t-9:update_user:alice:status,1",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, line string) {
		// Property 1: the CRC splitter never panics and a valid verdict
		// is canonical — the suffix reattaches.
		payload, ok := SplitJournalCRC(line)
		if ok && AppendJournalCRC(payload) != line {
			t.Fatalf("valid CRC not canonical: %q -> %q", line, AppendJournalCRC(payload))
		}
		// The raw-bytes check the extract reader skips records with
		// agrees with the splitter.
		if JournalCRCValid([]byte(line)) != ok {
			t.Fatalf("JournalCRCValid(%q) disagrees with SplitJournalCRC (%v)", line, ok)
		}

		// Property 2: the full parser never panics, and accepts only a
		// v2 record whose CRC suffix is present and right.
		rec, err := ParseJournalLine(line)
		if err != nil {
			return
		}
		if !ok || !strings.HasPrefix(payload, "v2:") {
			t.Fatalf("parser accepted %q (CRC ok=%v)", line, ok)
		}

		// Property 3: roundtrip. Re-encode the accepted record and
		// reparse; every field must come back bit-identical.
		row := append([]string{
			"v2", strconv.FormatInt(rec.Time, 10), rec.Principal, rec.App, rec.Trace, rec.Query,
		}, rec.Args...)
		re := AppendJournalCRC(EncodeRow(row))
		rec2, err := ParseJournalLine(re)
		if err != nil {
			t.Fatalf("re-encoded line rejected: %q -> %q: %v", line, re, err)
		}
		if rec2.Time != rec.Time || rec2.Principal != rec.Principal ||
			rec2.App != rec.App || rec2.Trace != rec.Trace || rec2.Query != rec.Query ||
			len(rec2.Args) != len(rec.Args) {
			t.Fatalf("roundtrip mismatch: %+v != %+v (line %q)", rec2, rec, line)
		}
		for i := range rec.Args {
			if rec2.Args[i] != rec.Args[i] {
				t.Fatalf("arg %d roundtrip mismatch: %q != %q (line %q)", i, rec2.Args[i], rec.Args[i], line)
			}
		}
	})
}
