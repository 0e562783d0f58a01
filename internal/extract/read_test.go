package extract

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"strconv"
	"testing"

	"moira/internal/db"
)

// journal appends n "add" records under one group commit (one fsync).
func (h *harness) journal(n int) {
	h.t.Helper()
	h.d.LockExclusive()
	defer h.d.UnlockExclusive()
	err := h.d.JournalGroup(func() error {
		for i := 0; i < n; i++ {
			if err := h.d.JournalQuery("tester", "test", "", "add", []string{"k" + strconv.Itoa(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		h.t.Fatal(err)
	}
}

// TestReadRangeAllocsIndependentOfOffset: the records before the range
// are verified but not decoded, so a 10-record read costs the same after
// 100 preceding records as after 10,000 in the same segment.
func TestReadRangeAllocsIndependentOfOffset(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := newHarness(t, 0)
	h.journal(10_010)
	seg, _ := h.jw.Head()
	measure := func(from int64) (allocs, bytes float64) {
		read := func() {
			out, err := ReadRange(h.jw.Dir(), pos(seg, from), pos(seg, from+10))
			if err != nil || len(out) != 10 {
				t.Fatalf("read [%d, %d): %d records, %v", from, from+10, len(out), err)
			}
			if want := "k" + strconv.FormatInt(from, 10); out[0].Args[0] != want {
				t.Fatalf("first record args %v, want %s", out[0].Args, want)
			}
		}
		read()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	nearA, nearB := measure(100)
	farA, farB := measure(10_000)
	t.Logf("after 100: %.0f allocs, %.0f B; after 10,000: %.0f allocs, %.0f B", nearA, nearB, farA, farB)
	if farA > nearA*1.1 || farB > nearB*1.1 {
		t.Errorf("reading after 10,000 records costs %.0f allocs / %.0f B, after 100 %.0f / %.0f: want within 10%%",
			farA, farB, nearA, nearB)
	}
}

// TestReadRangeDetectsDamageBeforeRange: a flipped byte in a record the
// range skips, and that is not the segment's last line, is still
// ErrCorrupt — skipped records are verified, not trusted.
func TestReadRangeDetectsDamageBeforeRange(t *testing.T) {
	for _, damaged := range []int{0, 2} {
		h := newHarness(t, 0)
		h.journal(6)
		seg, recs := h.jw.Head()
		segs, err := db.ListSegments(h.jw.Dir())
		if err != nil {
			t.Fatal(err)
		}
		path := segs[len(segs)-1].Path
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(data, []byte("\n"))
		line := lines[damaged]
		line[len(line)/2] ^= 0x01 // inside the payload, before the CRC suffix
		if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = ReadRange(h.jw.Dir(), pos(seg, 3), pos(seg, recs))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("damage in record %d before the range: err = %v, want ErrCorrupt", damaged, err)
		}
	}
}
