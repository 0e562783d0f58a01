package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentExactCounts hammers one counter, one gauge, and one
// histogram from many goroutines and asserts the exact totals; the CI
// race-detector pass makes this a memory-model check too.
func TestConcurrentExactCounts(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(2)
				r.Histogram("h").Observe(3 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	const want = goroutines * perG
	if got := r.Counter("c").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("g").Value(); got != 2*want {
		t.Errorf("gauge = %d, want %d", got, 2*want)
	}
	h := r.Histogram("h").Snapshot()
	if h.N != want || h.Sum != want*3*time.Millisecond {
		t.Errorf("histogram n=%d sum=%v, want n=%d sum=%v", h.N, h.Sum, want, want*3*time.Millisecond)
	}
	// 3ms lands in the ≤5ms bucket (index 1 of the defaults).
	if h.Counts[1] != want {
		t.Errorf("bucket counts = %v", h.Counts)
	}
}

func TestHistogramMinMaxAvgAndOverflow(t *testing.T) {
	h := NewHistogram(nil)
	for _, d := range []time.Duration{
		500 * time.Microsecond, 30 * time.Millisecond, 3 * time.Second,
	} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Min != 500*time.Microsecond || s.Max != 3*time.Second || s.N != 3 {
		t.Errorf("snapshot = %+v", s)
	}
	// 3s exceeds the last bound and lands in the overflow bucket.
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Errorf("overflow bucket = %v", s.Counts)
	}
	if got := h.String(); !strings.Contains(got, "n=3") || !strings.Contains(got, ">2s:1") {
		t.Errorf("String() = %q", got)
	}
}

func TestSnapshotDeltaMath(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(10)
	r.Gauge("sessions").Set(4)
	r.Histogram("lat").Observe(2 * time.Millisecond)
	before := r.Snapshot()

	r.Counter("reqs").Add(7)
	r.Counter("fresh").Add(3) // born after the first snapshot
	r.Gauge("sessions").Set(9)
	r.Histogram("lat").Observe(40 * time.Millisecond)
	r.Histogram("lat").Observe(60 * time.Millisecond)
	after := r.Snapshot()

	d := after.Delta(before)
	if d.Counters["reqs"] != 7 {
		t.Errorf("reqs delta = %d", d.Counters["reqs"])
	}
	if d.Counters["fresh"] != 3 {
		t.Errorf("fresh delta = %d", d.Counters["fresh"])
	}
	if d.Gauges["sessions"] != 9 { // gauges report the current value
		t.Errorf("sessions = %d", d.Gauges["sessions"])
	}
	lat := d.Histograms["lat"]
	if lat.N != 2 || lat.Sum != 100*time.Millisecond {
		t.Errorf("lat delta n=%d sum=%v", lat.N, lat.Sum)
	}
	// 40ms → ≤50ms bucket (index 3); 60ms → ≤100ms bucket (index 4);
	// the 2ms observation from before the first snapshot cancels out.
	if lat.Counts[1] != 0 || lat.Counts[3] != 1 || lat.Counts[4] != 1 {
		t.Errorf("lat bucket delta = %v", lat.Counts)
	}
}

func TestGroupValuesJoinSnapshots(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.AddGroup(func(emit func(string, int64)) {
		calls++
		emit("db.users.appends", int64(10*calls))
	})
	first := r.Snapshot()
	second := r.Snapshot()
	if first.Counters["db.users.appends"] != 10 || second.Counters["db.users.appends"] != 20 {
		t.Errorf("group values = %d, %d",
			first.Counters["db.users.appends"], second.Counters["db.users.appends"])
	}
	if d := second.Delta(first); d.Counters["db.users.appends"] != 10 {
		t.Errorf("group delta = %d", d.Counters["db.users.appends"])
	}
}

// TestRenderGolden pins the exact text format: it is what `_stats`
// serves and what cmd/moirastat and the integration smoke test parse.
func TestRenderGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests.query").Add(42)
	r.Gauge("server.sessions.active").Set(3)
	h := r.Histogram("server.latency.query")
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)

	var b strings.Builder
	if err := r.Snapshot().Render(&b); err != nil {
		t.Fatal(err)
	}
	want := "histogram server.latency.query n=2 min=2ms avg=2ms max=2ms " +
		"[≤1ms:0 ≤5ms:2 ≤20ms:0 ≤50ms:0 ≤100ms:0 ≤500ms:0 ≤2s:0 >2s:0]\n" +
		"counter server.requests.query 42\n" +
		"gauge server.sessions.active 3\n"
	if b.String() != want {
		t.Errorf("Render:\n got: %q\nwant: %q", b.String(), want)
	}
}

// TestHistogramStringEmptyCase pins the empty rendering cmd/dcm relies
// on ("no pushes", the original LatencyHistogram wording).
func TestHistogramStringEmptyCase(t *testing.T) {
	var h Histogram
	if got := h.String(); got != "no pushes" {
		t.Errorf("empty String() = %q", got)
	}
}
