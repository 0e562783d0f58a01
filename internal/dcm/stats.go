package dcm

import (
	"fmt"
	"sync"
	"time"

	"moira/internal/stats"
)

// LatencyBuckets are the upper bounds of the push-latency histogram;
// observations above the last bound land in an overflow bucket. They are
// the tree-wide default buckets (the DCM's were adopted as the default
// when the histogram moved to the stats package).
var LatencyBuckets = stats.DefaultBuckets

// LatencyHistogram accumulates per-attempt host push durations (real
// wall-clock, independent of the injected logical clock) for one pass.
// It is the shared stats.Histogram; the name survives for the DCM's
// public API.
type LatencyHistogram = stats.Histogram

// CycleStats summarizes one DCM pass; the Table G harness and the
// benchmarks read these. The fields are plain so existing readers keep
// working; during a pass the concurrent service and host workers
// mutate them only through add, which serializes on the internal
// mutex. Reading the fields after RunOnce returns is safe (the workers
// have been joined).
type CycleStats struct {
	// Trace is the trace ID of the request that triggered this pass
	// ("" for scheduled passes), threaded through to push logs.
	Trace string

	ServicesScanned int
	ServicesDue     int
	Generated       int
	NoChange        int
	GenHardErrors   int

	// FullBuilds and DeltaBuilds split Generated by how the files were
	// produced; NoopPasses counts passes the planner proved clean (zero
	// generator work). Fallbacks counts full builds forced on a pass that
	// could otherwise have been a delta (an adopted snapshot, a change to
	// a relation its generator declares full) — the expected full of a
	// cold start is not a fallback.
	FullBuilds  int
	DeltaBuilds int
	NoopPasses  int
	Fallbacks   int

	// DeltaRecords is how many changed rows the passes' snapshot diffs
	// found; DeltaKeys how many logical keys they recomputed.
	DeltaRecords int
	DeltaKeys    int

	HostsConsidered int
	HostsUpdated    int
	HostSoftFails   int
	HostHardFails   int

	// HostsSkippedBusy counts hosts that passed the eligibility scan
	// but lost the atomic claim to a concurrent worker (another pass or
	// DCM instance already had them InProgress or freshly updated).
	HostsSkippedBusy int

	// Retries counts soft-failure retry attempts across all hosts.
	Retries int

	FilesGenerated  int
	FilesPropagated int
	BytesGenerated  int
	BytesPropagated int

	// BytesRendered is the bundle bytes generation wrote: a bundle
	// patched in place writes its edits' bytes, one rendered anew all.
	BytesRendered int

	// BytesPushed is the edit payload that traveled to the hosts;
	// BytesSkipped the bundle bytes that did not travel, because the
	// agents kept them from the files they held.
	BytesPushed  int
	BytesSkipped int

	// PushesEdited and PushesWhole split successful pushes by form: the
	// bundle's edits (or none, to a host holding it already), or the
	// whole bundle. BaseMismatches counts hosts that did not hold the
	// bundle the DCM last installed there, and got the whole bundle.
	PushesEdited   int
	PushesWhole    int
	BaseMismatches int

	// PushLatency is the distribution of individual push-attempt
	// durations for this pass.
	PushLatency LatencyHistogram

	mu sync.Mutex
}

// add applies a mutation under the stats lock.
func (s *CycleStats) add(fn func(*CycleStats)) {
	s.mu.Lock()
	fn(s)
	s.mu.Unlock()
}

// Summary formats the pass outcome on one line for logs.
func (s *CycleStats) Summary() string {
	return fmt.Sprintf(
		"services scanned=%d due=%d generated=%d nochange=%d genfail=%d; "+
			"passes full=%d delta=%d noop=%d fallback=%d rows=%d keys=%d; "+
			"hosts considered=%d updated=%d soft=%d hard=%d busy=%d retries=%d; "+
			"bytes gen=%d prop=%d pushed=%d skipped=%d; pushes edited=%d whole=%d divergent=%d; latency %s",
		s.ServicesScanned, s.ServicesDue, s.Generated, s.NoChange, s.GenHardErrors,
		s.FullBuilds, s.DeltaBuilds, s.NoopPasses, s.Fallbacks, s.DeltaRecords, s.DeltaKeys,
		s.HostsConsidered, s.HostsUpdated, s.HostSoftFails, s.HostHardFails,
		s.HostsSkippedBusy, s.Retries,
		s.BytesGenerated, s.BytesPropagated, s.BytesPushed, s.BytesSkipped,
		s.PushesEdited, s.PushesWhole, s.BaseMismatches,
		s.PushLatency.String())
}

// publish folds the pass's results into the cumulative registry as
// dcm.* counters and the cumulative push-latency histogram.
func (s *CycleStats) publish(reg *stats.Registry, d time.Duration) {
	if reg == nil {
		return
	}
	reg.Counter("dcm.passes").Inc()
	for _, c := range []struct {
		name string
		v    int
	}{
		{"dcm.services.scanned", s.ServicesScanned},
		{"dcm.services.due", s.ServicesDue},
		{"dcm.services.generated", s.Generated},
		{"dcm.services.nochange", s.NoChange},
		{"dcm.services.genfail", s.GenHardErrors},
		{"dcm.delta.passes.full", s.FullBuilds},
		{"dcm.delta.passes.delta", s.DeltaBuilds},
		{"dcm.delta.passes.noop", s.NoopPasses},
		{"dcm.delta.fallbacks", s.Fallbacks},
		{"dcm.delta.records", s.DeltaRecords},
		{"dcm.delta.keys", s.DeltaKeys},
		{"dcm.hosts.considered", s.HostsConsidered},
		{"dcm.hosts.updated", s.HostsUpdated},
		{"dcm.hosts.softfail", s.HostSoftFails},
		{"dcm.hosts.hardfail", s.HostHardFails},
		{"dcm.hosts.busy", s.HostsSkippedBusy},
		{"dcm.hosts.retries", s.Retries},
		{"dcm.files.generated", s.FilesGenerated},
		{"dcm.files.propagated", s.FilesPropagated},
		{"dcm.bytes.generated", s.BytesGenerated},
		{"dcm.bytes.propagated", s.BytesPropagated},
		{"dcm.bytes.rendered", s.BytesRendered},
		{"dcm.bytes.pushed", s.BytesPushed},
		{"dcm.bytes.skipped", s.BytesSkipped},
		{"dcm.pushes.edited", s.PushesEdited},
		{"dcm.pushes.whole", s.PushesWhole},
		{"dcm.hosts.divergent", s.BaseMismatches},
	} {
		if c.v != 0 {
			reg.Counter(c.name).Add(int64(c.v))
		}
	}
	reg.Histogram("dcm.pass.duration").Observe(d)
	reg.Histogram("dcm.push.latency").Merge(s.PushLatency.Snapshot())
}
