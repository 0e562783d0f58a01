package stats

import "strings"

// The series-name registry: every metric name the tree may emit is
// declared here, either exactly or as a "prefix.*" family. The
// Prometheus exposition needs collision-free names, and a flat
// get-or-create registry makes it too easy for two call sites to
// invent overlapping or misspelled series — so CI walks a fully-booted
// system's snapshot and fails on any name this list does not know
// (TestStatsNamesRegistered), and fails here on duplicate or shadowed
// declarations. Adding a metric means adding its name to this table.
var KnownNames = []string{
	// server (internal/server)
	"server.requests.*", // per-opcode request counts
	"server.latency.*",  // per-opcode latency histograms
	"server.handle.*",   // per-query-handle counts
	"server.errors.*",   // per-mrerr-code counts
	"server.auth.failures",
	"server.sessions.active",
	"server.conns.shed",
	"server.conns.idleclosed",
	"server.conns.forceclosed",
	"server.panics.recovered",
	"server.readonly.refused",
	"server.stale.refused",

	// database (internal/db)
	"db.*", // per-table append/update/delete mirrors
	"snap.reads",
	"snap.rebuilds",
	"snap.rows.copied", // rows and bucket headers writes copied because a snapshot shared them
	"snap.freeze.duration",

	// durable journal (internal/db jwriter)
	"journal.appends",
	"journal.bytes",
	"journal.syncs",
	"journal.rotations",
	"journal.writeerrors",
	"journal.segment",
	"journal.errors",
	"journal.wedged",
	"journal.sync.wait",    // group-commit flush duration histogram
	"journal.sync.batched", // appends riding already-started flushes

	// replication (internal/replica)
	"repl.role",
	"repl.applied.seg",
	"repl.applied.idx",
	"repl.applied.records",
	"repl.skipped.records",
	"repl.failed.records",
	"repl.head.seg",
	"repl.head.idx",
	"repl.lag.segments",
	"repl.lag.records",
	"repl.lag.bytes",
	"repl.lag.seconds",
	"repl.reconnects",
	"repl.bootstraps",
	"repl.connected",
	"repl.primary.conns",
	"repl.primary.served",
	"repl.primary.snapshots",
	"repl.primary.sent.records",
	"repl.primary.sent.bytes",
	"repl.primary.subscribers",
	"repl.primary.shiplag.records",

	// failover cluster (internal/replica cluster)
	"election.epoch",
	"election.count",
	"election.won",
	"election.aborted",
	"election.flaps",
	"lease.held",
	"lease.remaining.ms",
	"lease.renewals",
	"lease.expiries",
	"lease.acks",
	"lease.sent",
	"repl.commit.gated",
	"repl.commit.gatefail",
	"repl.commit.waived",

	// DCM (internal/dcm)
	"dcm.passes",
	"dcm.services.scanned",
	"dcm.services.due",
	"dcm.services.generated",
	"dcm.services.nochange",
	"dcm.services.genfail",
	"dcm.hosts.considered",
	"dcm.hosts.updated",
	"dcm.hosts.softfail",
	"dcm.hosts.hardfail",
	"dcm.hosts.busy",
	"dcm.hosts.retries",
	"dcm.files.generated",
	"dcm.files.propagated",
	"dcm.bytes.generated",
	"dcm.bytes.propagated",
	"dcm.bytes.rendered",  // bundle bytes generation wrote: edits when patched, all when rendered anew
	"dcm.bytes.pushed",    // edit payload bytes shipped
	"dcm.bytes.skipped",   // bundle bytes the agents kept from the files they held
	"dcm.pushes.edited",   // pushes that shipped a bundle's edits (or none)
	"dcm.pushes.whole",    // pushes that shipped the whole bundle
	"dcm.hosts.divergent", // base mismatches: a host did not hold the bundle last installed there
	"dcm.pass.duration",
	"dcm.push.latency",

	// incremental DCM (internal/dcm + internal/extract)
	"dcm.delta.passes.full",
	"dcm.delta.passes.delta",
	"dcm.delta.passes.noop",
	"dcm.delta.fallbacks",
	"dcm.delta.records",
	"dcm.delta.keys",
	"dcm.delta.rows.*",     // per-service changed rows the last pass's diff found
	"dcm.delta.lastmode.*", // per-service last pass mode (0 full, 1 delta, 2 noop)

	// update agents (internal/update)
	"update.installs",
	"update.xfers",
	"update.bytes",
	"update.chunks.pushed", // edits shipped (the name predates edit pushes)
	"update.chunks.reused", // runs of the old file kept unchanged
	"update.base.mismatch", // pushes refused: the target was not the edits' base
	"update.extracts.kept", // extracts that found their member already in place
	"update.files.removed", // installed files whose member left the bundle, removed
	"update.headers.read",  // tar headers walked to index the bundles pushes assembled
	"update.conns.busy",
	"update.conns.forceclosed",
	"update.panics.recovered",

	// span store (internal/trace)
	"trace.spans",
	"trace.kept",
	"trace.sampled.out",
	"trace.slowops",
	"trace.errored",
	"span.*", // per-phase duration histograms, one per span name
}

// KnownName reports whether a series name is declared in KnownNames,
// exactly or under a "prefix.*" family.
func KnownName(name string) bool {
	for _, pat := range KnownNames {
		if fam, ok := strings.CutSuffix(pat, "*"); ok {
			if strings.HasPrefix(name, fam) {
				return true
			}
		} else if name == pat {
			return true
		}
	}
	return false
}
