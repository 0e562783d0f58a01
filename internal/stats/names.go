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
	"snap.rows.copied", // paged-relation rows deep-copied by rebuilds
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
	"dcm.bytes.pushed",
	"dcm.bytes.skipped",
	"dcm.pass.duration",
	"dcm.push.latency",

	// incremental DCM (internal/dcm + internal/extract)
	"dcm.delta.passes.full",
	"dcm.delta.passes.delta",
	"dcm.delta.passes.noop",
	"dcm.delta.fallbacks",
	"dcm.delta.records",
	"dcm.delta.keys",
	"dcm.delta.pos.seg.*",  // per-service committed journal segment
	"dcm.delta.pos.idx.*",  // per-service committed record index
	"dcm.delta.backlog.*",  // per-service records consumed by the last pass
	"dcm.delta.lastmode.*", // per-service last pass mode (0 full, 1 delta, 2 noop)

	// update agents (internal/update)
	"update.installs",
	"update.xfers",
	"update.bytes",
	"update.chunks.manifests",
	"update.chunks.pushed",
	"update.chunks.reused",
	"update.chunks.bytes.pushed",
	"update.chunks.bytes.reused",
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
