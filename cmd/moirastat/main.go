// Command moirastat inspects a running Moira server's observability
// surface over the ordinary query protocol: the `_stats` admin handle
// (the metric registry: request, error, and latency series from the
// server, per-table op counts from the database, cumulative DCM and
// update-agent series) and the `_spans` handle (the span store, for
// following one trace ID through the system).
//
//	moirastat -addr 127.0.0.1:7760              # one-shot dump
//	moirastat -addr ... -interval 2s -count 10  # watch counter deltas
//	moirastat -addr ... -spans '*'              # kept span trees (tail-sampled)
//	moirastat -addr ... -spans T00ab12cd-3      # one trace's span tree
//	moirastat -addr ... -health                 # readiness probes; exit 1 if failing
//	moirastat -addr node1:7760 -repl            # role, lease, follower lag or primary subscribers
//
// -addr accepts a comma-separated list; moirastat connects to the
// first reachable address and fails over read queries to the rest.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/mrerr"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7760", "Moira server address (comma-separated list for read failover)")
		interval = flag.Duration("interval", 0, "watch mode: poll every interval and print counter deltas")
		count    = flag.Int("count", 0, "watch mode: stop after this many polls (0 = forever)")
		spans    = flag.String("spans", "", "dump kept span trees ('*' for all, or one trace ID)")
		healthy  = flag.Bool("health", false, "one-shot health view: print every probe, exit nonzero when any fails")
		repl     = flag.Bool("repl", false, "one-shot replication view: role, lease, position, and a follower's lag or a primary's subscribers")
		dcmView  = flag.Bool("dcm", false, "one-shot DCM view: per-service changed rows and last pass mode, pass modes, bytes pushed vs skipped")
	)
	flag.Parse()

	c, err := client.DialFailover(strings.Split(*addr, ","), 10*time.Second, clock.System)
	if err != nil {
		log.Fatalf("moirastat: %v", err)
	}
	defer c.Disconnect()

	switch {
	case *spans != "":
		dumpSpans(c, *spans)
	case *healthy:
		checkHealth(c)
	case *dcmView:
		rows, err := fetch(c)
		if err != nil {
			log.Fatalf("moirastat: _stats: %v", err)
		}
		printDCM(rows)
	case *repl:
		rows, err := fetch(c)
		if err != nil {
			log.Fatalf("moirastat: _stats: %v", err)
		}
		who, err := c.QueryAll("_whois")
		if err != nil {
			log.Fatalf("moirastat: _whois: %v", err)
		}
		if len(who) != 1 || len(who[0]) < 8 {
			log.Fatalf("moirastat: _whois returned %v", who)
		}
		printRepl(who[0], rows)
	case *interval > 0:
		watch(c, *interval, *count)
	default:
		rows, err := fetch(c)
		if err != nil {
			log.Fatalf("moirastat: _stats: %v", err)
		}
		printGrouped(rows)
	}
}

// row is one `_stats` tuple.
type row struct {
	kind, name, value string
}

func fetch(c *client.Client) ([]row, error) {
	var rows []row
	err := c.Query("_stats", nil, func(t []string) error {
		if len(t) == 3 {
			rows = append(rows, row{t[0], t[1], t[2]})
		}
		return nil
	})
	return rows, err
}

// printGrouped prints the metrics grouped by their first dotted segment
// (server, db, dcm, update), counters and gauges in columns, histograms
// on their own lines.
func printGrouped(rows []row) {
	groups := make(map[string][]row)
	var order []string
	for _, r := range rows {
		g := r.name
		if i := strings.IndexByte(g, '.'); i >= 0 {
			g = g[:i]
		}
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], r)
	}
	sort.Strings(order)
	for _, g := range order {
		fmt.Printf("%s:\n", g)
		width := 0
		for _, r := range groups[g] {
			if len(r.name) > width {
				width = len(r.name)
			}
		}
		for _, r := range groups[g] {
			switch r.kind {
			case "histogram":
				fmt.Printf("  %-*s  %s\n", width, r.name, r.value)
			case "gauge":
				fmt.Printf("  %-*s  %s (gauge)\n", width, r.name, r.value)
			default:
				fmt.Printf("  %-*s  %s\n", width, r.name, r.value)
			}
		}
	}
}

// printRepl renders the replication view from a _whois tuple ([role,
// epoch, primary, primary_repl, segment, record, lease_remaining_ms,
// last_election_cause]) plus the repl.*, election.*, and lease.* series
// from _stats: a follower's upstream session and lag, a primary's
// subscribers and ship lag. A server with no data directory reports
// the standalone role and nothing else.
func printRepl(w []string, rows []row) {
	fmt.Printf("role: %s", w[0])
	if w[0] == "standalone" {
		fmt.Println()
		return
	}
	fmt.Printf(" (epoch %s)\n", w[1])
	m := make(map[string]int64)
	for _, r := range rows {
		if strings.HasPrefix(r.name, "repl.") || strings.HasPrefix(r.name, "election.") ||
			strings.HasPrefix(r.name, "lease.") {
			if v, err := strconv.ParseInt(r.value, 10, 64); err == nil {
				m[r.name] = v
			}
		}
	}
	if w[2] != "" {
		fmt.Printf("primary: %s (replication %s)\n", w[2], w[3])
	} else {
		fmt.Printf("primary: unknown\n")
	}
	fmt.Printf("position: segment %s record %s\n", w[4], w[5])
	held := "expired"
	if m["lease.held"] == 1 || w[0] == "replica" {
		held = "held"
	}
	fmt.Printf("lease: %s, %s ms remaining (%d renewals, %d expiries)\n",
		held, w[6], m["lease.renewals"], m["lease.expiries"])
	fmt.Printf("elections: %d run, %d won, %d aborted; %d role changes in 5m",
		m["election.count"], m["election.won"], m["election.aborted"], m["election.flaps"])
	if w[7] != "" {
		fmt.Printf("; last cause: %s", w[7])
	}
	fmt.Println()
	switch w[0] {
	case "primary":
		fmt.Printf("commits: %d gated on replication, %d gate failures\n",
			m["repl.commit.gated"], m["repl.commit.gatefail"])
		fmt.Printf("leases: %d sent, %d acked\n", m["lease.sent"], m["lease.acks"])
		fmt.Printf("replicas: %d connected, %d served, %d snapshots shipped\n",
			m["repl.primary.conns"], m["repl.primary.served"], m["repl.primary.snapshots"])
		fmt.Printf("sent: %d records, %d bytes\n",
			m["repl.primary.sent.records"], m["repl.primary.sent.bytes"])
		fmt.Printf("subscribers: %d tailing, worst ship lag %d records\n",
			m["repl.primary.subscribers"], m["repl.primary.shiplag.records"])
	case "replica":
		state := "disconnected"
		if m["repl.connected"] == 1 {
			state = "connected"
		}
		fmt.Printf("upstream: %s (%d reconnects, %d bootstraps)\n",
			state, m["repl.reconnects"], m["repl.bootstraps"])
		fmt.Printf("applied: %d records (%d skipped, %d failed)\n",
			m["repl.applied.records"], m["repl.skipped.records"], m["repl.failed.records"])
		fmt.Printf("head: segment %d record %d\n", m["repl.head.seg"], m["repl.head.idx"])
		fmt.Printf("lag: %d segments, %d records, %d bytes, %d seconds behind\n",
			m["repl.lag.segments"], m["repl.lag.records"], m["repl.lag.bytes"],
			m["repl.lag.seconds"])
	}
}

// printDCM renders the incremental-DCM view from the dcm.* series:
// cumulative pass modes, transfer savings and push forms,
// then a per-service table of the changed rows the last pass's snapshot
// diff found and its mode, from the dcm.delta.*.<service> gauges.
func printDCM(rows []row) {
	m := make(map[string]int64)
	type svcRow struct{ rows, mode int64 }
	services := make(map[string]*svcRow)
	var order []string
	svc := func(name string) *svcRow {
		s, ok := services[name]
		if !ok {
			s = &svcRow{}
			services[name] = s
			order = append(order, name)
		}
		return s
	}
	for _, r := range rows {
		if !strings.HasPrefix(r.name, "dcm.") && !strings.HasPrefix(r.name, "journal.") {
			continue
		}
		v, err := strconv.ParseInt(r.value, 10, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(r.name, "dcm.delta.rows."):
			svc(strings.TrimPrefix(r.name, "dcm.delta.rows.")).rows = v
		case strings.HasPrefix(r.name, "dcm.delta.lastmode."):
			svc(strings.TrimPrefix(r.name, "dcm.delta.lastmode.")).mode = v
		default:
			m[r.name] = v
		}
	}
	fmt.Printf("passes: %d total (%d full, %d delta, %d no-op; %d fallbacks to full)\n",
		m["dcm.passes"],
		m["dcm.delta.passes.full"], m["dcm.delta.passes.delta"], m["dcm.delta.passes.noop"],
		m["dcm.delta.fallbacks"])
	fmt.Printf("deltas: %d changed rows, %d keys recomputed\n",
		m["dcm.delta.records"], m["dcm.delta.keys"])
	pushed, skipped := m["dcm.bytes.pushed"], m["dcm.bytes.skipped"]
	pct := 0.0
	if pushed+skipped > 0 {
		pct = 100 * float64(skipped) / float64(pushed+skipped)
	}
	fmt.Printf("transfer: %d bytes pushed, %d bytes reused by agents (%.1f%% saved)\n",
		pushed, skipped, pct)
	fmt.Printf("pushes: %d as edits, %d whole; %d hosts diverged from the bundle last installed\n",
		m["dcm.pushes.edited"], m["dcm.pushes.whole"], m["dcm.hosts.divergent"])
	if hs, ok := m["journal.segment"]; ok {
		fmt.Printf("journal: head segment %d\n", hs)
	}
	if len(order) == 0 {
		fmt.Println("no service passes yet (no DCM pass has completed)")
		return
	}
	sort.Strings(order)
	modes := []string{"full", "delta", "no-op"}
	fmt.Printf("\n%-12s %8s %s\n", "service", "rows", "last-pass")
	for _, name := range order {
		s := services[name]
		mode := "?"
		if s.mode >= 0 && int(s.mode) < len(modes) {
			mode = modes[s.mode]
		}
		fmt.Printf("%-12s %8d %s\n", name, s.rows, mode)
	}
}

// watch polls `_stats` and prints, for each interval, the counters that
// moved and current gauge values.
func watch(c *client.Client, interval time.Duration, count int) {
	prev := map[string]int64{}
	first := true
	for n := 0; count == 0 || n < count; n++ {
		rows, err := fetch(c)
		if err != nil {
			log.Fatalf("moirastat: _stats: %v", err)
		}
		cur := map[string]int64{}
		var lines []string
		for _, r := range rows {
			if r.kind == "histogram" {
				continue
			}
			v, err := strconv.ParseInt(r.value, 10, 64)
			if err != nil {
				continue
			}
			cur[r.name] = v
			if r.kind == "gauge" {
				lines = append(lines, fmt.Sprintf("  %s = %d", r.name, v))
				continue
			}
			if d := v - prev[r.name]; !first && d != 0 {
				lines = append(lines, fmt.Sprintf("  %s +%d", r.name, d))
			}
		}
		if !first {
			fmt.Printf("-- %s --\n", time.Now().Format("15:04:05"))
			sort.Strings(lines)
			for _, l := range lines {
				fmt.Println(l)
			}
		}
		prev = cur
		first = false
		if count != 0 && n == count-1 {
			break
		}
		time.Sleep(interval)
	}
}

// spanRow is one `_spans` tuple.
type spanRow struct {
	trace, span, parent, process, name, detail, dur, status string
	start                                                   int64
}

// dumpSpans prints the span store's kept traces as indented trees, one
// per trace ID, children ordered by start time under their parents.
func dumpSpans(c *client.Client, id string) {
	var rows []spanRow
	err := c.Query("_spans", []string{id}, func(t []string) error {
		if len(t) != 9 {
			return nil
		}
		start, _ := strconv.ParseInt(t[6], 10, 64)
		rows = append(rows, spanRow{
			trace: t[0], span: t[1], parent: t[2], process: t[3],
			name: t[4], detail: t[5], dur: t[7], status: t[8], start: start,
		})
		return nil
	})
	if err == mrerr.MrNoMatch {
		fmt.Fprintf(os.Stderr, "moirastat: no kept traces match %q (the store tail-samples: slow and errored traces are always kept)\n", id)
		os.Exit(1)
	}
	if err != nil {
		log.Fatalf("moirastat: _spans: %v", err)
	}

	byTrace := make(map[string][]spanRow)
	var order []string
	for _, r := range rows {
		if _, ok := byTrace[r.trace]; !ok {
			order = append(order, r.trace)
		}
		byTrace[r.trace] = append(byTrace[r.trace], r)
	}
	for i, tid := range order {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("trace %s (%d spans):\n", tid, len(byTrace[tid]))
		printSpanTree(byTrace[tid])
	}
}

// printSpanTree indents children under parents; spans whose parent is
// not in the set (a remote parent from another process's store) print
// as roots.
func printSpanTree(rows []spanRow) {
	ids := make(map[string]bool, len(rows))
	for _, r := range rows {
		ids[r.span] = true
	}
	children := make(map[string][]spanRow)
	var roots []spanRow
	for _, r := range rows {
		if r.parent != "" && ids[r.parent] {
			children[r.parent] = append(children[r.parent], r)
		} else {
			roots = append(roots, r)
		}
	}
	byStart := func(s []spanRow) {
		sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	}
	byStart(roots)
	for _, s := range children {
		byStart(s)
	}
	var walk func(r spanRow, depth int)
	walk = func(r spanRow, depth int) {
		line := fmt.Sprintf("%s%s", strings.Repeat("  ", depth+1), r.name)
		if r.detail != "" {
			line += " [" + r.detail + "]"
		}
		line += fmt.Sprintf("  %s  (%s)", r.dur, r.process)
		if r.status != "0" {
			line += "  status=" + r.status
		}
		fmt.Println(line)
		for _, ch := range children[r.span] {
			walk(ch, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// checkHealth runs the in-band `_health` handle and prints each probe;
// the exit status is 1 when any probe fails, so it scripts as a
// readiness check over the RPC port.
func checkHealth(c *client.Client) {
	failed := false
	err := c.Query("_health", nil, func(t []string) error {
		if len(t) != 3 {
			return nil
		}
		state := "ok  "
		if t[1] != "1" {
			state = "FAIL"
			failed = true
		}
		fmt.Printf("%s  %-12s %s\n", state, t[0], t[2])
		return nil
	})
	if err != nil {
		log.Fatalf("moirastat: _health: %v", err)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "moirastat: not ready")
		os.Exit(1)
	}
	fmt.Println("ready")
}
