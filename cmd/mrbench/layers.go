package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"moira/internal/db"
	"moira/internal/gen"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
	"moira/internal/stats"
	"moira/internal/update"
)

// The per-layer side of the benchmark (-trace 1). The same seeded op
// stream runs; one op in spec.sample is wrapped in spans and then
// replayed, with its real handle, arguments and tuples, through each
// layer's public entry point. Spans live in memory and are written to
// mrbench-trace-<workload>.json when the run ends. Nothing under
// internal/ is instrumented: a layer's time is what the same call costs
// when the benchmark makes it, and its counts are deltas of series the
// program already exports.

// spanRec is one recorded span. Times are nanoseconds since the trace
// began; Parent 0 marks a root; spans of one op share Op. Reps > 1
// means the span covers that many back-to-back repetitions of a call
// too short to time singly.
type spanRec struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Reps   int    `json:"reps,omitempty"`
}

// maxSpans bounds the trace file; durations keep aggregating past it.
const maxSpans = 20000

// microReps is how many times a sub-microsecond call is repeated
// inside one span.
const microReps = 32

// baselineEvery makes every third batch of a -trace 1 run (the first
// included) run with spans, counters and replays off. Those batches give
// the client.* wall-clock figures, and trace.overhead_pct compares the
// other batches' median latency with theirs.
const baselineEvery = 3

// memcpyBytes is the size of the host.memcpy_gbps copy.
const memcpyBytes = 32 << 20

type openSpan struct {
	rec spanRec
	t0  time.Time
}

type layers struct {
	w      *world
	p      params
	t0     time.Time
	nextID int32
	spans  []spanRec
	dur    map[string][]float64 // span durations by name, µs per repetition

	cx       *queries.Context // what a server connection's context looks like
	buf      bytes.Buffer
	br       *bufio.Reader
	fr       *protocol.FrameReader
	scratchJ *db.JournalWriter
	services []string                // the keyed generators' services, sorted
	render   map[string]*gen.Scratch // their bundle buffers, one each

	reg0 *stats.Snapshot

	// Run totals.
	tracedOps, sampledReads                  int64
	point, rng, scan, rebuilds               int64
	tuples, replyBytes                       int64
	passes                                   int64
	records, keys, fallbacks, hosts, retries int64
	genBytes, genFiles, pushedBytes, reusedB int64
	tracedLat, readLat, writeLat, raw        []float64 // µs

	// Between-batch gauges.
	echo                       *echoServer
	cpySrc, cpyDst             []byte
	rtt, gbps, dialAuth, fsLbl []float64
}

func newLayers(w *world, p params) (*layers, error) {
	l := &layers{w: w, p: p, t0: time.Now(), dur: map[string][]float64{}, render: map[string]*gen.Scratch{}}
	l.br = bufio.NewReader(&l.buf)
	l.fr = protocol.NewFrameReader(l.br)
	for name := range gen.Incrementals {
		l.services = append(l.services, name)
		l.render[name] = gen.NewScratch()
	}
	sort.Strings(l.services)
	if !w.sp.pass {
		l.cx = &queries.Context{DB: w.sys.DB, Principal: benchLogin, App: "mrbench"}
		l.cx.ResolveUser()
		l.cx.EnableAccessCache()
	}
	if w.sp.journal {
		// Same policy as the live journal (core.Boot's default,
		// SyncEveryCommit), never the live journal itself.
		dir, err := os.MkdirTemp("", "mrbench-scratch-journal-*")
		if err != nil {
			return nil, err
		}
		if l.scratchJ, err = db.OpenJournalWriter(dir, db.JournalOptions{}); err != nil {
			return nil, err
		}
	}
	var err error
	if l.echo, err = startEcho(); err != nil {
		return nil, err
	}
	l.cpySrc, l.cpyDst = make([]byte, memcpyBytes), make([]byte, memcpyBytes)
	for i := range l.cpySrc {
		l.cpySrc[i] = byte(i)
	}
	copy(l.cpyDst, l.cpySrc)
	l.reg0 = w.sys.Registry.Snapshot()
	return l, nil
}

func (l *layers) close() {
	l.echo.stop()
	if l.scratchJ != nil {
		l.scratchJ.Close()
	}
}

func (l *layers) begin(name string, op int64, parent int32) openSpan {
	l.nextID++
	now := time.Now()
	return openSpan{spanRec{Name: name, Op: op, ID: l.nextID, Parent: parent, Start: now.Sub(l.t0).Nanoseconds()}, now}
}

func (l *layers) end(s openSpan) time.Duration { return l.endReps(s, 1) }

func (l *layers) endReps(s openSpan, reps int) time.Duration {
	d := time.Since(s.t0)
	s.rec.End = s.rec.Start + d.Nanoseconds()
	if reps > 1 {
		s.rec.Reps = reps
	}
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s.rec)
	}
	l.dur[s.rec.Name] = append(l.dur[s.rec.Name], float64(d.Nanoseconds())/1e3/float64(reps))
	return d
}

// callSpan names the span around the real call. Only plain reads are
// "client.rpc", the span the request-path breakdown is taken against: a
// write's time is the journal's, and the read after a write pays the
// snapshot rebuild, which db.reader_rebuild_ms accounts for.
var callSpan = [...]string{
	opRead:           "client.rpc",
	opReadAfterWrite: "client.rpc_rebuild",
	opWrite:          "client.rpc_write",
	opPass:           "dcm.pass",
}

// timedOp runs one op of a traced batch and returns its latency. The
// db counters are read around the real call only, so the replays below
// never leak into the per-op counts.
func (l *layers) timedOp(o *op, idx int64) (time.Duration, error) {
	d0 := l.w.sys.DB
	p0, r0, s0 := d0.LookupStats()
	_, b0 := d0.SnapshotStats()
	var (
		d    time.Duration
		err  error
		root openSpan
	)
	sampled := idx%int64(l.w.sp.sample) == 0
	if sampled {
		root = l.begin("op", idx, 0)
		call := l.begin(callSpan[o.class], idx, root.rec.ID)
		err = l.w.exec(o)
		d = l.end(call)
	} else {
		t := time.Now()
		err = l.w.exec(o)
		d = time.Since(t)
	}
	p1, r1, s1 := d0.LookupStats()
	_, b1 := d0.SnapshotStats()
	l.point, l.rng, l.scan, l.rebuilds = l.point+p1-p0, l.rng+r1-r0, l.scan+s1-s0, l.rebuilds+b1-b0
	l.tracedOps++
	l.tracedLat = append(l.tracedLat, us(d))
	switch o.class {
	case opRead:
		l.readLat = append(l.readLat, us(d))
	case opReadAfterWrite:
		l.raw = append(l.raw, us(d))
	case opWrite:
		l.writeLat = append(l.writeLat, us(d))
	}
	l.notePass()
	if sampled && err == nil {
		if rerr := l.replay(o, idx, root.rec.ID); rerr != nil {
			err = fmt.Errorf("replay: %w", rerr)
		}
		l.end(root)
	}
	return d, err
}

// notePass folds the pass that just ran into the change-path totals.
func (l *layers) notePass() {
	st := l.w.lastPass
	if st == nil {
		return
	}
	l.w.lastPass = nil
	l.passes++
	l.records += int64(st.DeltaRecords)
	l.keys += int64(st.DeltaKeys)
	l.fallbacks += int64(st.Fallbacks)
	l.hosts += int64(st.HostsUpdated)
	l.retries += int64(st.Retries)
	l.genBytes += int64(st.BytesGenerated)
	l.genFiles += int64(st.FilesGenerated)
	l.pushedBytes += int64(st.BytesPushed)
	l.reusedB += int64(st.BytesSkipped)
}

// replay walks a sampled op's inputs and outputs through the layers
// below the call that was just timed, one span per layer.
func (l *layers) replay(o *op, idx int64, parent int32) error {
	switch o.class {
	case opPass:
		return l.replayPass(idx, parent)
	case opWrite:
		// Replaying the mutation would change the database; time only
		// what it costs to make it durable, on a scratch journal.
		return l.journalAppend(idx, parent, o)
	case opReadAfterWrite:
		return nil
	}
	s := l.begin("client.noop", idx, parent)
	if err := l.w.c.Noop(); err != nil {
		return err
	}
	l.end(s)

	// The request as the client frames it and the server parses it.
	req := &protocol.Request{Version: protocol.Version, Op: protocol.OpQuery,
		Args: protocol.BytesArgs(append([]string{o.query}, o.args...))}
	l.buf.Reset()
	s = l.begin("protocol.req_encode", idx, parent)
	if err := protocol.WriteRequest(&l.buf, req); err != nil {
		return err
	}
	l.end(s)
	l.br.Reset(&l.buf)
	s = l.begin("protocol.req_decode", idx, parent)
	if _, err := l.fr.ReadRequest(); err != nil {
		return err
	}
	l.end(s)

	s = l.begin("queries.access", idx, parent)
	if err := queries.CheckAccess(l.cx, o.query, o.args); err != nil {
		return err
	}
	l.end(s)
	var tuples [][]string
	s = l.begin("queries.exec", idx, parent)
	err := queries.Execute(l.cx, o.query, o.args, func(t []string) error {
		tuples = append(tuples, t)
		return nil
	})
	if err != nil {
		return err
	}
	l.end(s)
	if len(tuples) != o.want {
		return fmt.Errorf("%s: direct execution gave %d tuples, the wire %d", o.query, len(tuples), o.want)
	}

	var rd *db.DB
	s = l.begin("db.reader", idx, parent)
	for i := 0; i < microReps; i++ {
		rd = l.w.sys.DB.Reader()
	}
	l.endReps(s, microReps)
	login := l.w.facts.users[int(idx)%len(l.w.facts.users)].login
	s = l.begin("db.lookup", idx, parent)
	for i := 0; i < microReps; i++ {
		if _, ok := rd.UserByLogin(login); !ok {
			return fmt.Errorf("db.lookup: %s missing from the snapshot", login)
		}
	}
	l.endReps(s, microReps)

	// The reply as the server streams it — one MR_MORE_DATA frame per
	// tuple, then the final code — and as the client reads it back.
	l.buf.Reset()
	s = l.begin("protocol.reply_encode", idx, parent)
	for _, t := range tuples {
		rep := &protocol.Reply{Version: protocol.Version, Code: int32(mrerr.MrMoreData), Fields: protocol.BytesArgs(t)}
		if err := protocol.WriteReply(&l.buf, rep); err != nil {
			return err
		}
	}
	if err := protocol.WriteReply(&l.buf, &protocol.Reply{Version: protocol.Version}); err != nil {
		return err
	}
	l.end(s)
	l.sampledReads++
	l.tuples += int64(len(tuples))
	l.replyBytes += int64(l.buf.Len())
	l.br.Reset(&l.buf)
	s = l.begin("protocol.reply_decode", idx, parent)
	for {
		rep, err := protocol.ReadReply(l.br)
		if err != nil {
			return err
		}
		if rep.Code != int32(mrerr.MrMoreData) {
			break
		}
		_ = rep.StringFields()
	}
	l.end(s)
	return nil
}

func (l *layers) journalAppend(idx int64, parent int32, o *op) error {
	line := fmt.Sprintf("%d %s mrbench - %s %s\n", time.Now().Unix(), benchLogin, o.query, strings.Join(o.args, " "))
	s := l.begin("db.journal_append", idx, parent)
	if _, err := l.scratchJ.Write([]byte(line)); err != nil {
		return err
	}
	l.end(s)
	return nil
}

// replayPass re-renders the bundles the pass just produced from the
// planner's cached models and re-cuts them into chunks: the two pieces
// of a pass the DCM's own spans do not separate.
func (l *layers) replayPass(idx int64, parent int32) error {
	planner := l.w.sys.DCM.Planner()
	var results []*gen.Result
	s := l.begin("gen.render", idx, parent)
	for _, name := range l.services {
		m := planner.Model(name)
		if m == nil {
			continue
		}
		r, err := gen.FromModelInto(m, l.render[name])
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	l.end(s)
	s = l.begin("update.split_chunks", idx, parent)
	for _, r := range results {
		update.SplitChunks(r.Common)
		for _, b := range r.PerHost {
			update.SplitChunks(b)
		}
	}
	l.end(s)
	return l.journalAppend(idx, parent, &op{query: "update_user_shell", args: []string{"churn", "/bin/sh"}})
}

// betweenBatches takes the gauges that run outside the op stream.
func (l *layers) betweenBatches() {
	if rtt, err := l.echo.rtt(); err == nil {
		l.rtt = append(l.rtt, rtt)
	}
	t := time.Now()
	copy(l.cpyDst, l.cpySrc)
	l.gbps = append(l.gbps, memcpyBytes/time.Since(t).Seconds()/1e9)
	if l.w.sp.pass {
		return
	}
	t = time.Now()
	if c, err := l.w.sys.ClientAs(benchLogin, benchPassword, "mrbench"); err == nil {
		l.dialAuth = append(l.dialAuth, us(time.Since(t)))
		c.Disconnect()
	}
	// get_filesys_by_label walks the whole filesys relation; it is kept
	// out of the op stream (see the README) and gauged here.
	login := l.w.facts.users[len(l.fsLbl)%len(l.w.facts.users)].login
	t = time.Now()
	if err := l.w.c.Query("get_filesys_by_label", []string{login}, nil); err == nil {
		l.fsLbl = append(l.fsLbl, us(time.Since(t)))
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics assembles the per-layer metrics that follow the client.*
// timing figures, zero where a layer takes no part in the workload, and
// writes the trace file.
func (l *layers) metrics(timing []metric) []metric {
	reg := l.w.sys.Registry.Snapshot().Delta(l.reg0)
	// Span times are means, not medians: the workloads mix cheap and
	// dear ops, and only means add up — rpc = exec + codec + residual
	// holds for the printed figures, and 1/client.ops_per_s is a mean too.
	avg := func(name string) float64 { return mean(l.dur[name]) }
	histMS := func(name string, per int64) float64 {
		return ratio(float64(reg.Histograms[name].Sum.Nanoseconds())/1e6, float64(per))
	}
	tops := float64(l.tracedOps)
	reads, passes := float64(l.sampledReads), float64(l.passes)

	rpc := avg("client.rpc")
	proto := avg("protocol.req_encode") + avg("protocol.req_decode") + avg("protocol.reply_encode") + avg("protocol.reply_decode")
	residual := 0.0
	if rpc > 0 {
		residual = rpc - avg("queries.exec") - proto
	}
	base, traced := timing[1].value, median(l.tracedLat) // client.op_p50_us
	chunksReused := float64(reg.Counters["update.chunks.reused"])
	chunksPushed := float64(reg.Counters["update.chunks.pushed"])
	jAppends := float64(reg.Counters["journal.appends"])

	if err := l.writeTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "mrbench: trace file:", err)
	}
	return []metric{
		{"host.echo_rtt_us", median(l.rtt), "us"},
		{"host.memcpy_gbps", median(l.gbps), "GB/s"},

		{"client.rpc_us", rpc, "us"},
		{"client.noop_us", avg("client.noop"), "us"},
		{"client.dial_auth_us", median(l.dialAuth), "us"},
		{"client.read_p50_us", median(l.readLat), "us"},
		{"client.write_p50_us", median(l.writeLat), "us"},
		{"client.read_after_write_ms", median(l.raw) / 1e3, "ms"},
		{"client.filesys_by_label_us", median(l.fsLbl), "us"},

		{"protocol.req_encode_us", avg("protocol.req_encode"), "us"},
		{"protocol.req_decode_us", avg("protocol.req_decode"), "us"},
		{"protocol.reply_encode_us", avg("protocol.reply_encode"), "us"},
		{"protocol.reply_decode_us", avg("protocol.reply_decode"), "us"},
		{"protocol.reply_bytes_per_op", ratio(float64(l.replyBytes), reads), "B"},
		{"protocol.tuples_per_op", ratio(float64(l.tuples), reads), "count"},

		{"queries.exec_us", avg("queries.exec"), "us"},
		{"queries.access_us", avg("queries.access"), "us"},

		{"server.residual_us", residual, "us"},
		{"server.residual_share", ratio(residual, rpc), "ratio"},

		{"db.reader_us", avg("db.reader"), "us"},
		{"db.reader_rebuild_ms", histMS("snap.freeze.duration", reg.Counters["snap.rebuilds"]), "ms"},
		{"db.snap_rebuilds_per_op", ratio(float64(l.rebuilds), tops), "count"},
		{"db.lookup_ns", avg("db.lookup") * 1e3, "ns"},
		{"db.lookups_point_per_op", ratio(float64(l.point), tops), "count"},
		{"db.lookups_range_per_op", ratio(float64(l.rng), tops), "count"},
		{"db.lookups_scan_per_op", ratio(float64(l.scan), tops), "count"},
		{"db.journal_append_us", avg("db.journal_append"), "us"},
		{"db.journal_bytes_per_write", ratio(float64(reg.Counters["journal.bytes"]), jAppends), "B"},
		{"db.journal_syncs_per_write", ratio(float64(reg.Counters["journal.syncs"]), jAppends), "count"},

		{"dcm.pass_ms", avg("dcm.pass") / 1e3, "ms"},
		{"dcm.plan_ms_per_pass", histMS("span.dcm.plan", l.passes), "ms"},
		{"dcm.push_ms_per_pass", histMS("span.dcm.push", l.passes), "ms"},
		{"dcm.push_p50_ms", histP50MS(reg.Histograms["dcm.push.latency"]), "ms"},
		{"dcm.delta_records_per_pass", ratio(float64(l.records), passes), "count"},
		{"dcm.delta_keys_per_pass", ratio(float64(l.keys), passes), "count"},
		{"dcm.fallbacks_per_pass", ratio(float64(l.fallbacks), passes), "count"},
		{"dcm.hosts_updated_per_pass", ratio(float64(l.hosts), passes), "count"},
		{"dcm.retries_per_pass", ratio(float64(l.retries), passes), "count"},

		{"gen.render_ms", avg("gen.render") / 1e3, "ms"},
		{"gen.bytes_generated_per_pass", ratio(float64(l.genBytes), passes), "B"},
		{"gen.files_generated_per_pass", ratio(float64(l.genFiles), passes), "count"},

		{"update.install_ms_per_pass", histMS("span.agent.install", l.passes), "ms"},
		{"update.split_chunks_ms", avg("update.split_chunks") / 1e3, "ms"},
		{"update.bytes_pushed_per_pass", ratio(float64(l.pushedBytes), passes), "B"},
		{"update.bytes_reused_per_pass", ratio(float64(l.reusedB), passes), "B"},
		{"update.chunks_reused_ratio", ratio(chunksReused, chunksReused+chunksPushed), "ratio"},

		{"trace.overhead_pct", 100 * ratio(traced-base, base), "%"},
	}
}

// histP50MS interpolates the median of a bucketed duration histogram,
// in milliseconds.
func histP50MS(h stats.HistogramSnapshot) float64 {
	if h.N == 0 {
		return 0
	}
	half, seen := float64(h.N)/2, 0.0
	lo := time.Duration(0)
	for i, c := range h.Counts {
		hi := h.Max
		if i < len(h.Buckets) {
			hi = h.Buckets[i]
		}
		if c > 0 && seen+float64(c) >= half {
			return (float64(lo) + (float64(hi)-float64(lo))*(half-seen)/float64(c)) / 1e6
		}
		seen += float64(c)
		lo = hi
	}
	return float64(h.Max) / 1e6
}

func (l *layers) writeTrace() error {
	out := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Sample   int       `json:"sample_one_in"`
		Dropped  int       `json:"spans_beyond_cap"`
		Spans    []spanRec `json:"spans"`
	}{l.w.sp.name, l.p.seed, l.w.sp.sample, int(l.nextID) - len(l.spans), l.spans}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(l.p.outDir, "mrbench-trace-"+l.w.sp.name+".json"), data, 0o644)
}

// echoServer is the stdlib-only loopback echo behind host.echo_rtt_us:
// what one small TCP round trip costs on this machine right now, with
// no Moira code on the path.
type echoServer struct {
	ln   net.Listener
	conn net.Conn
	wg   sync.WaitGroup
}

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	if e.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		e.wg.Wait()
		return nil, err
	}
	return e, nil
}

// rtt is the median of 200 64-byte round trips, in microseconds.
func (e *echoServer) rtt() (float64, error) {
	var msg [64]byte
	samples := make([]float64, 0, 200)
	for i := 0; i < cap(samples); i++ {
		t := time.Now()
		if _, err := e.conn.Write(msg[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(e.conn, msg[:]); err != nil {
			return 0, err
		}
		samples = append(samples, us(time.Since(t)))
	}
	return median(samples), nil
}

func (e *echoServer) stop() {
	e.conn.Close()
	e.ln.Close()
	e.wg.Wait()
}
