// Package trace is the span layer of the observability stack:
// hierarchical, timed spans with parent/child links that show *where* a
// request's time went, not just that it happened (the flat trace-ID
// ring's limit). A span covers one phase of work — a server request, an
// auth check, a journal append, a DCM host push — and carries its trace
// ID, its own span ID, its parent's span ID, a start time, and a
// duration.
//
// Spans cross process boundaries on the protocol's trace-ID field,
// carried as "traceID/spanID" (see Wire/Split): the callee splits the
// field, keeps the bare trace ID for journaling and logs, and parents
// its own spans on the caller's span ID.
//
// Completed spans collect in a bounded in-memory store with tail-based
// sampling: the keep decision is made when a trace's root span ends, so
// slow and errored traces are always kept (they are the ones an
// operator needs) while ordinary traces are down-sampled 1-in-N. Slow
// roots additionally count in the `trace.slowops` stat — the
// threshold-configurable slow-op log.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moira/internal/stats"
)

// Defaults for Options fields left zero.
const (
	DefaultSlow     = 100 * time.Millisecond
	DefaultSampleN  = 16  // keep 1 in N ordinary (fast, successful) traces
	DefaultCapacity = 256 // completed traces retained
	maxSpansPerRoot = 512 // runaway instrumentation guard
)

// Options configures a Tracer.
type Options struct {
	// Process names the process for span records ("moirad", "replica",
	// "dcm"); purely informational.
	Process string

	// Slow is the root-span duration at or above which a trace is always
	// kept and counted in trace.slowops. Zero means DefaultSlow;
	// negative means every trace is slow (keep all — tests use this).
	Slow time.Duration

	// SampleN keeps 1 in SampleN ordinary traces (fast and error-free).
	// Zero means DefaultSampleN; 1 keeps everything.
	SampleN int

	// Capacity bounds the number of completed traces retained. Zero
	// means DefaultCapacity.
	Capacity int

	// Stats, when set, receives span-derived series: per-phase duration
	// histograms (span.<name>) and the trace.* counters.
	Stats *stats.Registry
}

// SpanRecord is one completed span as plain copyable data.
type SpanRecord struct {
	TraceID  string
	SpanID   string
	Parent   string // parent span ID; "" for a root
	Name     string // phase name, e.g. "server.request"
	Detail   string // optional: handle, host, service...
	Process  string
	Start    time.Time
	Duration time.Duration
	Code     int32 // 0 = success

	// Lazy-ID plumbing: span IDs are strings of the numeric sequence
	// (spanIDString is pure), so the string forms are minted only when
	// a span ID crosses the wire or its trace is kept — the common
	// sampled-out request never pays the formatting allocations.
	idNum     uint64
	parentNum uint64 // 0 when the parent is remote (Parent string set) or absent

	// Lazy detail: when detailPre is set, the published Detail is
	// "detailPre Detail" (or detailPre alone if Detail is empty),
	// joined only for kept traces — same reasoning as the lazy IDs.
	detailPre string
}

// TraceRecord is one kept trace: a root span and its local descendants,
// in end order (children before their parent, since a parent ends last).
type TraceRecord struct {
	TraceID string
	Spans   []SpanRecord

	lazy bool // string IDs and details not yet minted (see materialize)
}

// Root returns the trace's root span record.
func (t *TraceRecord) Root() SpanRecord {
	return t.Spans[len(t.Spans)-1]
}

// Span is one in-progress phase. Create roots with Tracer.Start and
// children with Span.Child; finish with End or EndCode. A nil *Span is
// inert: every method no-ops, so instrumentation never needs nil
// checks. Detail and code are set by the goroutine running the phase;
// a Span must not be shared across goroutines without the caller's own
// synchronization, nor used once its root has ended: the root's state,
// spans included, is recycled for later roots.
type Span struct {
	tr     *Tracer
	root   *rootState
	rec    SpanRecord
	parent *Span
}

// rootState accumulates the finished spans of one root's tree and the
// keep signals for the tail-based sampling decision. States are pooled:
// most traces are sampled out, and allocating the record buffer anew
// for every request is the dominant tracing cost. The inline array
// covers the common request shape without a second allocation; open
// counts live spans so a state is only recycled once its whole tree has
// ended (spans must not be created under a root that already ended).
type rootState struct {
	mu     sync.Mutex
	done   []SpanRecord
	errors bool
	open   atomic.Int32
	arr    [8]SpanRecord

	// Span structs come from this inline arena too (overflow falls back
	// to the heap), so a pooled-and-recycled state carries its request's
	// whole span tree with zero steady-state allocation.
	nalloc atomic.Int32
	arena  [4]Span

	// Root-owned fast lane: Span.Record on the root span — the server's
	// per-request phase records, several per request — writes here with
	// no lock at all. Safe because a Span's methods are single-goroutine
	// by contract and finish runs on that same goroutine, after the
	// records; only cross-goroutine children need mu and done above.
	ownN      int32
	ownErrors bool
	own       [4]SpanRecord
	idNext    uint64 // next pre-reserved span ID for the fast lane
}

var rootPool = sync.Pool{New: func() any { return new(rootState) }}

func newRootState() *rootState {
	r := rootPool.Get().(*rootState)
	r.done = r.arr[:0]
	r.errors = false
	r.open.Store(1)
	r.nalloc.Store(0)
	r.ownN = 0
	r.ownErrors = false
	return r
}

func (r *rootState) allocSpan() *Span {
	if n := r.nalloc.Add(1); int(n) <= len(r.arena) {
		return &r.arena[n-1]
	}
	return new(Span)
}

// Tracer mints spans and retains completed traces. A nil *Tracer is
// inert (Start returns a nil Span), so tracing can be compiled in
// unconditionally and enabled by wiring.
type Tracer struct {
	opt     Options
	reg     *stats.Registry
	sampleC atomic.Uint64 // counts sampling candidates for the 1-in-N keep

	// The per-span stats are on the request hot path; going through the
	// registry's locked name map (plus the "span."+name concat) for
	// every span costs more than the span itself, so the handles are
	// cached here: the counter once, the histograms per distinct name
	// (a small, quickly-stable set).
	spanCount  *stats.Counter
	sampledOut *stats.Counter
	kept       *stats.Counter
	slowOps    *stats.Counter
	erroredC   *stats.Counter
	hists      atomic.Pointer[map[string]*stats.Histogram] // copy-on-write, span name -> histogram
	histsMu    sync.Mutex                                  // serializes hists writers

	mu     sync.Mutex
	ring   []*TraceRecord // completed kept traces, oldest first
	start  int            // ring head
	filled int
}

// New creates a Tracer.
func New(opt Options) *Tracer {
	if opt.Slow == 0 {
		opt.Slow = DefaultSlow
	}
	if opt.SampleN <= 0 {
		opt.SampleN = DefaultSampleN
	}
	if opt.Capacity <= 0 {
		opt.Capacity = DefaultCapacity
	}
	t := &Tracer{
		opt:  opt,
		reg:  opt.Stats,
		ring: make([]*TraceRecord, opt.Capacity),
	}
	empty := map[string]*stats.Histogram{}
	t.hists.Store(&empty)
	if opt.Stats != nil {
		t.spanCount = opt.Stats.Counter("trace.spans")
		t.sampledOut = opt.Stats.Counter("trace.sampled.out")
		t.kept = opt.Stats.Counter("trace.kept")
		t.slowOps = opt.Stats.Counter("trace.slowops")
		t.erroredC = opt.Stats.Counter("trace.errored")
	}
	return t
}

// SlowThreshold reports the configured slow-trace threshold.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.opt.Slow
}

// Start begins a root span. traceID may be empty (a fresh one is
// minted) and parent may carry the remote caller's
// span ID from the wire field, linking this tree under the caller's.
func (t *Tracer) Start(traceID, parent, name string) *Span {
	return t.StartAt(traceID, parent, name, time.Now())
}

// StartAt is Start with a caller-supplied start time, for callers that
// already read the clock (the server stamps the request's first read).
func (t *Tracer) StartAt(traceID, parent, name string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	if traceID == "" {
		traceID = NewTraceID()
	}
	r := newRootState()
	// One global-atomic op reserves IDs for the root and every fast-lane
	// record it might make, instead of one op per span.
	base := spanSeq.Add(1 + uint64(len(r.own)))
	rootID := base - uint64(len(r.own))
	r.idNext = rootID + 1
	sp := r.allocSpan()
	*sp = Span{
		tr:   t,
		root: r,
		rec: SpanRecord{
			TraceID: traceID,
			Parent:  parent,
			Name:    name,
			Process: t.opt.Process,
			Start:   start,
			idNum:   rootID,
		},
	}
	return sp
}

// Child begins a sub-span of sp.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	sp.root.open.Add(1)
	c := sp.root.allocSpan()
	*c = Span{
		tr:     sp.tr,
		root:   sp.root,
		parent: sp,
		rec: SpanRecord{
			TraceID:   sp.rec.TraceID,
			Name:      name,
			Process:   sp.rec.Process,
			Start:     time.Now(),
			idNum:     spanSeq.Add(1),
			parentNum: sp.rec.idNum,
		},
	}
	return c
}

// TraceID returns the span's trace ID ("" on a nil span).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.rec.TraceID
}

// SpanID returns the span's own ID ("" on a nil span). Asking for the
// ID mints its string form — done only for spans whose ID crosses the
// wire; spanIDString is pure, so the kept-trace records stringify to
// the same value.
func (sp *Span) SpanID() string {
	if sp == nil {
		return ""
	}
	if sp.rec.SpanID == "" {
		sp.rec.SpanID = spanIDString(sp.rec.idNum)
	}
	return sp.rec.SpanID
}

// SetDetail attaches a free-form detail string (query handle, host
// name) to the span.
func (sp *Span) SetDetail(d string) {
	if sp != nil {
		sp.rec.Detail = d
	}
}

// SetDetailParts sets the detail as "pre suf" (or pre alone while suf
// is empty) without concatenating: the join happens only if the trace
// is kept, so the hot path never allocates the combined string.
func (sp *Span) SetDetailParts(pre, suf string) {
	if sp != nil {
		sp.rec.detailPre = pre
		sp.rec.Detail = suf
	}
}

// Record adds an already-measured child phase: a phase whose timing was
// taken before the span tree existed (the request read) or measured
// with bare clock calls. code follows End's convention.
func (sp *Span) Record(name string, start time.Time, d time.Duration, code int32) {
	if sp == nil {
		return
	}
	sp.tr.observe(name, d)
	r := sp.root
	if sp.parent == nil && int(r.ownN) < len(r.own) {
		// Root fast lane: no lock (see rootState.own), pre-reserved span
		// ID. The slot may be dirty from pool reuse, so every field is
		// set.
		rec := &r.own[r.ownN]
		r.ownN++
		id := r.idNext
		r.idNext++
		fillRecord(rec, sp, id, name, start, d, code)
		if code != 0 {
			r.ownErrors = true
		}
		return
	}
	r.mu.Lock()
	if code != 0 {
		r.errors = true
	}
	if n := len(r.done); n < maxSpansPerRoot {
		if n < cap(r.done) {
			r.done = r.done[:n+1]
		} else {
			r.done = append(r.done, SpanRecord{})
		}
		fillRecord(&r.done[n], sp, spanSeq.Add(1), name, start, d, code)
	}
	r.mu.Unlock()
}

// fillRecord populates a possibly-dirty record slot in place, avoiding
// a stack-temporary copy; every field is assigned.
func fillRecord(rec *SpanRecord, sp *Span, id uint64, name string, start time.Time, d time.Duration, code int32) {
	rec.TraceID = sp.rec.TraceID
	rec.SpanID = ""
	rec.Parent = ""
	rec.Name = name
	rec.Detail = ""
	rec.Process = sp.rec.Process
	rec.Start = start
	rec.Duration = d
	rec.Code = code
	rec.idNum = id
	rec.parentNum = sp.rec.idNum
	rec.detailPre = ""
}

// End finishes the span successfully.
func (sp *Span) End() { sp.EndCode(0) }

// EndCode finishes the span with a result code; non-zero marks the
// trace errored, which forces retention. Ending the root decides the
// trace's fate (tail-based sampling) and publishes it to the store.
func (sp *Span) EndCode(code int32) { sp.endAt(code, time.Now()) }

// EndCodeAt is EndCode with a caller-supplied end time, for callers
// whose phase measurements already bracket the span's end — the root's
// duration then costs no extra clock read.
func (sp *Span) EndCodeAt(code int32, end time.Time) { sp.endAt(code, end) }

func (sp *Span) endAt(code int32, end time.Time) {
	if sp == nil {
		return
	}
	sp.rec.Duration = end.Sub(sp.rec.Start)
	sp.rec.Code = code
	sp.tr.observe(sp.rec.Name, sp.rec.Duration)

	r := sp.root
	if sp.parent == nil {
		// The root's own record is not appended to done: it lives in
		// sp.rec (root-owned memory) and finish folds it in last. Any
		// straggler children racing this still append under mu.
		if code != 0 {
			r.ownErrors = true
		}
		r.open.Add(-1)
		sp.tr.finish(sp, r)
		return
	}
	r.mu.Lock()
	if code != 0 {
		r.errors = true
	}
	if len(r.done) < maxSpansPerRoot {
		r.done = append(r.done, sp.rec)
	}
	r.mu.Unlock()
	r.open.Add(-1)
}

// observe feeds the span-derived phase histogram.
func (t *Tracer) observe(name string, d time.Duration) {
	if t.reg == nil {
		return
	}
	if h, ok := (*t.hists.Load())[name]; ok {
		h.Observe(d)
		return
	}
	h := t.reg.HistogramWith("span."+name, stats.FastBuckets)
	t.histsMu.Lock()
	old := *t.hists.Load()
	m := make(map[string]*stats.Histogram, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[name] = h
	t.hists.Store(&m)
	t.histsMu.Unlock()
	h.Observe(d)
}

// finish makes the tail-based keep decision for a completed root.
func (t *Tracer) finish(root *Span, r *rootState) {
	r.mu.Lock()
	spans := r.done
	r.done = nil
	errored := r.errors
	r.mu.Unlock()
	errored = errored || r.ownErrors
	// One batched add instead of a counter bump per span; +1 is the
	// root itself, which lives in root.rec rather than a buffer.
	t.spanCount.Add(int64(len(spans)) + int64(r.ownN) + 1)

	slow := root.rec.Duration >= t.opt.Slow || t.opt.Slow < 0
	keep := errored || slow
	if slow {
		t.slowOps.Inc()
	}
	if errored {
		t.erroredC.Inc()
	}
	if !keep {
		// Ordinary trace: keep 1 in SampleN.
		keep = t.sampleC.Add(1)%uint64(t.opt.SampleN) == 0
	}
	if keep {
		t.kept.Inc()
		t.publish(root, r, spans)
	} else {
		t.sampledOut.Inc()
	}
	// The whole tree has ended (open hit zero when the root did), and a
	// kept tree was copied out by publish, so the state can be recycled.
	// Its arena spans are cleared first: a pooled state that kept its
	// last request's tracer would keep that tracer's registry reachable,
	// and through the registry's callbacks a closed server's database.
	if r.open.Load() == 0 {
		clear(r.arena[:min(int(r.nalloc.Load()), len(r.arena))])
		rootPool.Put(r)
	}
}

// publish copies a kept tree out of its root state into the ring.
func (t *Tracer) publish(root *Span, r *rootState, spans []SpanRecord) {
	// Assemble the published tree: children (done) first, then the
	// root's fast-lane records, then the root itself — Root() relies on
	// the root being last, and children-before-parent holds because
	// every child in done ended before the root did.
	n := int(r.ownN)
	merged := make([]SpanRecord, 0, len(spans)+n+1)
	merged = append(merged, spans...)
	merged = append(merged, r.own[:n]...)
	merged = append(merged, root.rec)
	// The string IDs and joined details are minted when the ring is
	// read (Traces), not here: most kept traces are evicted unread, and
	// keeping one is then two allocations instead of one per string.
	tr := &TraceRecord{TraceID: root.rec.TraceID, Spans: merged, lazy: true}
	t.mu.Lock()
	i := (t.start + t.filled) % len(t.ring)
	if t.filled == len(t.ring) {
		t.start = (t.start + 1) % len(t.ring) // evict oldest
		i = (t.start + t.filled - 1) % len(t.ring)
	} else {
		t.filled++
	}
	t.ring[i] = tr
	t.mu.Unlock()
}

// Traces returns the kept traces, oldest first.
func (t *Tracer) Traces() []*TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*TraceRecord, 0, t.filled)
	for i := 0; i < t.filled; i++ {
		tr := t.ring[(t.start+i)%len(t.ring)]
		tr.materialize()
		out = append(out, tr)
	}
	return out
}

// materialize mints the string IDs and joined details a kept trace
// deferred (see finish). It runs under Tracer.mu, before the record
// first leaves the ring, so readers only ever see the finished form.
func (tr *TraceRecord) materialize() {
	if !tr.lazy {
		return
	}
	spans := tr.Spans
	for i := range spans {
		if spans[i].SpanID == "" {
			spans[i].SpanID = spanIDString(spans[i].idNum)
		}
		if spans[i].Parent == "" && spans[i].parentNum != 0 {
			spans[i].Parent = spanIDString(spans[i].parentNum)
		}
		if pre := spans[i].detailPre; pre != "" {
			if spans[i].Detail == "" {
				spans[i].Detail = pre
			} else {
				spans[i].Detail = pre + " " + spans[i].Detail
			}
			spans[i].detailPre = ""
		}
	}
	tr.lazy = false
}

// Find returns the kept traces with the given trace ID, oldest first
// (one trace ID can root several trees: retries, fan-out).
func (t *Tracer) Find(traceID string) []*TraceRecord {
	var out []*TraceRecord
	for _, tr := range t.Traces() {
		if tr.TraceID == traceID {
			out = append(out, tr)
		}
	}
	return out
}

// Wire joins a trace ID and a span ID into the protocol's trace field:
// "traceID/spanID". With no span (span-unaware caller, or tracing off)
// it returns the bare trace ID.
func Wire(traceID, spanID string) string {
	if spanID == "" {
		return traceID
	}
	return traceID + "/" + spanID
}

// Split divides a wire trace field into trace ID and caller span ID.
// A bare trace ID (no slash) yields an empty span ID.
func Split(field string) (traceID, spanID string) {
	if i := strings.IndexByte(field, '/'); i >= 0 {
		return field[:i], field[i+1:]
	}
	return field, ""
}

// Span IDs mirror the trace-ID scheme: a random per-process prefix and
// a sequence number — globally unique with overwhelming probability,
// cheap to mint per phase.
var (
	spanPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "s00000000"
		}
		return fmt.Sprintf("s%08x", binary.BigEndian.Uint32(b[:]))
	}()
	spanSeq  atomic.Uint64
	traceSeq atomic.Uint64
)

// spanIDString is the pure numeric-sequence-to-ID mapping; minting on
// demand and minting at keep time agree by construction.
func spanIDString(n uint64) string {
	return spanPrefix + "-" + strconv.FormatUint(n, 10)
}

// NewTraceID mints a trace ID — for a client's outgoing request, or for
// one that arrived without an ID: the per-process prefix plus a sequence
// number, unique across processes with overwhelming probability and
// cheap enough to mint per request.
func NewTraceID() string {
	return fmt.Sprintf("T%s-%d", spanPrefix[1:], traceSeq.Add(1))
}
