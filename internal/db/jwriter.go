package db

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moira/internal/stats"
)

// SyncPolicy says when the journal writer pushes appended records to
// stable storage.
type SyncPolicy int

// Journal sync policies.
const (
	// SyncEveryCommit fsyncs after every appended record: no
	// acknowledged change can be lost to a crash. The durable default.
	SyncEveryCommit SyncPolicy = iota
	// SyncInterval fsyncs on a background group-commit interval: a
	// crash loses at most one interval of acknowledged changes.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes when it likes.
	SyncNone
)

// ParseSyncPolicy maps the flag spellings to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "commit", "every-commit", "always":
		return SyncEveryCommit, nil
	case "interval", "group":
		return SyncInterval, nil
	case "none", "never":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("db: unknown sync policy %q (want commit, interval, or none)", s)
}

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryCommit:
		return "commit"
	case SyncInterval:
		return "interval"
	default:
		return "none"
	}
}

// segmentPrefix names journal segment files: journal.<8-digit seq>.
const segmentPrefix = "journal."

// SegmentName returns the file name of journal segment seq.
func SegmentName(seq int64) string {
	return fmt.Sprintf("%s%08d", segmentPrefix, seq)
}

// parseSegmentName extracts the sequence number from a segment file
// name, or ok=false for files that are not segments.
func parseSegmentName(name string) (int64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) {
		return 0, false
	}
	seq, err := strconv.ParseInt(name[len(segmentPrefix):], 10, 64)
	if err != nil || seq <= 0 {
		return 0, false
	}
	return seq, true
}

// Segment is one journal segment file on disk.
type Segment struct {
	Seq  int64
	Path string
}

// ListSegments returns the journal segments in dir in ascending
// sequence order. A missing dir is an empty journal.
func ListSegments(dir string) ([]Segment, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var segs []Segment
	for _, e := range ents {
		if seq, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			segs = append(segs, Segment{Seq: seq, Path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// PruneSegments removes every segment in dir whose sequence number is
// below keepFrom (their records predate the oldest retained snapshot)
// and reports how many were removed.
func PruneSegments(dir string, keepFrom int64) (int, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, s := range segs {
		if s.Seq >= keepFrom {
			break
		}
		if err := os.Remove(s.Path); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// JournalOptions configures OpenJournalWriter.
type JournalOptions struct {
	// Policy is the sync policy; the zero value is SyncEveryCommit.
	Policy SyncPolicy
	// Interval is the group-commit period for SyncInterval; zero means
	// one second.
	Interval time.Duration
}

// JournalWriter is a durable, segmented journal sink. It implements
// io.Writer, so DB.SetJournal accepts it directly: each Write is one
// complete journal line and is appended to the current segment under
// the configured sync policy. Rotate closes the current segment and
// starts the next — the checkpointer rotates at every snapshot so each
// segment holds exactly the records since one checkpoint.
//
// A partial append (some but not all bytes reached the file) poisons
// the writer: further appends would splice records mid-line and turn a
// recoverable torn tail into unrecoverable mid-file corruption, so
// every subsequent Write fails with the original error instead.
type JournalWriter struct {
	mu       sync.Mutex
	dir      string
	f        *os.File
	seq      int64
	policy   SyncPolicy
	interval time.Duration
	dirty    bool  // bytes appended since the last fsync
	dead     error // set on partial append; permanent
	grouped  int   // nested BeginGroup depth; defers per-commit syncs

	stop chan struct{}
	done chan struct{}

	subs []chan struct{}

	appends   atomic.Int64
	bytes     atomic.Int64
	syncs     atomic.Int64
	rotations atomic.Int64
	errors    atomic.Int64
	curSeq    atomic.Int64
	segRecs   atomic.Int64 // records appended into the current segment

	// Group-commit flush visibility: sinceSync counts appends riding the
	// next flush (under mu); batched totals appends that shared a flush
	// with others; syncWait (when TimeSyncs wired a registry) is the
	// flush-duration histogram.
	sinceSync int64
	batched   atomic.Int64
	syncWait  atomic.Pointer[stats.Histogram]
}

// OpenJournalWriter opens a fresh journal segment in dir (created if
// needed), numbered one past the highest existing segment. Existing
// segments are never appended to: a previous process may have torn
// their final line, and recovery has well-defined semantics only for
// a torn *tail*.
func OpenJournalWriter(dir string, opts JournalOptions) (*JournalWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	seq := int64(1)
	if n := len(segs); n > 0 {
		seq = segs[n-1].Seq + 1
	}
	w := &JournalWriter{
		dir:      dir,
		seq:      seq,
		policy:   opts.Policy,
		interval: opts.Interval,
	}
	if w.interval <= 0 {
		w.interval = time.Second
	}
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	if w.policy == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// openSegmentLocked creates the segment file for w.seq and fsyncs the
// directory so the file itself survives a crash.
func (w *JournalWriter) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(w.dir, SegmentName(w.seq)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.dirty = false
	w.curSeq.Store(w.seq)
	return syncDir(w.dir)
}

// syncLoop is the group-commit goroutine for SyncInterval.
func (w *JournalWriter) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if err := w.Sync(); err != nil {
				w.errors.Add(1)
			}
		}
	}
}

// Write appends one complete journal line (the DB calls it from inside
// the query transaction). It returns an error if the append or a
// required fsync fails; the enclosing transaction surfaces it.
func (w *JournalWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead != nil {
		w.errors.Add(1)
		return 0, w.dead
	}
	n, err := w.writeInjected(p)
	if n > 0 {
		w.dirty = true
		w.bytes.Add(int64(n))
	}
	if err != nil {
		w.errors.Add(1)
		if n > 0 {
			// Partial line on disk: poison the writer (see type doc).
			w.dead = fmt.Errorf("db: journal segment %d torn by partial append: %w", w.seq, err)
		}
		return n, err
	}
	w.appends.Add(1)
	w.segRecs.Add(1)
	w.sinceSync++
	if w.policy == SyncEveryCommit && w.grouped == 0 {
		if err := fireCrash("journal.presync"); err != nil {
			w.dead = err
			return n, err
		}
		if err := w.syncLocked(); err != nil {
			w.errors.Add(1)
			return n, err
		}
	}
	w.notifyLocked()
	return n, nil
}

// Subscribe returns a channel that receives a (coalesced) wakeup after
// every appended record and every rotation. The channel has a buffer of
// one and notifications never block: a slow receiver sees at least one
// pending wakeup, not a backlog. Replication tailers use this for
// group-commit-aware flushing — read the segment files until caught up,
// then park on the channel instead of polling.
func (w *JournalWriter) Subscribe() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch := make(chan struct{}, 1)
	w.subs = append(w.subs, ch)
	return ch
}

// notifyLocked wakes all subscribers without blocking.
func (w *JournalWriter) notifyLocked() {
	for _, ch := range w.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// writeInjected performs the file write, splitting it around the
// journal.midline crash point when a hook is armed.
func (w *JournalWriter) writeInjected(p []byte) (int, error) {
	if h, _ := crashHook.Load().(crashHookFn); h != nil && len(p) > 1 {
		half := len(p) / 2
		n, err := w.f.Write(p[:half])
		if err != nil {
			return n, err
		}
		if err := h("journal.midline"); err != nil {
			return n, err
		}
		m, err := w.f.Write(p[half:])
		return n + m, err
	}
	return w.f.Write(p)
}

// BeginGroup opens a group commit: appends made before the matching
// EndGroup skip their per-commit fsync and share the single fsync
// EndGroup issues. Under SyncInterval or SyncNone there is no
// per-append sync to suppress and EndGroup is a no-op, so callers can
// bracket batches unconditionally. Groups nest; only the outermost
// EndGroup syncs.
func (w *JournalWriter) BeginGroup() {
	w.mu.Lock()
	w.grouped++
	w.mu.Unlock()
}

// EndGroup closes a group commit, flushing every record appended since
// BeginGroup in one fsync (under SyncEveryCommit). Its error is the
// batch's durability verdict: on failure none of the group's appends
// may be acknowledged.
func (w *JournalWriter) EndGroup() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.grouped > 0 {
		w.grouped--
	}
	if w.grouped > 0 || w.policy != SyncEveryCommit || !w.dirty {
		return nil
	}
	if w.dead != nil {
		return w.dead
	}
	if err := fireCrash("journal.presync"); err != nil {
		w.dead = err
		return err
	}
	if err := w.syncLocked(); err != nil {
		w.errors.Add(1)
		return err
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (w *JournalWriter) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *JournalWriter) syncLocked() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	if h := w.syncWait.Load(); h != nil {
		h.Observe(time.Since(start))
	}
	if w.sinceSync > 1 {
		w.batched.Add(w.sinceSync - 1)
	}
	w.sinceSync = 0
	w.dirty = false
	w.syncs.Add(1)
	return nil
}

// Rotate syncs and closes the current segment and opens the next one,
// returning the new segment's sequence number. The checkpointer calls
// it while holding the database lock, so no append can interleave: the
// new segment's records all postdate the snapshot.
func (w *JournalWriter) Rotate() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead != nil {
		return 0, w.dead
	}
	if err := w.syncLocked(); err != nil {
		w.errors.Add(1)
		return 0, err
	}
	if err := w.f.Close(); err != nil {
		return 0, err
	}
	w.seq++
	if err := w.openSegmentLocked(); err != nil {
		return 0, err
	}
	w.segRecs.Store(0)
	w.rotations.Add(1)
	w.notifyLocked()
	return w.seq, nil
}

// Seq returns the current segment's sequence number.
func (w *JournalWriter) Seq() int64 { return w.curSeq.Load() }

// Head returns the current segment's sequence number and the count of
// records appended into it — the position a fully caught-up replication
// subscriber would hold. The pair is read without the writer lock, so
// across a rotation it may briefly pair the old count with the new
// segment; callers (lag gauges) tolerate the lower bound.
func (w *JournalWriter) Head() (seg, recs int64) {
	return w.curSeq.Load(), w.segRecs.Load()
}

// Dir returns the journal directory.
func (w *JournalWriter) Dir() string { return w.dir }

// Close syncs and closes the writer. Further writes fail.
func (w *JournalWriter) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if w.dead == nil {
		w.dead = fmt.Errorf("db: journal writer closed")
	}
	w.notifyLocked()
	return err
}

// BindStats publishes the writer's series into reg: EmitStats' series
// at snapshot time, and the journal.sync.wait flush-duration histogram
// (TimeSyncs).
func (w *JournalWriter) BindStats(reg *stats.Registry) {
	w.TimeSyncs(reg)
	reg.AddGroup(w.EmitStats)
}

// TimeSyncs records every flush's duration in reg's journal.sync.wait
// histogram.
func (w *JournalWriter) TimeSyncs(reg *stats.Registry) {
	w.syncWait.Store(reg.HistogramWith("journal.sync.wait", stats.FastBuckets))
}

// EmitStats emits journal.appends, journal.bytes, journal.syncs,
// journal.rotations, journal.writeerrors, journal.segment (the current
// segment number), and journal.sync.batched (appends that shared a
// group-commit flush with others). BindStats registers it as a group;
// an owner that replaces its writer calls it from its own group.
func (w *JournalWriter) EmitStats(emit func(string, int64)) {
	emit("journal.appends", w.appends.Load())
	emit("journal.bytes", w.bytes.Load())
	emit("journal.syncs", w.syncs.Load())
	emit("journal.rotations", w.rotations.Load())
	if e := w.errors.Load(); e > 0 {
		emit("journal.writeerrors", e)
	}
	emit("journal.segment", w.curSeq.Load())
	emit("journal.sync.batched", w.batched.Load())
}

// syncDir fsyncs a directory, making renames and file creations in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
