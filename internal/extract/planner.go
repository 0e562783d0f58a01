package extract

import (
	"errors"
	"fmt"
	"sync"

	"moira/internal/db"
	"moira/internal/protocol"
)

// Generator is the planner's view of one extract generator. Build and
// Apply are called with the database shared lock already held by the
// planner, so that the journal position captured for the pass and the
// database state the generator reads are the same instant.
type Generator interface {
	// Tables lists the relations feeding the extract, for the
	// journal-less change check.
	Tables() []string
	// Build produces the full keyed model from scratch.
	Build(d *db.DB) (*Model, error)
	// Deps maps one journal record to the logical keys it dirties. A
	// key ending in '*' dirties every current key with that prefix.
	// ok=false declares the record non-incremental: the whole service
	// falls back to a full regeneration.
	Deps(d *db.DB, rec *db.JournalRecord) (keys []string, ok bool)
	// Apply recomputes the dirty keys in place: delete each key's
	// entries, re-emit the key from current database state.
	Apply(d *db.DB, m *Model, keys []string) error
}

// Mode says what a pass did for one service.
type Mode int

// Pass modes.
const (
	ModeFull Mode = iota
	ModeDelta
	ModeNoChange
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeDelta:
		return "delta"
	default:
		return "nochange"
	}
}

// Plan describes the outcome of one planned pass over one service.
type Plan struct {
	Mode Mode
	// Reason explains a full pass ("cold start", "position pruned", ...)
	// or is empty.
	Reason string
	// Records is how many journal records the delta consumed; Keys how
	// many logical keys it recomputed.
	Records int
	Keys    int
	// Pos is the journal head position this pass covers; Commit
	// persists it. Zero when no journal is attached.
	Pos protocol.Pos
	// Seq is the table change sequence observed (the journal-less
	// change check); Commit persists it.
	Seq int64
	// Backlog is the record count between the stored position and the
	// head before this pass ran (0 for no-change passes).
	Backlog int

	// dirtyKeys carries the expanded key set from plan to Run.
	dirtyKeys []string
}

// GenPosSegPrefix and GenPosIdxPrefix name the values-relation keys the
// planner persists per-service journal positions under; they survive
// DCM restarts the way genseq_<service> always has.
const (
	GenPosSegPrefix = "genpos_seg_"
	GenPosIdxPrefix = "genpos_idx_"
)

// svcState is the planner's in-memory state for one service.
type svcState struct {
	model       *Model
	pos         protocol.Pos
	havePos     bool
	adoptions   int64
	sinceFull   int // delta passes since the last full build
	lastMode    Mode
	lastReason  string
	lastBacklog int
}

// Planner owns the delta plans: per-service journal positions, cached
// models, and the fallback matrix deciding full vs incremental.
type Planner struct {
	// DB is the bookkeeping database (positions persist in its values
	// relation) and the state the generators read.
	DB *db.DB
	// Journal is the durable journal the deltas come from; nil degrades
	// every decision to the table-sequence check (no-change vs full).
	Journal *db.JournalWriter
	// FullEvery forces a full rebuild every N generating passes even
	// when deltas would do, bounding drift; 0 disables.
	FullEvery int

	mu  sync.Mutex
	svc map[string]*svcState
}

// NewPlanner creates a planner.
func NewPlanner(d *db.DB, j *db.JournalWriter, fullEvery int) *Planner {
	return &Planner{DB: d, Journal: j, FullEvery: fullEvery, svc: map[string]*svcState{}}
}

func (p *Planner) state(service string) *svcState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.svc[service]
	if !ok {
		st = &svcState{}
		p.svc[service] = st
	}
	return st
}

// storedPos loads the persisted journal position for a service; ok is
// false when none was ever stored. Caller holds at least the shared
// lock.
func (p *Planner) storedPos(service string) (protocol.Pos, bool) {
	seg, err1 := p.DB.GetValue(GenPosSegPrefix + service)
	idx, err2 := p.DB.GetValue(GenPosIdxPrefix + service)
	if err1 != nil || err2 != nil || seg <= 0 {
		return protocol.Pos{}, false
	}
	return protocol.Pos{Seg: int64(seg), Idx: int64(idx)}, true
}

// Run plans and executes one service pass under a single shared-lock
// acquisition: decide full/delta/no-change, run the generator
// accordingly, and return the resulting model plus the plan. A caller
// recording the pass as a generation follows with Commit (persisting
// the advance); one that only needs the current model (the DCM's
// host-retry path) does not, and the next Run re-derives the same dirty
// keys from the unmoved position — re-emitting a key is idempotent. On
// generation failure Run invalidates its own state; it never leaves a
// half-patched model behind. Runs of one service must not overlap.
func (p *Planner) Run(service string, g Generator) (*Model, *Plan, error) {
	st := p.state(service)
	d := p.DB

	d.LockShared()
	defer d.UnlockShared()

	plan := p.plan(service, st, g)
	switch plan.Mode {
	case ModeNoChange:
		return st.model, plan, nil

	case ModeDelta:
		keys := plan.dirtyKeys
		if err := g.Apply(d, st.model, keys); err != nil {
			// A failed patch leaves the model unusable; drop it so the
			// next pass rebuilds from scratch.
			st.model = nil
			st.havePos = false
			return nil, plan, err
		}
		return st.model, plan, nil

	default: // ModeFull
		m, err := g.Build(d)
		if err != nil {
			st.model = nil
			st.havePos = false
			return nil, plan, err
		}
		st.model = m
		st.adoptions = d.AdoptCount()
		st.sinceFull = 0
		return m, plan, nil
	}
}

// plan decides the pass mode. Caller holds the shared lock.
func (p *Planner) plan(service string, st *svcState, g Generator) *Plan {
	d := p.DB
	seq := d.SeqOf(g.Tables()...)

	if p.Journal == nil {
		// No journal: the change check is the table-sequence compare
		// against the last committed generation. As with a journal, a
		// planner holding no model (first pass, restart, Invalidate)
		// builds one, so a no-change verdict always has a model to
		// render for host retries.
		stored, err := d.GetValue(db.GenSeqPrefix + service)
		if st.model != nil && err == nil && stored > 0 && seq <= int64(stored) {
			return &Plan{Mode: ModeNoChange, Seq: seq}
		}
		return &Plan{Mode: ModeFull, Reason: "no journal", Seq: seq}
	}

	headSeg, headRecs := p.Journal.Head()
	head := protocol.Pos{Seg: headSeg, Idx: headRecs}
	full := func(reason string) *Plan {
		return &Plan{Mode: ModeFull, Reason: reason, Pos: head, Seq: seq}
	}

	if st.model == nil {
		return full("cold start")
	}
	if st.adoptions != d.AdoptCount() {
		return full("snapshot adopted")
	}
	pos, ok := st.pos, st.havePos
	if !ok {
		if pos, ok = p.storedPos(service); !ok {
			return full("no stored position")
		}
	}
	if pos.Seg > head.Seg || (pos.Seg == head.Seg && pos.Idx > head.Idx) {
		return full("position ahead of journal head")
	}
	if p.FullEvery > 0 && st.sinceFull >= p.FullEvery {
		return full("scheduled full")
	}
	if pos == head {
		return &Plan{Mode: ModeNoChange, Pos: head, Seq: seq}
	}

	recs, err := ReadRange(p.Journal.Dir(), pos, head)
	if err != nil {
		switch {
		case errors.Is(err, ErrCorrupt):
			return full("journal corrupt: " + err.Error())
		default:
			return full("position lost: " + err.Error())
		}
	}
	if len(recs) == 0 {
		return &Plan{Mode: ModeNoChange, Pos: head, Seq: seq, Backlog: 0}
	}

	dirty := map[string]bool{}
	// A backlog of records tends to repeat the same wildcard families
	// (every user mutation dirties "shcred:*"); expanding a prefix once
	// per pass keeps the key-map scan out of the per-record loop.
	expanded := map[string]bool{}
	for _, rec := range recs {
		keys, incOK := g.Deps(d, rec)
		if !incOK {
			return full(fmt.Sprintf("non-incremental query %s", rec.Query))
		}
		for _, k := range keys {
			if n := len(k); n > 0 && k[n-1] == '*' {
				if expanded[k] {
					continue
				}
				expanded[k] = true
				for _, ek := range st.model.KeysWithPrefix(k[:n-1]) {
					dirty[ek] = true
				}
			} else {
				dirty[k] = true
			}
		}
	}
	if len(dirty) == 0 {
		return &Plan{Mode: ModeNoChange, Pos: head, Seq: seq, Backlog: len(recs)}
	}
	keys := make([]string, 0, len(dirty))
	for k := range dirty {
		keys = append(keys, k)
	}
	return &Plan{
		Mode: ModeDelta, Records: len(recs), Keys: len(keys),
		Pos: head, Seq: seq, Backlog: len(recs), dirtyKeys: keys,
	}
}

// Commit records a successful pass: the position and sequence advance
// both in memory and in the values relation, so the next pass (even
// after a DCM restart) resumes from here. Call it after the generation
// succeeded, in the same breath as the DCM's finishGeneration
// bookkeeping; the caller holds the exclusive lock.
func (p *Planner) Commit(service string, plan *Plan) {
	st := p.state(service)
	st.pos, st.havePos = plan.Pos, !plan.Pos.IsZero()
	st.lastMode, st.lastReason = plan.Mode, plan.Reason
	st.lastBacklog = plan.Backlog
	if plan.Mode == ModeDelta {
		st.sinceFull++
	}
	p.DB.SetValue(db.GenSeqPrefix+service, int(plan.Seq))
	if !plan.Pos.IsZero() {
		p.DB.SetValue(GenPosSegPrefix+service, int(plan.Pos.Seg))
		p.DB.SetValue(GenPosIdxPrefix+service, int(plan.Pos.Idx))
	}
}

// Invalidate drops a service's cached model (a failed push or an
// operator action); the next pass rebuilds fully.
func (p *Planner) Invalidate(service string) {
	st := p.state(service)
	st.model = nil
	st.havePos = false
}

// Model returns the cached model for a service, if any — the host-scan
// path reuses it to rebuild bundles without regenerating.
func (p *Planner) Model(service string) *Model {
	return p.state(service).model
}

// LastMode reports the most recently committed pass mode and reason.
func (p *Planner) LastMode(service string) (Mode, string) {
	st := p.state(service)
	return st.lastMode, st.lastReason
}

// Position reports the in-memory position for a service (zero when the
// service has not committed a journal-tracked pass yet).
func (p *Planner) Position(service string) protocol.Pos {
	return p.state(service).pos
}

// Status is a monitoring snapshot of one service's delta state.
type Status struct {
	// Pos is the committed journal position.
	Pos protocol.Pos
	// Mode and Reason describe the last committed pass.
	Mode   Mode
	Reason string
	// Backlog is the journal-record distance the last pass covered.
	Backlog int
	// SinceFull counts delta passes since the last full build.
	SinceFull int
}

// Status reports the last committed pass for monitoring displays.
func (p *Planner) Status(service string) Status {
	p.mu.Lock()
	st, ok := p.svc[service]
	p.mu.Unlock()
	if !ok {
		return Status{}
	}
	return Status{
		Pos: st.pos, Mode: st.lastMode, Reason: st.lastReason,
		Backlog: st.lastBacklog, SinceFull: st.sinceFull,
	}
}
