package extract

import (
	"sync"

	"moira/internal/db"
)

// Generator is the planner's view of one extract generator. Build and
// Apply read a frozen snapshot (db.Reader), so they hold no lock and
// writers never wait for them.
type Generator interface {
	// Reads declares every relation the extract reads and how a changed
	// row of it dirties the extract's keys.
	Reads() []Read
	// Build produces the full keyed model from scratch.
	Build(snap *db.DB) (*Model, error)
	// Apply recomputes the dirty keys in place: delete each key's
	// entries, re-emit the key from snap.
	Apply(snap *db.DB, m *Model, keys []string) error
}

// Read declares one relation an extract reads. The planner diffs the
// relation between the snapshot the model reflects and the pass's
// snapshot (db.Diff) and calls Keys twice per changed row: on the old
// row in the old snapshot and on the new row in the new snapshot, each
// side that exists. Keys must add every key whose emit, in that
// snapshot, reads the row; a key ending in '*' dirties every current key
// with that prefix. A relation may be declared more than once, with
// different columns and keys.
type Read struct {
	Table string
	// Same reports whether two versions of a row (either may be nil)
	// agree in every column the extract reads; a row change it calls
	// same dirties no key.
	Same func(o, n any) bool
	// Keys adds the keys a row dirties. nil declares the relation full:
	// a row change it counts rebuilds the whole extract, for relations
	// where chasing the keys is not worth it.
	Keys func(snap *db.DB, row any, add func(key string))
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
	// Reason explains a full pass (see Full*) or is empty.
	Reason string
	// Records is how many changed rows the diff found that the extract
	// reads; Keys how many logical keys the delta recomputed.
	Records int
	Keys    int
	// Seq is the table change sequence of the pass's snapshot; Commit
	// persists it as genseq_<service>.
	Seq int64

	// dirtyKeys carries the expanded key set from plan to Run.
	dirtyKeys []string
}

// The reasons for a full pass: the fallback matrix.
const (
	FullColdStart = "cold start"       // no model: first pass, restart, Invalidate
	FullAdopted   = "snapshot adopted" // AdoptFrom replaced the database
	FullDeclared  = "declared full: "  // and the relation: a relation declared full changed
)

// svcState is the planner's in-memory state for one service.
type svcState struct {
	model     *Model
	snap      *db.DB // the snapshot model reflects
	adoptions int64
	pending   *Plan // what Runs since the last Commit changed, nil if nothing
	last      Status
}

// Planner owns the delta plans: per-service models and the snapshots
// they reflect, and the fallback matrix deciding full vs incremental.
type Planner struct {
	// DB is the bookkeeping database: Commit persists genseq_<service>
	// in its values relation.
	DB *db.DB

	mu  sync.Mutex
	svc map[string]*svcState
}

// NewPlanner creates a planner.
func NewPlanner(d *db.DB) *Planner {
	return &Planner{DB: d, svc: map[string]*svcState{}}
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

// Run plans and executes one service pass against snap, a snapshot from
// db.Reader: diff the snapshot the model reflects against snap, decide
// full/delta/no-change, run the generator accordingly, and return the
// model plus the plan. The model then reflects snap, whether or not the
// caller commits. A caller recording the pass as a generation follows
// with Commit; one that only needs the current model (the DCM's
// host-retry path) does not, and the next Run reports what this one
// changed on top of its own diff, so the change still reaches the next
// generation. A model never moves back: when an overlapping pass already
// carried it past snap, Run keeps the snapshot it reflects and reports
// only what is still uncommitted. On generation failure Run invalidates
// its own state; it never leaves a half-patched model behind. Runs of
// one service must not overlap.
func (p *Planner) Run(service string, g Generator, snap *db.DB) (*Model, *Plan, error) {
	st := p.state(service)
	if st.snap != nil && st.snap.Epoch() > snap.Epoch() {
		snap = st.snap
	}
	plan := p.plan(st, g, snap)
	switch plan.Mode {
	case ModeDelta:
		if err := g.Apply(snap, st.model, plan.dirtyKeys); err != nil {
			// A failed patch leaves the model unusable; drop it so the
			// next pass rebuilds from scratch.
			p.Invalidate(service)
			return nil, plan, err
		}
	case ModeFull:
		m, err := g.Build(snap)
		if err != nil {
			p.Invalidate(service)
			return nil, plan, err
		}
		st.model = m
		st.adoptions = snap.AdoptCount()
	}
	st.snap = snap
	if prev := st.pending; prev != nil {
		plan = prev.then(plan)
	}
	if plan.Mode != ModeNoChange {
		st.pending = plan
	}
	return st.model, plan, nil
}

// then is p followed by the later plan q: the larger mode, with the
// reason of the full pass among them, and the summed counts.
func (p *Plan) then(q *Plan) *Plan {
	out := *q
	out.Records += p.Records
	out.Keys += p.Keys
	if p.Mode < q.Mode {
		out.Mode, out.Reason = p.Mode, p.Reason
	}
	return &out
}

// plan decides the pass mode.
func (p *Planner) plan(st *svcState, g Generator, snap *db.DB) *Plan {
	reads := g.Reads()
	plan := &Plan{Seq: snap.SeqOf(Tables(reads)...)}
	full := func(reason string) *Plan {
		plan.Mode, plan.Reason = ModeFull, reason
		return plan
	}
	switch {
	case st.model == nil:
		return full(FullColdStart)
	case st.adoptions != snap.AdoptCount():
		return full(FullAdopted)
	}
	plan.Mode = ModeNoChange
	if st.snap == snap {
		return plan
	}

	dirty := map[string]bool{}
	// A batch of changed rows tends to repeat the same wildcard families;
	// expanding a prefix once per pass keeps the key-map scan out of the
	// per-row loop.
	expanded := map[string]bool{}
	add := func(k string) {
		if n := len(k); n > 0 && k[n-1] == '*' {
			if !expanded[k] {
				expanded[k] = true
				for _, ek := range st.model.KeysWithPrefix(k[:n-1]) {
					dirty[ek] = true
				}
			}
			return
		}
		dirty[k] = true
	}
	for i, r := range reads {
		if tableIndex(reads, r.Table) < i {
			continue // diffed with the table's first Read
		}
		table, declared := r.Table, false
		db.Diff(table, st.snap, snap, func(o, n any) bool {
			counted := false
			for _, r := range reads[i:] {
				if r.Table != table || r.Same(o, n) {
					continue
				}
				counted = true
				if r.Keys == nil {
					declared = true
					return false
				}
				if o != nil {
					r.Keys(st.snap, o, add)
				}
				if n != nil {
					r.Keys(snap, n, add)
				}
			}
			if counted {
				plan.Records++
			}
			return true
		})
		if declared {
			return full(FullDeclared + table)
		}
	}
	if len(dirty) == 0 {
		return plan
	}
	plan.Mode, plan.Keys = ModeDelta, len(dirty)
	plan.dirtyKeys = make([]string, 0, len(dirty))
	for k := range dirty {
		plan.dirtyKeys = append(plan.dirtyKeys, k)
	}
	return plan
}

// tableIndex returns the index of the first Read of table.
func tableIndex(reads []Read, table string) int {
	for i, r := range reads {
		if r.Table == table {
			return i
		}
	}
	return -1
}

// Tables lists the relations reads declare, each once, in order.
func Tables(reads []Read) []string {
	var out []string
	for i, r := range reads {
		if tableIndex(reads, r.Table) == i {
			out = append(out, r.Table)
		}
	}
	return out
}

// Commit records a pass as a generation: the mode and counts become the
// service's status, and genseq_<service> takes the snapshot's change
// sequence (the paper's record of the data a service last generated
// from). Call it after the generation succeeded, in the same breath as
// the DCM's finishGeneration bookkeeping; the caller holds the exclusive
// lock.
func (p *Planner) Commit(service string, plan *Plan) {
	st := p.state(service)
	st.pending = nil
	p.mu.Lock()
	st.last = Status{Mode: plan.Mode, Reason: plan.Reason, Rows: plan.Records}
	p.mu.Unlock()
	p.DB.SetValue(db.GenSeqPrefix+service, int(plan.Seq))
}

// Invalidate drops a service's cached model (a failed push or an
// operator action); the next pass rebuilds fully.
func (p *Planner) Invalidate(service string) {
	st := p.state(service)
	st.model, st.snap = nil, nil
}

// Model returns the cached model for a service, if any — the host-scan
// path reuses it to rebuild bundles without regenerating.
func (p *Planner) Model(service string) *Model {
	return p.state(service).model
}

// Status is a monitoring snapshot of one service's delta state.
type Status struct {
	// Mode and Reason describe the last committed pass.
	Mode   Mode
	Reason string
	// Rows is how many changed rows the last committed pass found.
	Rows int
}

// Status reports the last committed pass for monitoring displays.
func (p *Planner) Status(service string) Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.svc[service]; ok {
		return st.last
	}
	return Status{}
}
