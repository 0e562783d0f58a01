// Package queries implements Moira's predefined query handles (section
// 7): the named, access-controlled database operations that are the only
// way any client — administrative application or the DCM — touches the
// database. The set defined here covers every query in the paper, over
// 100 handles across users, machines, clusters, lists, servers,
// filesystems, zephyr classes, and the miscellaneous relations, plus the
// built-in _help/_list_queries/_list_users.
//
// Each handle is one entry of a declarative table (table.go): its
// argument count and types, its class (retrieve, append, update,
// delete), an access rule, the schema of the tuples it returns, and a
// body that only touches already parsed and resolved values. Two
// executors interpret the table: mutations run under the exclusive
// database lock; retrievals run lock-free against an immutable snapshot
// (db.Reader). Either way every query is a serializable transaction like
// the original's single INGRES backend.
package queries

import (
	"slices"
	"sort"
	"strings"
	"time"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/health"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/stats"
	"moira/internal/trace"
)

// Kind classifies a query; it decides the lock mode and default checks.
type Kind int

// Query kinds.
const (
	Retrieve Kind = iota
	Append
	Update
	Delete
)

// String names the kind for _help output.
func (k Kind) String() string {
	switch k {
	case Retrieve:
		return "retrieve"
	case Append:
		return "append"
	case Update:
		return "update"
	default:
		return "delete"
	}
}

// SessionInfo describes one connected client for _list_users.
type SessionInfo struct {
	Principal   string
	HostAddress string
	Port        int
	ConnectTime int64
	ClientNum   int
}

// Context carries the authenticated caller identity into a query.
type Context struct {
	DB *db.DB

	// Principal is the authenticated Kerberos principal ("" when the
	// connection has not authenticated).
	Principal string
	// UserID is the users_id matching Principal, or 0.
	UserID int
	// App is the client application name given to mr_auth; recorded in
	// modwith fields.
	App string
	// Privileged marks the direct "glue" library used by the DCM and the
	// backup tools on the database host: it bypasses access control,
	// exactly as the direct-Ingres library did.
	Privileged bool

	// Sessions, when set by the server, backs the _list_users query.
	Sessions func() []SessionInfo

	// TriggerDCM, when set by the server, is invoked by the
	// set_server_host_override query ("and start a new DCM running").
	// The argument is the trace ID of the originating request, so the
	// resulting DCM pass can be correlated with it.
	TriggerDCM func(trace string)

	// TraceID is the trace ID of the request being served, stamped by
	// the client (possibly ""); journaled with mutations.
	TraceID string

	// Stats, when set by the server, backs the _stats query handle.
	Stats *stats.Registry

	// Span is the request's span; Execute hangs the snapshot-acquire,
	// handler, and journal phases off it. nil (the Direct glue, span-
	// less servers) records nothing.
	Span *trace.Span

	// PhaseStart anchors Span's first phase: the server stamps it with
	// the instant the request finished parsing, so the snapshot-acquire
	// phase starts there — covering dispatch as well — without Execute
	// reading the clock again. Zero means read the clock.
	PhaseStart time.Time

	// Spans, when set by the server, backs the _spans query handle with
	// the tracer's kept traces.
	Spans func() []*trace.TraceRecord

	// Health, when set by the server, backs the _health query handle.
	Health func() []health.Status

	// Whois, when set by the server, backs the _whois query handle with
	// the node's failover identity (role, epoch, primary address). nil
	// (a standalone server) makes _whois report a standalone role.
	Whois func() WhoisInfo

	// CommitGate, when set by the server on a cluster primary, is called
	// by Execute after a successful journal append — outside the
	// exclusive lock — with the commit's journal position. It blocks
	// until a replica acknowledges the position (semi-synchronous
	// replication) and its error fails the request: the client must not
	// treat a commit as acknowledged while the primary alone holds it,
	// or a failover could lose an "acked" write.
	CommitGate func(seg, idx int64) error

	// CommitSeg/CommitIdx/CommitOK report the journal position of the
	// mutation this Execute (or ExecuteBatch) committed; the server
	// reads them to mint the v5 position token and resets them between
	// requests. CommitOK is false when nothing was journaled.
	CommitSeg int64
	CommitIdx int64
	CommitOK  bool

	// cache memoizes successful access checks (section 5.5); see
	// accesscache.go. nil means caching is off.
	cache *accessCache
}

// ResolveUser fills UserID from Principal. Callers must not hold the
// database lock.
func (cx *Context) ResolveUser() {
	cx.DB.LockShared()
	defer cx.DB.UnlockShared()
	if u, ok := cx.DB.UserByLogin(cx.Principal); ok {
		cx.UserID = u.UsersID
	} else {
		cx.UserID = 0
	}
}

// modInfo builds the audit triple for a mutation by this caller.
func (cx *Context) modInfo() db.ModInfo {
	by := cx.Principal
	if by == "" && cx.Privileged {
		by = "root"
	}
	with := cx.App
	if with == "" {
		with = "moira"
	}
	return db.ModInfo{Time: cx.DB.Now(), By: by, With: with}
}

// onACL reports whether the caller is on the query's capability ACL.
// Privileged contexts are always on every ACL.
func (cx *Context) onACL(queryName string) bool {
	if cx.Privileged {
		return true
	}
	if cx.UserID == 0 {
		return false
	}
	return acl.CheckCapability(cx.DB, queryName, cx.UserID)
}

// EmitFunc receives one returned tuple as strings: the in-process
// callers' form (the Direct glue, tools, tests). Returning an error
// aborts the query (e.g. the client connection died). As with the
// clients' TupleFunc, the slice is valid only during the call and the
// strings in it stay valid: a callback that keeps a tuple copies the
// slice, not the strings.
type EmitFunc func(tuple []string) error

// FieldFunc receives one returned tuple as typed fields: the server's
// form, which encodes them straight into the reply frame. The slice is
// valid only during the call.
type FieldFunc func(tuple []protocol.Field) error

// sink is where a retrieval's tuples go: exactly one of the two forms.
type sink struct {
	fields FieldFunc
	text   EmitFunc
}

var (
	byName  = map[string]*Query{}
	ordered []*Query
)

// Register installs a query handle: the table's entries at init, and
// extensions (or tests that need a handle with specific behaviour, like
// the server's panic-recovery test). It fills Args from the argument
// schema and panics on a duplicate name or a schema it cannot serve,
// which are build-time bugs.
func Register(q *Query) {
	if len(q.In) > maxArgs || q.Do == nil || (q.Kind == Retrieve) != (q.Rows != nil) {
		panic("queries: malformed table entry " + q.Name)
	}
	q.Args = make([]string, len(q.In))
	for i, a := range q.In {
		q.Args[i] = a.Name
	}
	for _, key := range []string{q.Name, q.Short} {
		if key == "" {
			panic("queries: query with empty name")
		}
		if _, dup := byName[key]; dup {
			panic("queries: duplicate query name " + key)
		}
		byName[key] = q
	}
	ordered = append(ordered, q)
}

// register installs a table of entries.
func register(table []Query) {
	for i := range table {
		Register(&table[i])
	}
}

// Lookup finds a query by long or short name.
func Lookup(name string) (*Query, bool) {
	q, ok := byName[name]
	return q, ok
}

// All returns every query in registration order.
func All() []*Query {
	out := make([]*Query, len(ordered))
	copy(out, ordered)
	return out
}

// Count reports the number of registered query handles.
func Count() int { return len(ordered) }

// MaxArgLen is the limit over which arguments fail with MR_ARG_TOO_LONG.
const MaxArgLen = 1024

// Execute runs the named query. It performs argument-count and length
// checks, the access check, takes the database lock in the mode implied
// by the query kind, parses the typed arguments, runs the body, and
// journals successful mutations. A retrieval's tuples go to emit as
// strings.
func Execute(cx *Context, name string, args []string, emit EmitFunc) error {
	return execute(cx, name, args, sink{text: emit})
}

// ExecuteFields is Execute handing a retrieval's tuples to emit as
// typed fields, with no string rendered for an integer column.
func ExecuteFields(cx *Context, name string, args []string, emit FieldFunc) error {
	return execute(cx, name, args, sink{fields: emit})
}

func execute(cx *Context, name string, args []string, emit sink) error {
	q, ok := byName[name]
	if !ok {
		return mrerr.MrNoHandle
	}
	if err := checkArgs(q, args); err != nil {
		return err
	}
	if q.Kind == Retrieve {
		// Retrievals run lock-free against an immutable snapshot (MVCC-
		// lite): the reader pins one committed state for the whole query —
		// access check and body included — so it can never observe a torn
		// multi-table view, and it never blocks the writer. The request's
		// copy of the Context redirects only this query at the snapshot;
		// the access cache lives on the original context and stays
		// coherent because the snapshot's change sequence equals the live
		// database's at the moment Reader() returned it.
		r := newReq(q, args)
		defer r.free()
		r.snap = *cx
		r.Context = &r.snap
		// Phase timestamps share clock reads at the boundaries (tracing
		// sits on every request, and reading the clock is not free), the
		// snapshot phase starts at the server's parse-done anchor, and
		// the untraced path reads no clock at all.
		var t0 time.Time
		if cx.Span != nil {
			if t0 = cx.PhaseStart; t0.IsZero() {
				t0 = time.Now()
			}
		}
		r.DB = cx.DB.Reader()
		if cx.Span != nil {
			t1 := time.Now()
			cx.Span.Record("server.snapshot", t0, t1.Sub(t0), 0)
			t0 = t1
		}
		if err := r.access(); err != nil {
			return err
		}
		err := r.retrieve(emit)
		if cx.Span != nil {
			cx.Span.Record("server.handler", t0, time.Since(t0), int32(mrerr.CodeOf(err)))
		}
		return err
	}
	// Fail-stop: once a journal append has failed, the store is no
	// longer durable and its memory already diverges from disk by
	// the mutation whose commit was reported as failed. Refusing
	// further mutations (MR_DOWN) caps the divergence at that one
	// change instead of letting it grow on a wedged disk; reads keep
	// serving, and repointing the journal (SetJournal) clears the
	// latch.
	if cx.DB.JournalWedged() {
		return mrerr.MrDown
	}
	cx.CommitOK = false
	r := newReq(q, args)
	defer r.free()
	r.Context = cx
	// The locked section runs in a closure so its deferred unlock fires
	// before the commit gate below: waiting on a replica ack must not
	// hold the exclusive lock, or replication lag would stall readers
	// and every other writer.
	err := func() error {
		cx.DB.LockExclusive()
		defer cx.DB.UnlockExclusive()
		// A fenced primary detaches its journal under this lock; a
		// mutation that waited here through the fence must not apply.
		if cx.DB.JournalDetached() {
			return mrerr.MrReadonly
		}
		if err := r.access(); err != nil {
			return err
		}
		var t0 time.Time
		if cx.Span != nil {
			t0 = time.Now()
		}
		if err := r.mutate(); err != nil {
			if cx.Span != nil {
				cx.Span.Record("server.handler", t0, time.Since(t0), int32(mrerr.CodeOf(err)))
			}
			return err
		}
		// A journal append failure fails the transaction: the client
		// must not believe a change committed that recovery could never
		// reproduce. The in-memory effect of this one query stands until
		// the process exits, but the failure wedges the database
		// (JournalWedged), so the gate above fail-stops every later
		// mutation — the divergence never grows past this change, and
		// the error tells the operator the store is no longer durable
		// (full disk, dead device) before more is lost.
		var t1 time.Time
		if cx.Span != nil {
			t1 = time.Now()
			cx.Span.Record("server.handler", t0, t1.Sub(t0), 0)
		}
		err := cx.DB.JournalQuery(cx.Principal, cx.App, cx.TraceID, q.Name, args)
		if cx.Span != nil {
			cx.Span.Record("server.journal", t1, time.Since(t1), int32(mrerr.CodeOf(err)))
		}
		if err == nil {
			if seg, recs, ok := cx.DB.JournalHead(); ok {
				// recs counts records appended to the current segment, so
				// the commit just written sits at recs-1. A checkpoint
				// rotation can slide in between the append and this read
				// (the journal writer has its own lock); the fresh segment
				// then reads recs == 0 and the position clamps to (seg, 0),
				// a floor one record past the commit — strictly stronger,
				// so read-your-writes still holds.
				idx := recs - 1
				if idx < 0 {
					idx = 0
				}
				cx.CommitSeg, cx.CommitIdx, cx.CommitOK = seg, idx, true
			}
		}
		return err
	}()
	if err != nil || !cx.CommitOK || cx.CommitGate == nil {
		return err
	}
	return commitGate(cx)
}

// commitGate runs the context's semi-sync replication gate for the
// commit position Execute/ExecuteBatch recorded, tracing it as its own
// phase. Callers must not hold the database lock.
func commitGate(cx *Context) error {
	var t0 time.Time
	if cx.Span != nil {
		t0 = time.Now()
	}
	err := cx.CommitGate(cx.CommitSeg, cx.CommitIdx)
	if cx.Span != nil {
		cx.Span.Record("server.replicate", t0, time.Since(t0), int32(mrerr.CodeOf(err)))
	}
	return err
}

// CheckAccess implements the protocol's Access request: it reports
// whether the query would be allowed, without running it.
func CheckAccess(cx *Context, name string, args []string) error {
	q, ok := byName[name]
	if !ok {
		return mrerr.MrNoHandle
	}
	if err := checkArgs(q, args); err != nil {
		return err
	}
	// Like retrievals, access checks run against a pinned snapshot
	// instead of holding the shared lock.
	r := newReq(q, args)
	defer r.free()
	r.snap = *cx
	r.Context = &r.snap
	r.DB = cx.DB.Reader()
	return r.access()
}

func checkArgs(q *Query, args []string) error {
	if len(args) != len(q.In) {
		return mrerr.MrArgs
	}
	for _, a := range args {
		if len(a) > MaxArgLen {
			return mrerr.MrArgTooLong
		}
	}
	return nil
}

// retrieve is the retrieval executor: typed arguments, the body, then
// the collected tuples — MR_NO_MATCH when there are none, sorted unless
// the entry returns them in index order.
func (r *Req) retrieve(emit sink) error {
	if err := r.parse(); err != nil {
		return err
	}
	r.self = r.q.Access.kind == ruleSelfRows && !r.onACL(r.q.Name)
	err := r.q.Do(r)
	if err == nil {
		err = r.err
	}
	if err != nil {
		return err
	}
	if len(r.buf) == 0 {
		return mrerr.MrNoMatch
	}
	if !r.q.IndexOrder {
		sort.Sort((*tuples)(r))
	}
	if emit.text != nil {
		return r.emitText(emit.text)
	}
	w := r.q.Rows.width()
	for i := 0; i < len(r.buf); i += w {
		if err := emit.fields(r.buf[i : i+w : i+w]); err != nil {
			return err
		}
	}
	return nil
}

// emitText hands the tuples to an EmitFunc. Text fields pass through;
// every integer is rendered into one string for the whole call, so a
// kept field stays valid while the call costs one allocation however
// many integers it returns. The tuples are windows of one []string per
// call, so a callback that keeps a tuple slice against EmitFunc's rule
// (cmd/mrbench's queries.exec layer does) still keeps its tuple.
func (r *Req) emitText(emit EmitFunc) error {
	n := 0
	for _, f := range r.buf {
		if f.IsInt() {
			n += f.Len()
		}
	}
	// A strings.Builder never rewrites what it holds, so each integer
	// may be taken as a substring as soon as it is written.
	var b strings.Builder
	b.Grow(n)
	var digits [20]byte
	text := make([]string, len(r.buf))
	for i, f := range r.buf {
		if !f.IsInt() {
			text[i] = f.String()
			continue
		}
		at := b.Len()
		b.Write(f.Append(digits[:0]))
		text[i] = b.String()[at:]
	}
	w := r.q.Rows.width()
	for i := 0; i < len(text); i += w {
		if err := emit(text[i : i+w : i+w]); err != nil {
			return err
		}
	}
	return nil
}

// tuples sorts a retrieval's collected tuples in place, a tuple being
// Rows.width() consecutive fields of the request's buffer, in the order
// of their rendered text.
type tuples Req

func (t *tuples) Len() int { return len(t.buf) / t.q.Rows.width() }

func (t *tuples) Less(i, j int) bool {
	w := t.q.Rows.width()
	return slices.CompareFunc(t.buf[i*w:(i+1)*w], t.buf[j*w:(j+1)*w], protocol.Field.Compare) < 0
}

func (t *tuples) Swap(i, j int) {
	w := t.q.Rows.width()
	a, b := t.buf[i*w:(i+1)*w], t.buf[j*w:(j+1)*w]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// mutate is the mutation executor: typed arguments, then the body.
func (r *Req) mutate() error {
	if err := r.parse(); err != nil {
		return err
	}
	return r.q.Do(r)
}
