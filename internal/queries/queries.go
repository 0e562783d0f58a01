// Package queries implements Moira's predefined query handles (section
// 7): the named, access-controlled database operations that are the only
// way any client — administrative application or the DCM — touches the
// database. The set defined here covers every query in the paper, over
// 100 handles across users, machines, clusters, lists, servers,
// filesystems, zephyr classes, and the miscellaneous relations, plus the
// built-in _help/_list_queries/_list_users.
//
// Each query declares its argument count, its class (retrieve, append,
// update, delete), a validation/access policy, and a handler. Mutations
// run under the exclusive database lock; retrievals run lock-free
// against an immutable snapshot (db.Reader). Either way every query is
// a serializable transaction like the original's single INGRES backend.
package queries

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/health"
	"moira/internal/mrerr"
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

	// Traces, when set by the server, backs the _trace query handle.
	Traces func() []stats.TraceEntry

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

// EmitFunc receives one returned tuple. Returning an error aborts the
// query (e.g. the client connection died).
type EmitFunc func(tuple []string) error

// AccessFunc decides whether the caller may run the query with the given
// arguments. It runs with the shared lock held. nil means "capability ACL
// only" for mutations and "anyone" for retrieves.
type AccessFunc func(cx *Context, args []string) error

// HandlerFunc executes the query. The appropriate lock is already held.
type HandlerFunc func(cx *Context, args []string, emit EmitFunc) error

// Query is one predefined query handle.
type Query struct {
	Name    string   // long name, e.g. "get_user_by_login"
	Short   string   // short tag, e.g. "gubl"
	Kind    Kind     //
	Args    []string // argument names, for _help
	Returns []string // return field names, for _help
	// VarArgs marks queries accepting len(Args) as a minimum (unused by
	// the paper's set but kept for extension).
	VarArgs bool
	Access  AccessFunc
	Handler HandlerFunc
}

var (
	byName  = map[string]*Query{}
	ordered []*Query
)

// register installs a query in the registry; it panics on duplicate
// names, which would be a build-time bug.
func register(q *Query) {
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

// Register installs an additional query handle. The paper's set is
// registered at init; extensions (and tests that need a handle with
// specific behaviour, like the server's panic-recovery test) add theirs
// here. It panics on a duplicate name, which is a build-time bug.
func Register(q *Query) { register(q) }

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
// by the query kind, runs the handler, and journals successful mutations.
func Execute(cx *Context, name string, args []string, emit EmitFunc) error {
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
		// access check and handler included — so it can never observe a
		// torn multi-table view, and it never blocks the writer. The
		// shallow Context copy redirects only this query at the snapshot;
		// the access cache lives on the original context and stays
		// coherent because the snapshot's change sequence equals the live
		// database's at the moment Reader() returned it.
		scx := *cx
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
		scx.DB = cx.DB.Reader()
		if cx.Span != nil {
			t1 := time.Now()
			cx.Span.Record("server.snapshot", t0, t1.Sub(t0), 0)
			t0 = t1
		}
		if err := checkAccessLocked(&scx, q, args); err != nil {
			return err
		}
		err := q.Handler(&scx, args, emit)
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
	// The locked section runs in a closure so its deferred unlock fires
	// before the commit gate below: waiting on a replica ack must not
	// hold the exclusive lock, or replication lag would stall readers
	// and every other writer.
	err := func() error {
		cx.DB.LockExclusive()
		defer cx.DB.UnlockExclusive()
		if err := checkAccessLocked(cx, q, args); err != nil {
			return err
		}
		var t0 time.Time
		if cx.Span != nil {
			t0 = time.Now()
		}
		if err := q.Handler(cx, args, emit); err != nil {
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
	scx := *cx
	scx.DB = cx.DB.Reader()
	return checkAccessLocked(&scx, q, args)
}

func checkArgs(q *Query, args []string) error {
	if q.VarArgs {
		if len(args) < len(q.Args) {
			return mrerr.MrArgs
		}
	} else if len(args) != len(q.Args) {
		return mrerr.MrArgs
	}
	for _, a := range args {
		if len(a) > MaxArgLen {
			return mrerr.MrArgTooLong
		}
	}
	return nil
}

func checkAccessLocked(cx *Context, q *Query, args []string) error {
	if cx.Privileged {
		return nil
	}
	if cx.cacheLookup(q.Name, args) {
		return nil
	}
	if err := rawAccessLocked(cx, q, args); err != nil {
		return err
	}
	cx.cacheStore(q.Name, args)
	return nil
}

func rawAccessLocked(cx *Context, q *Query, args []string) error {
	if q.Access != nil {
		return q.Access(cx, args)
	}
	if q.Kind == Retrieve {
		return nil
	}
	if cx.onACL(q.Name) {
		return nil
	}
	return mrerr.MrPerm
}

// --- shared access policies ---

// accessAnyone allows every caller, authenticated or not; used for the
// queries the paper marks "safe for the list containing everybody".
func accessAnyone(*Context, []string) error { return nil }

// --- small shared helpers used by the handler files ---

func i2s(i int) string { return strconv.Itoa(i) }

func i642s(i int64) string { return strconv.FormatInt(i, 10) }

func b2s(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// parseInt parses an integer argument, failing with MR_INTEGER.
func parseInt(s string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, mrerr.MrInteger
	}
	return v, nil
}

// parseBool parses a boolean argument (integer, 0 false / non-zero true).
func parseBool(s string) (bool, error) {
	v, err := parseInt(s)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// TRUE/FALSE/DONTCARE tri-state used by the qualified_get_* queries.
type triState int

const (
	triFalse triState = iota
	triTrue
	triDontCare
)

func parseTri(s string) (triState, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "TRUE":
		return triTrue, nil
	case "FALSE":
		return triFalse, nil
	case "DONTCARE", "DONT-CARE", "DONT_CARE":
		return triDontCare, nil
	default:
		return 0, mrerr.MrType
	}
}

func (t triState) matches(v bool) bool {
	switch t {
	case triTrue:
		return v
	case triFalse:
		return !v
	default:
		return true
	}
}

// checkNameChars enforces the character restrictions on object names:
// non-empty, printable ASCII, and none of the characters that break the
// dump format, wildcard matching, or the downstream config files.
func checkNameChars(s string) error {
	if s == "" {
		return mrerr.MrBadChar
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c >= 0x7f {
			return mrerr.MrBadChar
		}
		switch c {
		case ':', '*', '?', '\\', '"', ',':
			return mrerr.MrBadChar
		}
	}
	return nil
}

// emitSorted is a helper for handlers that gather tuples then emit them
// in a deterministic order.
func emitSorted(tuples [][]string, emit EmitFunc) error {
	sort.Slice(tuples, func(i, j int) bool {
		a, b := tuples[i], tuples[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	for _, t := range tuples {
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}

// noMatchIfEmpty converts "emitted nothing" into MR_NO_MATCH, the paper's
// behaviour for retrieval queries.
type countingEmit struct {
	emit EmitFunc
	n    int
}

func (c *countingEmit) fn(t []string) error {
	c.n++
	return c.emit(t)
}

func (c *countingEmit) result() error {
	if c.n == 0 {
		return mrerr.MrNoMatch
	}
	return nil
}
