package queries

// Multiple-database routing (section 5.2.D): "The system is designed to
// allow further expansion of the current database, with the ultimate
// capability of Moira supporting multiple databases through the same
// query mechanism ... the application merely passes a query handle to a
// function, which then resolves the database and query."
//
// The paper notes the mechanism was "not functional at this time"; this
// implementation completes it. A handle may be qualified with a database
// name — "archive:get_user_by_login" — and the router resolves the
// database before the ordinary dispatch runs. Unqualified handles go to
// the default database, so existing applications are untouched.

import (
	"sort"
	"strings"
	"sync"

	"moira/internal/db"
	"moira/internal/mrerr"
)

// Router resolves qualified query handles onto attached databases.
type Router struct {
	mu  sync.RWMutex
	def *db.DB
	dbs map[string]*db.DB
}

// NewRouter creates a router whose unqualified handles hit def.
func NewRouter(def *db.DB) *Router {
	return &Router{def: def, dbs: make(map[string]*db.DB)}
}

// Attach registers a named database. Re-attaching a name replaces it.
func (r *Router) Attach(name string, d *db.DB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dbs[name] = d
}

// Detach removes a named database.
func (r *Router) Detach(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.dbs, name)
}

// Names lists the attached database names, sorted.
func (r *Router) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.dbs))
	for n := range r.dbs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve splits a possibly-qualified handle into its target database
// and the bare query name. Unknown database names fail with
// MR_NO_HANDLE, like unknown queries.
func (r *Router) Resolve(handle string) (*db.DB, string, error) {
	name, query, qualified := strings.Cut(handle, ":")
	if !qualified {
		return r.def, handle, nil
	}
	r.mu.RLock()
	target, ok := r.dbs[name]
	r.mu.RUnlock()
	if !ok {
		return nil, "", mrerr.MrNoHandle
	}
	return target, query, nil
}

// Route resolves a possibly-qualified handle to the context its query
// runs under and the bare query name. A handle on the caller's own
// database keeps cx. On another database the caller's identity is
// re-resolved — principals may have different ids (or not exist) in a
// secondary database, and access control must follow the data being
// touched.
func (r *Router) Route(cx *Context, handle string) (*Context, string, error) {
	target, query, err := r.Resolve(handle)
	if err != nil || target == cx.DB {
		return cx, query, err
	}
	routed := &Context{
		DB:         target,
		Principal:  cx.Principal,
		App:        cx.App,
		Privileged: cx.Privileged,
		Sessions:   cx.Sessions,
		TriggerDCM: cx.TriggerDCM,
		TraceID:    cx.TraceID,
		Stats:      cx.Stats,
	}
	routed.ResolveUser()
	return routed, query, nil
}
