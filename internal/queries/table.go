package queries

// The vocabulary of the handle table. An entry (Query) declares its
// arguments as typed kinds, each owning its parse, its canonicalization
// and the exact error it returns; an access rule as a value; the schema
// of the tuples it returns; and a body that sees only parsed, resolved
// values. The executors in queries.go run every entry the same way:
// arity and length, access, typed arguments in argument order, body.

import (
	"strconv"
	"strings"
	"sync"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/util"
)

// maxArgs bounds an entry's arity (update_filesys takes 12).
const maxArgs = 12

// Query is one entry of the handle table.
type Query struct {
	Name  string // long name, e.g. "get_user_by_login"
	Short string // short tag, e.g. "gubl"
	Kind  Kind
	In    []Arg   // typed argument schema, checked in argument order
	Rows  *Schema // typed tuple schema of a retrieval
	// IndexOrder returns tuples in the order the body produced them
	// (the relation's index order) instead of sorted.
	IndexOrder bool
	Access     Rule
	// Do is the entry's body. It runs after the arity, access and
	// typed-argument checks, and adds tuples with Row.
	Do func(r *Req) error

	Args []string // argument names, filled from In by Register
}

// Req is one call of an entry: the caller, the raw arguments and their
// typed values, and the tuples the body adds.
type Req struct {
	*Context
	q    *Query
	Args []string
	s    [maxArgs]string  // arguments in canonical form
	n    [maxArgs]int     // integer, boolean and tri-state values; ACE ids
	o    [maxArgs]any     // resolved rows
	buf  []protocol.Field // tuple fields, Rows.width() per tuple
	self bool             // self-restricted read by a caller off the query ACL
	err  error            // a row the caller may not see (MR_PERM)
	snap Context          // the retrieval's snapshot copy of the caller
}

// maxPooledFields caps the tuple buffer a pooled Req keeps (1 MiB of
// fields, like protocol's frame buffers), so one whole-relation read
// does not stay resident.
const maxPooledFields = 1 << 15

var reqPool = sync.Pool{New: func() any { return new(Req) }}

func newReq(q *Query, args []string) *Req {
	r := reqPool.Get().(*Req)
	r.q, r.Args = q, args
	return r
}

// free returns r to the pool. Its tuple buffer survives, cleared so it
// pins no snapshot's strings, unless it grew past maxPooledFields.
func (r *Req) free() {
	buf := r.buf
	clear(buf)
	if cap(buf) > maxPooledFields {
		buf = nil
	}
	*r = Req{buf: buf[:0]}
	reqPool.Put(r)
}

// Row adds one tuple. The executor sorts the tuples (unless the entry
// keeps index order) and returns MR_NO_MATCH when there are none.
func (r *Req) Row(fields ...protocol.Field) { r.buf = append(r.buf, fields...) }

// Field constructors for Row: text, a decimal integer, a 0/1 flag.
func txt(s string) protocol.Field { return protocol.Text(s) }

func dec[I int | int64](n I) protocol.Field { return protocol.Int(int64(n)) }

func bit(b bool) protocol.Field {
	if b {
		return protocol.Int(1)
	}
	return protocol.Int(0)
}

// obj is argument i's resolved row.
func obj[T any](r *Req, i int) *T { return r.o[i].(*T) }

// flag is boolean argument i.
func (r *Req) flag(i int) bool { return r.n[i] != 0 }

// --- argument kinds ---

type argKind uint8

const (
	aStr        argKind = iota // taken as given (after canonicalization)
	aInt                       // integer; MR_INTEGER
	aNonNeg                    // integer ≥ 0; MR_INTEGER
	aBool                      // integer, non-zero true; MR_INTEGER
	aGID                       // integer; UNIQUE_GID allocates when argument Ref (group) is set
	aTri                       // TRUE/FALSE/DONTCARE; MR_TYPE
	aName                      // checked object name; MR_BAD_CHAR
	aType                      // registered TYPE alias of Field; Err
	aOne                       // exactly one row of Rel matches the pattern
	aExact                     // the row of Rel with this exact key; Err
	aFresh                     // checked name no row of Rel holds yet; Err
	aRename                    // new name of argument Ref's row: checked, MR_NOT_UNIQUE if taken
	aACE                       // (ace_type, ace_name) pair starting here; MR_ACE
	aListACE                   // an ACE pair that may name the list itself (argument Ref)
	aMember                    // (type, member) pair of an existing member
	aNewMember                 // (type, member) pair, interning a new STRING
	aHost                      // machine of a serverhost of argument Ref's service; MR_NO_MATCH
	aIdleHost                  // aHost not in progress; MR_IN_USE
	aPhys                      // partition directory on argument Ref's machine; Err
	aPack                      // NFS packname of a filesystem (see nfsPack)
	aHostAccess                // machine with a hostaccess row; MR_MACHINE, MR_NO_MATCH
)

type canon uint8

const (
	asGiven  canon = iota
	upper          // strings.ToUpper
	hostname       // util.CanonicalizeHostname
)

// Arg is one typed argument.
type Arg struct {
	Name  string
	Kind  argKind
	Canon canon    // the form checks and the body see
	Rel   relation // relation of lookup kinds
	Field string   // alias type of aType
	Err   error    // the code a failed check returns; nil: the kind's own
	Ref   int      // the related argument of kinds that read another
}

func arg(name string) Arg              { return Arg{Name: name} }
func pattern(name string, c canon) Arg { return Arg{Name: name, Canon: c} }
func num(name string) Arg              { return Arg{Name: name, Kind: aInt} }
func flag(name string) Arg             { return Arg{Name: name, Kind: aBool} }
func tri(name string) Arg              { return Arg{Name: name, Kind: aTri} }
func typed(name, field string, e error) Arg {
	return Arg{Name: name, Kind: aType, Field: field, Err: e}
}
func ace(name string) Arg { return Arg{Name: name, Kind: aACE} }

// one resolves a pattern that must match exactly one row; a nil err
// keeps the relation's own "no such" code and MR_NOT_UNIQUE.
func one(name string, rel relation, err error) Arg {
	return Arg{Name: name, Kind: aOne, Rel: rel, Err: err}
}

// machineArg is one() of a machine name, canonicalized.
func machineArg(name string, err error) Arg {
	return Arg{Name: name, Kind: aOne, Canon: hostname, Rel: db.Machines, Err: err}
}

func exact(name string, rel relation, err error) Arg {
	return Arg{Name: name, Kind: aExact, Rel: rel, Err: err}
}

func fresh(name string, rel relation, err error) Arg {
	return Arg{Name: name, Kind: aFresh, Rel: rel, Err: err}
}

func rename(name string, rel relation) Arg { return Arg{Name: name, Kind: aRename, Rel: rel} }

// fail is the code a lookup of a that found n rows returns.
func (a *Arg) fail(n int) error {
	switch {
	case a.Err != nil:
		return a.Err
	case n == 0:
		return a.Rel.Missing()
	}
	return mrerr.MrNotUnique
}

// parse checks and resolves the typed arguments in argument order.
func (r *Req) parse() error {
	for i := range r.q.In {
		if err := r.parseArg(i, &r.q.In[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *Req) parseArg(i int, a *Arg) error {
	d, v := r.DB, r.Args[i]
	switch a.Canon {
	case upper:
		v = strings.ToUpper(v)
	case hostname:
		v = util.CanonicalizeHostname(v)
	}
	r.s[i] = v
	switch a.Kind {
	case aInt, aNonNeg, aBool, aGID:
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || (a.Kind == aNonNeg && n < 0) {
			return mrerr.MrInteger
		}
		if a.Kind == aBool && n != 0 {
			n = 1
		}
		if a.Kind == aGID && r.n[a.Ref] != 0 && v == UniqueGID {
			if n, err = d.AllocID("gid"); err != nil {
				return err
			}
		}
		r.n[i] = n
	case aTri:
		t, ok := parseTri(v)
		if !ok {
			return mrerr.MrType
		}
		r.n[i] = int(t)
	case aName:
		return checkNameChars(v)
	case aType:
		if !d.IsValidType(a.Field, v) {
			return a.Err
		}
	case aOne:
		o, n := a.Rel.Resolve(d, v, true)
		if n != 1 {
			return a.fail(n)
		}
		r.o[i] = o
	case aExact:
		o, n := a.Rel.Resolve(d, v, false)
		if n == 0 {
			return a.Err
		}
		r.o[i] = o
	case aFresh:
		if err := checkNameChars(v); err != nil {
			return err
		}
		if _, n := a.Rel.Resolve(d, v, false); n > 0 {
			return a.Err
		}
	case aRename:
		cur := a.Rel.NameOf(r.o[a.Ref])
		if a.Rel != db.Users || v != cur {
			if err := checkNameChars(v); err != nil {
				return err
			}
		}
		if v != cur {
			if _, n := a.Rel.Resolve(d, v, false); n > 0 {
				return mrerr.MrNotUnique
			}
		}
	case aListACE:
		if v == db.ACEList && r.Args[i+1] == r.Args[a.Ref] {
			r.s[i], r.n[i] = db.ACEList, -1 // the list itself: the body fills in its id
			return nil
		}
		fallthrough
	case aACE:
		t, id, err := acl.ResolveACE(d, v, r.Args[i+1])
		if err != nil {
			return err
		}
		r.s[i], r.n[i] = t, id
	case aMember, aNewMember:
		id, err := memberResolve(d, v, r.Args[i+1], a.Kind == aNewMember)
		if err != nil {
			return err
		}
		r.n[i] = id
	case aHost, aIdleHost:
		m, n := a.Rel.Resolve(d, v, true)
		if n != 1 {
			return a.fail(n)
		}
		machID := m.(*db.Machine).MachID
		sh, ok := db.ServerHosts.Find(d, obj[db.Server](r, a.Ref).Name, func(sh *db.ServerHost) bool { return sh.MachID == machID })
		if !ok {
			return mrerr.MrNoMatch
		}
		if a.Kind == aIdleHost && sh.InProgress {
			return mrerr.MrInUse
		}
		r.o[i] = sh
	case aPhys:
		p, ok := partitionAt(d, obj[db.Machine](r, a.Ref).MachID, v)
		if !ok {
			return a.Err
		}
		r.o[i] = p
	case aPack:
		return nfsPack(r, i)
	case aHostAccess:
		m, n := a.Rel.Resolve(d, v, true)
		if n != 1 {
			return mrerr.MrMachine
		}
		h, ok := db.HostAccesses.ByID(d, m.(*db.Machine).MachID)
		if !ok {
			return mrerr.MrNoMatch
		}
		r.o[i] = h
	}
	return nil
}

// parseTri reads the TRUE/FALSE/DONTCARE tri-state of the
// qualified_get_* queries.
func parseTri(s string) (triState, bool) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "TRUE":
		return triTrue, true
	case "FALSE":
		return triFalse, true
	case "DONTCARE", "DONT-CARE", "DONT_CARE":
		return triDontCare, true
	}
	return 0, false
}

type triState int

const (
	triFalse triState = iota
	triTrue
	triDontCare
)

// match reports whether v satisfies tri-state argument i.
func (r *Req) match(i int, v bool) bool {
	switch triState(r.n[i]) {
	case triTrue:
		return v
	case triFalse:
		return !v
	}
	return true
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

// relation is a relation handle the lookup kinds resolve against
// (db.Users, db.Lists, ...): Resolve finds the rows a name or pattern
// names, NameOf is the key a rename changes, and Missing the relation's
// "no such object" code.
type relation interface {
	Resolve(d *db.DB, name string, pattern bool) (row any, n int)
	NameOf(row any) string
	Missing() error
}

// --- access rules ---

type ruleKind uint8

const (
	ruleACL         ruleKind = iota // the query's capability ACL
	ruleAnyone                      // every caller, authenticated or not
	ruleSelf                        // the ACL, or the user named by argument arg
	ruleSelfRows                    // anyone; off the ACL only the caller's own user rows
	ruleListACE                     // the ACL, or the ACE of the list argument arg
	ruleListRead                    // ruleListACE, or any caller if that list is not hidden
	ruleSelfAdd                     // ruleListACE, or the caller adding or removing themselves on a public list
	ruleServiceACE                  // the ACL, or the ACE of the service argument arg
	ruleServiceRead                 // ruleServiceACE, MR_PERM when the pattern is not one service
	ruleCustom                      // a named bespoke rule
)

// Rule is an entry's access rule. The zero Rule is the query ACL.
type Rule struct {
	kind ruleKind
	arg  int
	fn   func(r *Req) error
}

// Anyone allows every caller, authenticated or not: the queries the
// paper marks "safe for the list containing everybody".
var Anyone = Rule{kind: ruleAnyone}

var selfRows = Rule{kind: ruleSelfRows}

func self(i int) Rule                   { return Rule{kind: ruleSelf, arg: i} }
func listACE(i int) Rule                { return Rule{kind: ruleListACE, arg: i} }
func listRead(i int) Rule               { return Rule{kind: ruleListRead, arg: i} }
func selfAdd(i int) Rule                { return Rule{kind: ruleSelfAdd, arg: i} }
func serviceACE(i int) Rule             { return Rule{kind: ruleServiceACE, arg: i} }
func serviceRead(i int) Rule            { return Rule{kind: ruleServiceRead, arg: i} }
func custom(fn func(r *Req) error) Rule { return Rule{kind: ruleCustom, fn: fn} }

// access runs the entry's rule, memoized by the connection's access
// cache. Privileged callers pass every rule.
func (r *Req) access() error {
	if r.Privileged || r.cacheLookup(r.q.Name, r.Args) {
		return nil
	}
	if err := r.rule(); err != nil {
		return err
	}
	r.cacheStore(r.q.Name, r.Args)
	return nil
}

func (r *Req) rule() error {
	a := r.q.Access
	switch a.kind {
	case ruleAnyone, ruleSelfRows:
		return nil
	case ruleCustom:
		return a.fn(r)
	}
	if r.onACL(r.q.Name) {
		return nil
	}
	switch a.kind {
	case ruleSelf:
		if r.Principal != "" && r.Args[a.arg] == r.Principal {
			return nil
		}
	case ruleListACE, ruleListRead, ruleSelfAdd:
		o, n := db.Lists.Resolve(r.DB, r.Args[a.arg], true)
		if n != 1 {
			return (&Arg{Rel: db.Lists}).fail(n)
		}
		l := o.(*db.List)
		if onListACE(r.Context, l) || (a.kind == ruleListRead && !l.Hidden) ||
			(a.kind == ruleSelfAdd && l.Public && r.Args[a.arg+1] == db.ACEUser &&
				r.Args[a.arg+2] == r.Principal && r.UserID != 0) {
			return nil
		}
	case ruleServiceACE, ruleServiceRead:
		o, n := db.Servers.Resolve(r.DB, strings.ToUpper(r.Args[a.arg]), true)
		if n != 1 && a.kind == ruleServiceACE {
			return (&Arg{Rel: db.Servers}).fail(n)
		}
		if n == 1 && onServiceACE(r.Context, o.(*db.Server)) {
			return nil
		}
	}
	return mrerr.MrPerm
}

// onListACE reports whether the caller satisfies the list's ACE.
func onListACE(cx *Context, l *db.List) bool {
	return cx.Privileged || acl.CheckACE(cx.DB, l.ACLType, l.ACLID, cx.UserID)
}

// onServiceACE reports whether the caller satisfies the service's ACE.
func onServiceACE(cx *Context, s *db.Server) bool {
	return cx.Privileged || acl.CheckACE(cx.DB, s.ACLType, s.ACLID, cx.UserID)
}

// --- tuple schemas ---

// Schema is a tuple shape: column names and types, declared once per
// row shape and shared by every entry that returns it. Columns are
// text unless typed ":int" (a decimal integer), ":bool" ("0"/"1") or
// ":time" (unix seconds); a typed column carries integer fields (dec,
// bit), which the reply codec writes in decimal.
type Schema struct {
	names []string
	types []string
}

// Columns declares a schema from "name[:type] ..." fields.
func Columns(spec string) *Schema {
	s := &Schema{}
	for _, f := range strings.Fields(spec) {
		name, typ, _ := strings.Cut(f, ":")
		s.names = append(s.names, name)
		s.types = append(s.types, typ)
	}
	return s
}

func (s *Schema) width() int { return len(s.names) }
