// Package gen contains the DCM's generator sub-programs (section 5.7.1):
// for each supported service, the code that extracts Moira data and
// converts it to the server-specific file formats of section 5.8 —
// Hesiod BIND files, NFS credentials/quota/directory files, the sendmail
// aliases file, and Zephyr ACL files.
//
// Every generator is written as a keyed emitter over an extract.Model:
// the full build enumerates the domain and emits each logical key; an
// incremental pass (driven by the extract.Planner from journal deltas)
// deletes the dirty keys and re-emits just those. Both paths share the
// per-key emit functions, which is what makes an incremental extract
// byte-identical to a from-scratch one by construction.
package gen

import (
	"fmt"
	"sort"
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/extract"
	"moira/internal/update"
)

// Result is the output of one generator run.
type Result struct {
	// Common is the bundle propagated identically to every host of the
	// service (hesiod, mail, zephyr). nil when the service is per-host.
	Common []byte
	// PerHost maps canonical machine name to that host's bundle (NFS).
	PerHost map[string][]byte
	// Files flattens every generated file (per-host files are prefixed
	// "HOST/") for inspection, sizing, and the Table G harness.
	Files map[string][]byte
	// NumFiles counts generated files; TotalBytes their summed size.
	NumFiles   int
	TotalBytes int
}

func (r *Result) finish() {
	r.NumFiles = len(r.Files)
	r.TotalBytes = 0
	for _, f := range r.Files {
		r.TotalBytes += len(f)
	}
}

// Incremental is a keyed generator: the full build, the journal-record
// dependency map, and the per-key emit, packaged for the extract
// planner. Emit must produce exactly the entries the full build would
// produce for that key against current database state.
type Incremental struct {
	TablesList []string
	BuildFn    func(d *db.DB) (*extract.Model, error)
	DepsFn     func(d *db.DB, rec *db.JournalRecord) ([]string, bool)
	EmitFn     func(d *db.DB, m *extract.Model, key string)
}

// Tables implements extract.Generator.
func (g *Incremental) Tables() []string { return g.TablesList }

// Build implements extract.Generator.
func (g *Incremental) Build(d *db.DB) (*extract.Model, error) { return g.BuildFn(d) }

// Deps implements extract.Generator.
func (g *Incremental) Deps(d *db.DB, rec *db.JournalRecord) ([]string, bool) {
	return g.DepsFn(d, rec)
}

// Apply implements extract.Generator: delete each dirty key, re-emit it.
func (g *Incremental) Apply(d *db.DB, m *extract.Model, keys []string) error {
	for _, k := range keys {
		m.DeleteKey(k)
		g.EmitFn(d, m, k)
	}
	return nil
}

// Incrementals maps DCM service names to their keyed generators, the
// equivalent of the /u1/sms/bin/<service>.gen modules.
var Incrementals = map[string]*Incremental{
	"HESIOD": HesiodIncremental,
	"NFS":    NFSIncremental,
	"SMTP":   MailIncremental,
	"ZEPHYR": ZephyrIncremental,
}

// Scratch holds one service's reusable bundle buffers between DCM
// passes. Rebuilding a service's tar bundles allocates tens of
// megabytes per pass; recycling the previous pass's buffers keeps an
// incremental pass's allocation proportional to the delta. A Scratch
// must not be shared across services generating concurrently, and the
// previous pass's bundles must be fully consumed (pushed) before the
// next render overwrites them.
type Scratch struct {
	bufs map[string][]byte
}

// NewScratch returns an empty bundle-buffer cache.
func NewScratch() *Scratch { return &Scratch{bufs: map[string][]byte{}} }

// FromModel converts a rendered model into a generator Result: files
// named "HOST/path" group into per-host tar bundles, files without a
// slash form the common bundle.
func FromModel(m *extract.Model) (*Result, error) {
	return FromModelInto(m, nil)
}

// FromModelInto is FromModel rendering the bundles into s's recycled
// buffers (s may be nil for plain allocation).
func FromModelInto(m *extract.Model, s *Scratch) (*Result, error) {
	files := m.Files()
	common := map[string][]byte{}
	perHost := map[string]map[string][]byte{}
	r := &Result{Files: map[string][]byte{}}
	for name, data := range files {
		if host, rest, ok := strings.Cut(name, "/"); ok {
			if perHost[host] == nil {
				perHost[host] = map[string][]byte{}
			}
			perHost[host][rest] = data
		} else {
			common[name] = data
		}
		r.Files[name] = data
	}
	bundleInto := func(key string, fs map[string][]byte) ([]byte, error) {
		var prev []byte
		if s != nil {
			prev = s.bufs[key]
		}
		tarball, err := update.BuildTarInto(prev, fs)
		if err == nil && s != nil {
			s.bufs[key] = tarball
		}
		return tarball, err
	}
	if len(common) > 0 {
		tarball, err := bundleInto("", common)
		if err != nil {
			return nil, err
		}
		r.Common = tarball
	}
	if len(perHost) > 0 {
		r.PerHost = map[string][]byte{}
		for host, hf := range perHost {
			tarball, err := bundleInto("/"+host, hf)
			if err != nil {
				return nil, err
			}
			r.PerHost[host] = tarball
		}
	}
	r.finish()
	return r, nil
}

// Generate runs g from scratch against d: the full build under the
// shared lock, rendered to bundles. This is what a planner's full pass
// produces, for callers (tests, benchmarks, the Table G harness) that
// want a service's files without a DCM around them.
func Generate(d *db.DB, g *Incremental) (*Result, error) {
	d.LockShared()
	m, err := g.Build(d)
	d.UnlockShared()
	if err != nil {
		return nil, err
	}
	return FromModel(m)
}

// shortHost returns the lowercase first label of a hostname, the form
// the hesiod filsys data uses ("charon" for CHARON.MIT.EDU).
func shortHost(name string) string {
	name = strings.ToLower(name)
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// hsLine renders one hesiod record: `name HS UNSPECA "data"`.
func hsLine(b *strings.Builder, name, data string) {
	fmt.Fprintf(b, "%s HS UNSPECA \"%s\"\n", name, data)
}

// cnameLine renders a hesiod CNAME record.
func cnameLine(b *strings.Builder, name, target string) {
	fmt.Fprintf(b, "%s HS CNAME %s\n", name, target)
}

// listLess orders group lists by (GID, ListID) — GID first for the
// paper's ordering, ListID to break GID ties deterministically (the
// old sort.Slice by GID alone left tie order unstable, which an
// incremental re-insert could never reproduce).
func listLess(a, b *db.List) bool {
	if a.GID != b.GID {
		return a.GID < b.GID
	}
	return a.ListID < b.ListID
}

// activeGroups returns the active group lists, sorted by (GID, ListID).
func activeGroups(d *db.DB) []*db.List {
	var out []*db.List
	d.EachList(func(l *db.List) bool {
		if l.Active && l.Group {
			out = append(out, l)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return listLess(out[i], out[j]) })
	return out
}

// upLists returns the IDs of every list transitively containing the
// member (mtype, mid): the upward closure through LIST memberships,
// cycle-safe. It is the inverse walk of acl.ExpandMembers — a member
// is in ExpandMembers(L) exactly when L is in upLists(member).
func upLists(d *db.DB, mtype string, mid int) map[int]bool {
	seen := map[int]bool{}
	queue := append([]int(nil), d.ListsContaining(mtype, mid)...)
	for len(queue) > 0 {
		lid := queue[0]
		queue = queue[1:]
		if seen[lid] {
			continue
		}
		seen[lid] = true
		queue = append(queue, d.ListsContaining(db.ACEList, lid)...)
	}
	return seen
}

// activeGroupsOfUser returns the active group lists containing the user
// (directly or through sublists) in (GID, ListID) order with the user's
// namesake group first — the ordering visible in the paper's grplist.db
// example.
func activeGroupsOfUser(d *db.DB, u *db.User) []*db.List {
	var gs []*db.List
	for lid := range upLists(d, db.ACEUser, u.UsersID) {
		if l, ok := d.ListByID(lid); ok && l.Active && l.Group {
			gs = append(gs, l)
		}
	}
	sort.Slice(gs, func(i, j int) bool { return listLess(gs[i], gs[j]) })
	var own *db.List
	var rest []*db.List
	for _, g := range gs {
		if g.Name == u.Login && own == nil {
			own = g
		} else {
			rest = append(rest, g)
		}
	}
	if own != nil {
		return append([]*db.List{own}, rest...)
	}
	return rest
}

// upListKeys renders the upward closure of (mtype, mid) as "list:" keys
// for dependency maps: a change inside a list is visible to every list
// that (transitively) contains it.
func upListKeys(d *db.DB, mtype string, mid int) []string {
	var keys []string
	for lid := range upLists(d, mtype, mid) {
		if l, ok := d.ListByID(lid); ok {
			keys = append(keys, "list:"+l.Name)
		}
	}
	return keys
}

// userKeysUnder renders "user:" keys for every user in the downward
// expansion of a list — the users whose derived lines change when the
// list's membership or flags change.
func userKeysUnder(d *db.DB, listID int) []string {
	var keys []string
	for _, m := range acl.ExpandMembers(d, listID) {
		if m.MemberType == db.ACEUser {
			if u, ok := d.UserByID(m.MemberID); ok {
				keys = append(keys, "user:"+u.Login)
			}
		}
	}
	return keys
}
