// Package gen contains the DCM's generator sub-programs (section 5.7.1):
// for each supported service, the code that extracts Moira data and
// converts it to the server-specific file formats of section 5.8 —
// Hesiod BIND files, NFS credentials/quota/directory files, the sendmail
// aliases file, and Zephyr ACL files.
//
// Every generator is written as a keyed emitter over an extract.Model:
// the full build enumerates the domain and emits each logical key; an
// incremental pass (driven by the extract.Planner from the rows that
// changed between two database snapshots) deletes the dirty keys and
// re-emits just those. Both paths share the per-key emit functions,
// which is what makes an incremental extract byte-identical to a
// from-scratch one by construction.
package gen

import (
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
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
	// Bundles maps each bundle's key ("" for Common, else the host of a
	// PerHost bundle) to it ready to push: its sum, and its edits from
	// its base, the bundle the same Scratch rendered last under that key.
	// The base is the empty file (the edit is the whole bundle) when
	// there is no such bundle or the model cannot say what changed since.
	Bundles map[string]*update.Bundle
	// Rendered counts the bundle bytes the render wrote: a bundle's
	// whole length when it was written anew, the bytes of its edits when
	// it was patched.
	Rendered int
}

func (r *Result) finish() {
	r.NumFiles = len(r.Files)
	r.TotalBytes = 0
	for _, f := range r.Files {
		r.TotalBytes += len(f)
	}
}

// Incremental is a keyed generator: the full build, the relations it
// reads with the keys a changed row dirties, and the per-key emit,
// packaged for the extract planner. Emit must produce exactly the
// entries the full build would produce for that key against the same
// snapshot.
type Incremental struct {
	ReadList []extract.Read
	BuildFn  func(d *db.DB) (*extract.Model, error)
	EmitFn   func(d *db.DB, m *extract.Model, key string)
}

// Reads implements extract.Generator.
func (g *Incremental) Reads() []extract.Read { return g.ReadList }

// Tables lists the relations feeding the extract.
func (g *Incremental) Tables() []string { return extract.Tables(g.ReadList) }

// Build implements extract.Generator.
func (g *Incremental) Build(d *db.DB) (*extract.Model, error) { return g.BuildFn(d) }

// Apply implements extract.Generator: delete each dirty key, re-emit it.
func (g *Incremental) Apply(d *db.DB, m *extract.Model, keys []string) error {
	for _, k := range keys {
		m.DeleteKey(k)
		g.EmitFn(d, m, k)
	}
	return nil
}

// on declares that an extract reads the columns cols projects from the
// rows of table (cols returns a row holding only those columns), and
// which keys a changed row dirties: the planner calls keys on the old
// row in the old snapshot and on the new row in the new one. A row whose
// projection did not change dirties nothing, and an absent row projects
// to the zero value, so a projection that is zero for the rows an
// extract ignores makes their inserts and deletes dirty nothing too.
func on[R any, C comparable](table string, cols func(*R) C, keys func(d *db.DB, r *R, add func(string))) extract.Read {
	r := full(table, cols)
	r.Keys = func(d *db.DB, row any, add func(string)) { keys(d, row.(*R), add) }
	return r
}

// full declares table full for an extract: a change to the columns cols
// projects rebuilds the whole extract.
func full[R any, C comparable](table string, cols func(*R) C) extract.Read {
	proj := func(row any) (c C) {
		if r, ok := row.(*R); ok {
			c = cols(r)
		}
		return c
	}
	return extract.Read{Table: table, Same: func(o, n any) bool { return proj(o) == proj(n) }}
}

// whole projects every column of a row.
func whole[R any](r *R) R { return *r }

// machineName projects the column extracts read from a machine row.
func machineName(m *db.Machine) string { return m.Name }

// Incrementals maps DCM service names to their keyed generators, the
// equivalent of the /u1/sms/bin/<service>.gen modules.
var Incrementals = map[string]*Incremental{
	"HESIOD": HesiodIncremental,
	"NFS":    NFSIncremental,
	"SMTP":   MailIncremental,
	"ZEPHYR": ZephyrIncremental,
}

// Scratch holds one service's bundles between DCM passes, and what each
// holds: its sum, and its members' names, sizes, offsets and model
// versions, from which the next render's edits follow. A bundle whose
// member list is unchanged and whose model knows each member's changes
// is patched in place: its unchanged bytes move to their new offsets
// and only the changed ones are written, so an incremental pass costs
// what changed, not the bundle. The grouping of the model's files into
// bundles is kept too, and redone only when the file list changes. A
// Scratch must not be shared across services generating concurrently,
// and the previous pass's bundles must be fully consumed (pushed) before
// the next render overwrites them.
type Scratch struct {
	names   []string // the model's files at the last render
	bundles []*rendered
}

// rendered is a bundle as a Scratch last rendered it.
type rendered struct {
	key      string   // "" for the common bundle, "/HOST" for a host's
	names    []string // the model files it holds, in member order
	members  []string // their member names: each name less "HOST/"
	buf      []byte
	sum      update.Sum
	held     []string // the names buf holds; nil before the first render
	sizes    []int    // buf's members' sizes and where their data starts
	offs     []int
	versions []uint64 // their model versions
	edits    []update.Splice

	nsizes, noffs []int // the next render's sizes and offsets
}

// NewScratch returns an empty bundle-buffer cache.
func NewScratch() *Scratch { return &Scratch{} }

// FromModel converts a rendered model into a generator Result: files
// named "HOST/path" group into per-host tar bundles, files without a
// slash form the common bundle.
func FromModel(m *extract.Model) (*Result, error) {
	return FromModelInto(m, nil)
}

// FromModelInto is FromModel rendering the bundles into s's recycled
// buffers (s may be nil for plain allocation). The model's files are
// written straight into the bundles, and Result.Files aliases the
// bundles' member data.
func FromModelInto(m *extract.Model, s *Scratch) (*Result, error) {
	if s == nil {
		s = NewScratch()
	}
	if names := m.Names(); !slices.Equal(names, s.names) {
		s.group(names)
	}
	r := &Result{Files: make(map[string][]byte, len(s.names)), Bundles: make(map[string]*update.Bundle, len(s.bundles))}
	for _, prev := range s.bundles {
		b, written, err := prev.render(m)
		if err != nil {
			return nil, err
		}
		r.Rendered += written
		r.Bundles[strings.TrimPrefix(prev.key, "/")] = b
		for i, name := range prev.names {
			lo, hi := prev.offs[i], prev.offs[i]+prev.sizes[i]
			r.Files[name] = b.Data[lo:hi:hi]
		}
		if prev.key == "" {
			r.Common = b.Data
		} else {
			if r.PerHost == nil {
				r.PerHost = map[string][]byte{}
			}
			r.PerHost[prev.key[1:]] = b.Data
		}
	}
	r.finish()
	return r, nil
}

// group sorts the model's files names into bundles: bundle "" is the
// common one, "/HOST" a host's, and a bundle's member is a file's name
// without the host. A bundle the Scratch already holds keeps its buffer
// and what it rendered; one that no file names any more is dropped.
func (s *Scratch) group(names []string) {
	old := make(map[string]*rendered, len(s.bundles))
	for _, b := range s.bundles {
		old[b.key] = b
	}
	s.names, s.bundles = names, s.bundles[:0]
	cur := make(map[string]*rendered, len(old))
	for _, name := range names {
		key, member := "", name
		if host, rest, ok := strings.Cut(name, "/"); ok {
			key, member = "/"+host, rest
		}
		b := cur[key]
		if b == nil {
			if b = old[key]; b == nil {
				b = &rendered{key: key}
			}
			b.names, b.members = nil, nil
			cur[key] = b
			s.bundles = append(s.bundles, b)
		}
		b.names, b.members = append(b.names, name), append(b.members, member)
	}
	clear(s.bundles[len(s.bundles):cap(s.bundles)])
}

// render makes the bundle of the model's files b.names: by patching
// what b holds when it holds the same members and the model knows what
// changed in each, else by writing every member anew. written counts
// the bundle bytes it wrote: the edits' when it patched, else all.
func (b *rendered) render(m *extract.Model) (bu *update.Bundle, written int, err error) {
	n := len(b.names)
	b.nsizes = slices.Grow(b.nsizes[:0], n)[:n]
	for i, name := range b.names {
		b.nsizes[i] = m.Size(name)
	}
	bu, ok := b.patch(m)
	if ok {
		for _, e := range bu.Edits {
			written += len(e.Data)
		}
	} else {
		tarball, offs, err := update.BuildTarFrom(b.buf, b.members, func(i int) int { return b.nsizes[i] },
			func(w io.Writer, i int) error { return m.WriteFile(w, b.names[i]) })
		if err != nil {
			return nil, 0, err
		}
		bu, b.noffs, written = update.NewBundle(tarball), offs, len(tarball)
	}
	bu.Members = b.members
	b.versions = b.versions[:0]
	for _, name := range b.names {
		b.versions = append(b.versions, m.Version(name))
	}
	b.buf, b.sum, b.held = bu.Data, bu.Sum, b.names
	b.sizes, b.nsizes = b.nsizes, b.sizes
	b.offs, b.noffs = b.noffs, b.offs
	return bu, written, nil
}

// A tar header's size and checksum fields, from the start of the
// header's last block.
const (
	sizeField, sizeFieldLen = 124, 12
	sumField, sumFieldLen   = 148, 8
)

// patch turns the bundle b holds into the one of the model's files
// b.names, of sizes b.nsizes, in place, and returns it with its edits
// from what b held. Every stretch the edits keep moves to its new
// offset, in the same array unless the bundle outgrew its capacity;
// then each changed range is written from the model, each resized
// member's header gets its new size and checksum, and the padding after
// it is zeroed. ok is false, and nothing changed, when b holds other
// members (or none), the model does not know a member's changes, or a
// size does not fit a plain tar header.
func (b *rendered) patch(m *extract.Model) (bu *update.Bundle, ok bool) {
	if b.held == nil || !slices.Equal(b.held, b.names) {
		return nil, false
	}
	// Each member keeps its header blocks: the same name gives the same
	// ones, whatever its size.
	b.noffs = slices.Grow(b.noffs[:0], len(b.names))[:len(b.names)]
	oldEnd, newEnd := 0, 0 // the previous member's padded end
	for i := range b.names {
		if b.nsizes[i] >= 1<<33 {
			return nil, false
		}
		b.noffs[i] = newEnd + b.offs[i] - oldEnd
		oldEnd, newEnd = b.offs[i]+padded(b.sizes[i]), b.noffs[i]+padded(b.nsizes[i])
	}
	total := newEnd + 1024 // the two terminating zero blocks
	buf := b.buf
	if cap(buf) < total {
		buf = make([]byte, 0, total+total/8)
	}
	buf = buf[:total]
	edits, ok := bundleEdits(m, b.edits[:0], b.versions, b.names, b.nsizes, b.noffs, buf)
	if !ok {
		return nil, false
	}
	b.edits = edits
	moveKept(buf, b.buf, edits)
	for i, name := range b.names {
		lo, size := b.noffs[i], b.nsizes[i]
		m.CopyChanges(buf[lo:lo+size], name, b.versions[i])
		if size != b.sizes[i] {
			clear(buf[lo+size : lo+padded(size)])
			setTarSize(buf[lo-512:lo], size)
		}
	}
	bu = &update.Bundle{Data: buf, Base: b.sum, Edits: edits, Sum: b.sum}
	if len(edits) > 0 {
		bu.Sum = sha256.Sum256(buf)
	}
	return bu, true
}

// moveKept moves every stretch of old the edits keep (old offsets) to
// its place in buf, the new bundle: buf is old's array or a new one.
// In one array a stretch that moves down goes before the stretches
// after it, one that moves up after them, so none overwrites a stretch
// not yet moved. The edits' own bytes are left to the caller.
func moveKept(buf, old []byte, edits []update.Splice) {
	inPlace := &buf[:1][0] == &old[:1][0]
	// move moves the stretch after edit k (before the first: k = -1),
	// which moves by shift, if it moves in direction dir (0: any).
	move := func(k, shift, dir int) {
		lo, hi := 0, len(old)
		if k >= 0 {
			lo = edits[k].Off + edits[k].Len
		}
		if k+1 < len(edits) {
			hi = edits[k+1].Off
		}
		if !inPlace || shift*dir > 0 {
			copy(buf[lo+shift:], old[lo:hi])
		}
	}
	shift := 0
	move(-1, 0, 0)
	for k := range edits {
		shift += len(edits[k].Data) - edits[k].Len
		move(k, shift, -1)
	}
	for k := len(edits) - 1; k >= 0 && inPlace; k-- {
		move(k, shift, 1)
		shift -= len(edits[k].Data) - edits[k].Len
	}
}

// padded is n rounded up to a whole number of tar blocks.
func padded(n int) int { return (n + 511) &^ 511 }

// setTarSize writes size into a tar header's last block hdr and updates
// its checksum, as archive/tar formats both fields.
func setTarSize(hdr []byte, size int) {
	octal(hdr[sizeField:sizeField+sizeFieldLen], size)
	sum := 8 * int(' ') // the checksum field counts as spaces
	for i, c := range hdr {
		if i < sumField || i >= sumField+sumFieldLen {
			sum += int(c)
		}
	}
	octal(hdr[sumField:sumField+sumFieldLen-1], sum)
	hdr[sumField+sumFieldLen-1] = ' '
}

// octal writes n into field as zero-padded octal digits and a NUL.
func octal(field []byte, n int) {
	field[len(field)-1] = 0
	for i := len(field) - 2; i >= 0; i-- {
		field[i] = byte('0' + n&7)
		n >>= 3
	}
}

// bundleEdits is the edits that make the bundle tarball (its members the
// model's files names, of sizes bytes from offs) from the bundle whose
// members' model versions were versions, appended to edits, in
// old-bundle offsets: each member's changes since its version, its
// header's size and checksum fields when its size changed, and the zero
// padding after it when its length did. The inserted bytes alias
// tarball, and are not read. The header's other fields and blocks do
// not depend on the size: the same name gives the same header blocks.
// ok is false when the model does not know a member's changes.
func bundleEdits(m *extract.Model, edits []update.Splice, versions []uint64, names []string, sizes, offs []int, tarball []byte) (_ []update.Splice, ok bool) {
	at := 0 // where the last edit's data starts in tarball
	add := func(off, n, from, k int) {
		if l := len(edits) - 1; l >= 0 && edits[l].Off+edits[l].Len == off && at+len(edits[l].Data) == from {
			edits[l].Len += n
			edits[l].Data = tarball[at : from+k]
			return
		}
		edits = append(edits, update.Splice{Off: off, Len: n, Data: tarball[from : from+k]})
		at = from
	}
	pad := func(n int) int { return -n & 511 }
	oldEnd, newEnd := 0, 0 // the previous member's padded end
	for i, name := range names {
		v, data := versions[i], oldEnd+offs[i]-newEnd
		oldSize := sizes[i]
		if !m.Changes(name, v, func(_, del, ins int) { oldSize += del - ins }) {
			return nil, false
		}
		if oldSize != sizes[i] {
			for _, f := range [][2]int{{sizeField, sizeFieldLen}, {sumField, sumFieldLen}} {
				add(data-512+f[0], f[1], offs[i]-512+f[0], f[1])
			}
		}
		shift := offs[i]
		m.Changes(name, v, func(off, del, ins int) {
			add(data+off, del, off+shift, ins)
			shift += ins - del
		})
		// The padding grows or shrinks by the difference: it is zeros.
		switch p, q := pad(oldSize), pad(sizes[i]); {
		case p > q:
			add(data+oldSize+q, p-q, offs[i]+sizes[i]+q, 0)
		case q > p:
			add(data+oldSize+p, 0, offs[i]+sizes[i]+p, q-p)
		}
		oldEnd, newEnd = data+oldSize+pad(oldSize), offs[i]+sizes[i]+pad(sizes[i])
	}
	return edits, true
}

// Generate runs g from scratch against a snapshot of d, rendered to
// bundles. This is what a planner's full pass produces, for callers
// (tests, benchmarks, the Table G harness) that want a service's files
// without a DCM around them.
func Generate(d *db.DB, g *Incremental) (*Result, error) {
	m, err := g.Build(d.Reader())
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
		if l, ok := db.Lists.ByID(d, lid); ok && l.Active && l.Group {
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

// reaches returns whether an ACE (type, id) expands to the member
// (mtype, mid) in d: it names the member itself, or it is a list that
// contains the member through any chain of sublists.
func reaches(d *db.DB, mtype string, mid int) func(aceType string, aceID int) bool {
	up := upLists(d, mtype, mid)
	return func(t string, id int) bool {
		return t == mtype && id == mid || t == db.ACEList && up[id]
	}
}

// upListKeys adds the upward closure of (mtype, mid) as "list:" keys: a
// change inside a list is visible to every list that (transitively)
// contains it.
func upListKeys(d *db.DB, mtype string, mid int, add func(string)) {
	for lid := range upLists(d, mtype, mid) {
		if l, ok := db.Lists.ByID(d, lid); ok {
			add("list:" + l.Name)
		}
	}
}

// userKey adds the "user:" key of a user id.
func userKey(d *db.DB, usersID int, add func(string)) {
	if u, ok := db.Users.ByID(d, usersID); ok {
		add("user:" + u.Login)
	}
}

// usersUnder adds the "user:" key of every user in the downward
// expansion of a list — the users whose derived lines change when the
// list's membership or flags change — and reports how many there were.
func usersUnder(d *db.DB, listID int, add func(string)) int {
	n := 0
	for _, m := range acl.ExpandMembers(d, listID) {
		if m.MemberType == db.ACEUser {
			userKey(d, m.MemberID, add)
			n++
		}
	}
	return n
}
