package db

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/wildcard"
)

// Differential harness: refstore is the seed's storage engine kept as a
// test-only oracle — every lookup is the original full-table linear
// scan with a per-call sort, computed straight from the rows, trusting
// neither the paged tables' iteration order nor any secondary index. The property test below drives
// thousands of randomized mutate/query interleavings through both
// engines and requires identical answers, so any index-maintenance bug
// (a missed insert, a stale entry after rename, a wrong wildcard range)
// shows up as a concrete divergence with the op number that caused it.

type refstore struct{ d *DB }

func (r refstore) usersByUID(uid int) []*User {
	var out []*User
	for _, u := range r.sortedUsers() {
		if u.UID == uid {
			out = append(out, u)
		}
	}
	return out
}

func (r refstore) sortedUsers() []*User {
	out := make([]*User, 0, r.d.users.len())
	r.d.users.each(func(u *User) bool { out = append(out, u); return true })
	sort.Slice(out, func(i, j int) bool { return out[i].UsersID < out[j].UsersID })
	return out
}

func (r refstore) usersMatching(pattern string) []*User {
	var out []*User
	for _, u := range r.sortedUsers() {
		if refMatch(pattern, u.Login) {
			out = append(out, u)
		}
	}
	return out
}

// refMatch mirrors the seed's exact-vs-wildcard split: exact patterns
// were hash lookups (string equality), wildcards went through Match.
func refMatch(pattern, name string) bool {
	if !wildcard.HasWildcards(pattern) {
		return pattern == name
	}
	return wildcard.Match(pattern, name)
}

func (r refstore) machinesMatching(pattern string) []*Machine {
	var out []*Machine
	r.d.machines.each(func(m *Machine) bool {
		if refMatch(pattern, m.Name) {
			out = append(out, m)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].MachID < out[j].MachID })
	return out
}

func (r refstore) clustersMatching(pattern string) []*Cluster {
	var out []*Cluster
	r.d.clusters.each(func(c *Cluster) bool {
		if refMatch(pattern, c.Name) {
			out = append(out, c)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].CluID < out[j].CluID })
	return out
}

func (r refstore) listsMatching(pattern string) []*List {
	var out []*List
	r.d.lists.each(func(l *List) bool {
		if refMatch(pattern, l.Name) {
			out = append(out, l)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ListID < out[j].ListID })
	return out
}

func (r refstore) listsContaining(mtype string, mid int) []int {
	listIDs := make([]int, 0, len(r.d.members))
	for id := range r.d.members {
		listIDs = append(listIDs, id)
	}
	sort.Ints(listIDs)
	var out []int
	for _, listID := range listIDs {
		for _, m := range r.d.members[listID] {
			if m.MemberType == mtype && m.MemberID == mid {
				out = append(out, listID)
			}
		}
	}
	return out
}

func (r refstore) quotaOf(usersID, filsysID int) (*NFSQuota, bool) {
	for _, q := range r.d.nfsquotas {
		if q.UsersID == usersID && q.FilsysID == filsysID {
			return q, true
		}
	}
	return nil, false
}

func (r refstore) hasMCMap(machID, cluID int) bool {
	for _, m := range r.d.mcmap {
		if m.MachID == machID && m.CluID == cluID {
			return true
		}
	}
	return false
}

func (r refstore) filesysByLabel(label string) []*Filesys {
	var out []*Filesys
	r.d.filesys.each(func(f *Filesys) bool {
		if f.Label == label {
			out = append(out, f)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

func (r refstore) serverHostsOf(service string) []*ServerHost {
	var out []*ServerHost
	for _, sh := range r.d.serverHosts {
		if sh.Service == service {
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MachID < out[j].MachID })
	return out
}

func (r refstore) quotasSorted() []*NFSQuota {
	rows := append([]*NFSQuota(nil), r.d.nfsquotas...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].FilsysID != rows[j].FilsysID {
			return rows[i].FilsysID < rows[j].FilsysID
		}
		return rows[i].UsersID < rows[j].UsersID
	})
	return rows
}

func (r refstore) serverHostsSorted() []*ServerHost {
	rows := append([]*ServerHost(nil), r.d.serverHosts...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Service != rows[j].Service {
			return rows[i].Service < rows[j].Service
		}
		return rows[i].MachID < rows[j].MachID
	})
	return rows
}

// diffworld owns the mutable name pools the op mix draws from.
type diffworld struct {
	t   *testing.T
	d   *DB
	ref refstore
	rng *rand.Rand

	logins   []string
	machines []string
	clusters []string
	lists    []string
	labels   []string
	services []string
	seq      int
}

func (w *diffworld) fresh(prefix string) string {
	w.seq++
	return fmt.Sprintf("%s%04d", prefix, w.seq)
}

func (w *diffworld) pick(pool []string) (string, bool) {
	if len(pool) == 0 {
		return "", false
	}
	return pool[w.rng.Intn(len(pool))], true
}

func drop(pool []string, s string) []string {
	for i, v := range pool {
		if v == s {
			pool[i] = pool[len(pool)-1]
			return pool[:len(pool)-1]
		}
	}
	return pool
}

// pattern derives a wildcard (or exact, or miss) pattern from a pool.
func (w *diffworld) pattern(pool []string) string {
	name, ok := w.pick(pool)
	if !ok || w.rng.Intn(8) == 0 {
		name = w.fresh("ghost")
	}
	switch w.rng.Intn(6) {
	case 0:
		return name // exact
	case 1:
		return "*"
	case 2:
		if len(name) > 2 {
			return name[:1+w.rng.Intn(len(name)-1)] + "*"
		}
		return name + "*"
	case 3:
		if len(name) > 1 {
			i := w.rng.Intn(len(name))
			return name[:i] + "?" + name[i+1:]
		}
		return "?"
	case 4:
		if len(name) > 3 {
			return name[:1] + "*" + name[len(name)-1:]
		}
		return "*" + name
	default:
		return "*" + string(name[w.rng.Intn(len(name))]) + "*"
	}
}

// Cascade helpers: the query handlers (delete_machine etc.) remove
// dependent rows before deleting a parent; the raw accessors do not.
// Mirror that here so end-of-run fsck only reports genuine index bugs,
// not workload-created dangling references.
func (w *diffworld) deleteMachineCascade(m *Machine) {
	type pair struct {
		svc  string
		mach int
	}
	var shs []pair
	for _, sh := range w.d.serverHosts {
		if sh.MachID == m.MachID {
			shs = append(shs, pair{sh.Service, sh.MachID})
		}
	}
	for _, p := range shs {
		_ = w.d.DeleteServerHost(p.svc, p.mach)
	}
	var mcs [][2]int
	for _, mc := range w.d.mcmap {
		if mc.MachID == m.MachID {
			mcs = append(mcs, [2]int{mc.MachID, mc.CluID})
		}
	}
	for _, p := range mcs {
		_ = w.d.DeleteMCMap(p[0], p[1])
	}
	w.d.DeleteMachine(m)
}

func (w *diffworld) deleteClusterCascade(c *Cluster) {
	var mcs [][2]int
	for _, mc := range w.d.mcmap {
		if mc.CluID == c.CluID {
			mcs = append(mcs, [2]int{mc.MachID, mc.CluID})
		}
	}
	for _, p := range mcs {
		_ = w.d.DeleteMCMap(p[0], p[1])
	}
	w.d.DeleteCluster(c)
}

func (w *diffworld) deleteUserCascade(u *User) {
	var qs [][2]int
	for _, q := range w.d.nfsquotas {
		if q.UsersID == u.UsersID {
			qs = append(qs, [2]int{q.UsersID, q.FilsysID})
		}
	}
	for _, p := range qs {
		_ = w.d.DeleteQuota(p[0], p[1])
	}
	for _, listID := range w.d.ListsContaining(ACEUser, u.UsersID) {
		_ = w.d.DeleteMember(listID, ACEUser, u.UsersID)
	}
	w.d.DeleteUser(u)
}

func (w *diffworld) deleteFilesysCascade(f *Filesys) {
	var qs [][2]int
	for _, q := range w.d.nfsquotas {
		if q.FilsysID == f.FilsysID {
			qs = append(qs, [2]int{q.UsersID, q.FilsysID})
		}
	}
	for _, p := range qs {
		_ = w.d.DeleteQuota(p[0], p[1])
	}
	w.d.DeleteFilesys(f)
}

func (w *diffworld) mutate() {
	d := w.d
	switch w.rng.Intn(16) {
	case 0, 1: // insert user (uids drawn from a small range to force collisions)
		id, _ := d.AllocID("users_id")
		login := w.fresh("u")
		if err := d.InsertUser(&User{UsersID: id, Login: login, UID: 6500 + w.rng.Intn(40)}); err != nil {
			w.t.Fatalf("InsertUser: %v", err)
		}
		w.logins = append(w.logins, login)
	case 2: // delete user
		if login, ok := w.pick(w.logins); ok {
			u, _ := d.UserByLogin(login)
			w.deleteUserCascade(u)
			w.logins = drop(w.logins, login)
		}
	case 3: // rename user
		if login, ok := w.pick(w.logins); ok {
			u, _ := d.UserByLogin(login)
			newLogin := w.fresh("u")
			d.RenameUser(u, newLogin)
			d.NoteUpdate(u)
			w.logins = drop(w.logins, login)
			w.logins = append(w.logins, newLogin)
		}
	case 4: // re-uid user
		if login, ok := w.pick(w.logins); ok {
			u, _ := d.UserByLogin(login)
			d.SetUserUID(u, 6500+w.rng.Intn(40))
			d.NoteUpdate(u)
		}
	case 5: // insert machine
		id, _ := d.AllocID("mach_id")
		name := w.fresh("MACH") + ".MIT.EDU"
		if err := d.InsertMachine(&Machine{MachID: id, Name: name, Type: "VAX"}); err != nil {
			w.t.Fatalf("InsertMachine: %v", err)
		}
		w.machines = append(w.machines, name)
	case 6: // delete machine
		if name, ok := w.pick(w.machines); ok {
			m, _ := d.MachineByName(name)
			w.deleteMachineCascade(m)
			w.machines = drop(w.machines, name)
		}
	case 7: // insert/delete cluster
		if name, ok := w.pick(w.clusters); ok && w.rng.Intn(2) == 0 {
			c, _ := d.ClusterByName(name)
			w.deleteClusterCascade(c)
			w.clusters = drop(w.clusters, name)
		} else {
			id, _ := d.AllocID("clu_id")
			name := w.fresh("clu")
			if err := d.InsertCluster(&Cluster{CluID: id, Name: name}); err != nil {
				w.t.Fatalf("InsertCluster: %v", err)
			}
			w.clusters = append(w.clusters, name)
		}
	case 8: // insert/rename/delete list
		switch w.rng.Intn(3) {
		case 0:
			id, _ := d.AllocID("list_id")
			name := w.fresh("list")
			if err := d.InsertList(&List{ListID: id, Name: name}); err != nil {
				w.t.Fatalf("InsertList: %v", err)
			}
			w.lists = append(w.lists, name)
		case 1:
			if name, ok := w.pick(w.lists); ok {
				l, _ := d.ListByName(name)
				newName := w.fresh("list")
				d.RenameList(l, newName)
				d.NoteUpdate(l)
				w.lists = drop(w.lists, name)
				w.lists = append(w.lists, newName)
			}
		default:
			if name, ok := w.pick(w.lists); ok {
				l, _ := d.ListByName(name)
				d.DeleteList(l)
				w.lists = drop(w.lists, name)
			}
		}
	case 9: // add/delete member
		if name, ok := w.pick(w.lists); ok {
			l, _ := d.ListByName(name)
			if login, ok := w.pick(w.logins); ok {
				u, _ := d.UserByLogin(login)
				if w.rng.Intn(2) == 0 {
					_ = d.AddMember(l.ListID, ACEUser, u.UsersID) // MrExists OK
				} else {
					_ = d.DeleteMember(l.ListID, ACEUser, u.UsersID) // MrNoMatch OK
				}
			}
		}
	case 10: // add/delete mcmap
		mname, ok1 := w.pick(w.machines)
		cname, ok2 := w.pick(w.clusters)
		if ok1 && ok2 {
			m, _ := d.MachineByName(mname)
			c, _ := d.ClusterByName(cname)
			if w.rng.Intn(2) == 0 {
				_ = d.AddMCMap(m.MachID, c.CluID)
			} else {
				_ = d.DeleteMCMap(m.MachID, c.CluID)
			}
		}
	case 11: // insert filesys (labels deliberately collide across orders)
		id, _ := d.AllocID("filsys_id")
		var label string
		if l, ok := w.pick(w.labels); ok && w.rng.Intn(2) == 0 {
			label = l
		} else {
			label = w.fresh("fs")
			w.labels = append(w.labels, label)
		}
		_ = d.InsertFilesys(&Filesys{FilsysID: id, Label: label, Order: w.rng.Intn(4)}) // MrExists OK
	case 12: // delete or relabel filesys
		if label, ok := w.pick(w.labels); ok {
			fss := d.FilesysByLabel(label)
			if len(fss) == 0 {
				w.labels = drop(w.labels, label)
				break
			}
			f := fss[w.rng.Intn(len(fss))]
			if w.rng.Intn(2) == 0 {
				w.deleteFilesysCascade(f)
			} else {
				newLabel := w.fresh("fs")
				d.SetFilesysLabel(f, newLabel)
				d.NoteUpdate(f)
				w.labels = append(w.labels, newLabel)
			}
		}
	case 13: // insert/delete quota
		if login, ok := w.pick(w.logins); ok {
			u, _ := d.UserByLogin(login)
			if label, ok := w.pick(w.labels); ok {
				if fss := d.FilesysByLabel(label); len(fss) > 0 {
					f := fss[0]
					if w.rng.Intn(2) == 0 {
						_ = d.InsertQuota(&NFSQuota{UsersID: u.UsersID, FilsysID: f.FilsysID, Quota: 300})
					} else {
						_ = d.DeleteQuota(u.UsersID, f.FilsysID)
					}
				}
			}
		}
	case 14: // insert/delete serverhost
		svc, ok := w.pick(w.services)
		if !ok || w.rng.Intn(12) == 0 {
			svc = w.fresh("SVC")
			if err := d.InsertServer(&Server{Name: svc, Type: "REPLICAT", Enable: true}); err != nil {
				w.t.Fatalf("InsertServer: %v", err)
			}
			w.services = append(w.services, svc)
		}
		if mname, ok := w.pick(w.machines); ok {
			m, _ := d.MachineByName(mname)
			if w.rng.Intn(2) == 0 {
				_ = d.InsertServerHost(&ServerHost{Service: svc, MachID: m.MachID})
			} else {
				_ = d.DeleteServerHost(svc, m.MachID)
			}
		}
	default: // intern a string
		if _, err := d.InternString(w.fresh("str")); err != nil {
			w.t.Fatalf("InternString: %v", err)
		}
	}
}

// check runs one randomly chosen query against the indexed engine, the
// snapshot (Reader) and the oracle, and requires all three to agree.
func (w *diffworld) check(op int) {
	t := w.t
	d := w.d
	snap := d.Reader()
	fail := func(what string, got, want any) {
		t.Fatalf("op %d: %s diverged from oracle:\n got: %v\nwant: %v", op, what, got, want)
	}
	sameUsers := func(what string, got, want []*User) {
		if len(got) != len(want) {
			fail(what, dumpUsers(got), dumpUsers(want))
		}
		for i := range got {
			if *got[i] != *want[i] {
				fail(what, dumpUsers(got), dumpUsers(want))
			}
		}
	}

	switch w.rng.Intn(10) {
	case 0:
		uid := 6500 + w.rng.Intn(40)
		want := w.ref.usersByUID(uid)
		sameUsers(fmt.Sprintf("UsersByUID(%d)", uid), d.UsersByUID(uid), want)
		sameUsers(fmt.Sprintf("snap UsersByUID(%d)", uid), snap.UsersByUID(uid), want)
	case 1:
		p := w.pattern(w.logins)
		want := w.ref.usersMatching(p)
		sameUsers(fmt.Sprintf("UsersMatchingLogin(%q)", p), d.UsersMatchingLogin(p), want)
		sameUsers(fmt.Sprintf("snap UsersMatchingLogin(%q)", p), snap.UsersMatchingLogin(p), want)
	case 2:
		p := w.pattern(w.machines)
		got, want := d.MachinesMatchingName(p), w.ref.machinesMatching(p)
		if len(got) != len(want) {
			fail(fmt.Sprintf("MachinesMatchingName(%q)", p), len(got), len(want))
		}
		for i := range got {
			if *got[i] != *want[i] {
				fail(fmt.Sprintf("MachinesMatchingName(%q)[%d]", p, i), *got[i], *want[i])
			}
		}
	case 3:
		p := w.pattern(w.lists)
		got, want := d.ListsMatchingName(p), w.ref.listsMatching(p)
		if len(got) != len(want) {
			fail(fmt.Sprintf("ListsMatchingName(%q)", p), len(got), len(want))
		}
		for i := range got {
			if *got[i] != *want[i] {
				fail(fmt.Sprintf("ListsMatchingName(%q)[%d]", p, i), *got[i], *want[i])
			}
		}
		cp := w.pattern(w.clusters)
		cg, cw := d.ClustersMatchingName(cp), w.ref.clustersMatching(cp)
		if len(cg) != len(cw) {
			fail(fmt.Sprintf("ClustersMatchingName(%q)", cp), len(cg), len(cw))
		}
	case 4:
		if login, ok := w.pick(w.logins); ok {
			u, _ := w.d.UserByLogin(login)
			got := d.ListsContaining(ACEUser, u.UsersID)
			want := w.ref.listsContaining(ACEUser, u.UsersID)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				fail(fmt.Sprintf("ListsContaining(USER, %d)", u.UsersID), got, want)
			}
		}
	case 5:
		if login, ok := w.pick(w.logins); ok {
			if label, ok2 := w.pick(w.labels); ok2 {
				u, _ := w.d.UserByLogin(login)
				var fid int
				if fss := w.ref.filesysByLabel(label); len(fss) > 0 {
					fid = fss[0].FilsysID
				}
				gq, gok := d.QuotaOf(u.UsersID, fid)
				wq, wok := w.ref.quotaOf(u.UsersID, fid)
				if gok != wok || (gok && gq != wq) {
					fail(fmt.Sprintf("QuotaOf(%d, %d)", u.UsersID, fid), gq, wq)
				}
			}
		}
	case 6:
		mname, ok1 := w.pick(w.machines)
		cname, ok2 := w.pick(w.clusters)
		if ok1 && ok2 {
			m, _ := w.d.MachineByName(mname)
			c, _ := w.d.ClusterByName(cname)
			if got, want := d.HasMCMap(m.MachID, c.CluID), w.ref.hasMCMap(m.MachID, c.CluID); got != want {
				fail(fmt.Sprintf("HasMCMap(%d, %d)", m.MachID, c.CluID), got, want)
			}
		}
	case 7:
		if label, ok := w.pick(w.labels); ok {
			got, want := d.FilesysByLabel(label), w.ref.filesysByLabel(label)
			if len(got) != len(want) {
				fail(fmt.Sprintf("FilesysByLabel(%q)", label), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					fail(fmt.Sprintf("FilesysByLabel(%q)[%d]", label, i), *got[i], *want[i])
				}
			}
		}
	case 8:
		if svc, ok := w.pick(w.services); ok {
			got, want := d.ServerHostsOf(svc), w.ref.serverHostsOf(svc)
			if len(got) != len(want) {
				fail(fmt.Sprintf("ServerHostsOf(%q)", svc), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					fail(fmt.Sprintf("ServerHostsOf(%q)[%d]", svc, i), *got[i], *want[i])
				}
			}
		}
	default: // full-iteration ordering contracts
		var got []int
		d.EachUser(func(u *User) bool { got = append(got, u.UsersID); return true })
		var want []int
		for _, u := range w.ref.sortedUsers() {
			want = append(want, u.UsersID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			fail("EachUser order", got, want)
		}
		i := 0
		refQ := w.ref.quotasSorted()
		d.EachQuota(func(q *NFSQuota) bool {
			if i >= len(refQ) || refQ[i] != q {
				fail("EachQuota order", fmt.Sprintf("row %d = %+v", i, q), fmt.Sprintf("%d rows", len(refQ)))
			}
			i++
			return true
		})
		i = 0
		refSH := w.ref.serverHostsSorted()
		d.EachServerHost(func(sh *ServerHost) bool {
			if i >= len(refSH) || refSH[i] != sh {
				fail("EachServerHost order", fmt.Sprintf("row %d = %+v", i, sh), fmt.Sprintf("%d rows", len(refSH)))
			}
			i++
			return true
		})
	}
}

func dumpUsers(us []*User) string {
	var out []string
	for _, u := range us {
		out = append(out, fmt.Sprintf("%d/%s/uid%d", u.UsersID, u.Login, u.UID))
	}
	return fmt.Sprint(out)
}

// TestDifferentialIndexedVsScan is the acceptance harness: ≥5k
// randomized op/query interleavings per seed, indexed engine vs the
// linear-scan oracle, with an fsck (which now proves index ↔ row
// agreement) at the end of every seed.
func TestDifferentialIndexedVsScan(t *testing.T) {
	ops := 2500
	if testing.Short() {
		ops = 600
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			d := New(clock.NewFake(time.Unix(600000000, 0)))
			w := &diffworld{t: t, d: d, ref: refstore{d}, rng: rand.New(rand.NewSource(seed))}
			for op := 0; op < ops; op++ {
				w.mutate()
				w.check(op)
			}
			if bad := d.Fsck(); len(bad) != 0 {
				t.Fatalf("fsck after %d ops: %v", ops, bad)
			}
		})
	}
}
