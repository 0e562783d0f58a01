package queries

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/workload"
)

// The snapshot ≡ live oracle. Snapshots are page-granular: a write→read
// transition re-copies only the pages a mutation stamped, so a handler
// that changes a row without naming it (or a db accessor that forgets a
// stamp, or a key change that forgets the key epoch) would leave every
// later reader looking at a stale row. This test makes that impossible
// to miss: it drives every registered mutating handle through
// queries.Execute in randomized interleavings over a populated database
// and, after each one, requires that
//
//   - Reader() equals the live database, relation by relation, in the
//     backup encoding (all 21 relations, every field) and in the change
//     sequences;
//   - the snapshot passes Fsck — which proves page ↔ row and index ↔
//     row agreement, so equal rows plus a clean Fsck means equal indexes
//     — and answers index-backed reads exactly as the live database does;
//   - the snapshot pinned before the mutation is still byte-for-byte
//     what it was.
//
// A round is a scripted life cycle of one set of fresh entities, so that
// every step succeeds and every handle is reached; the randomness is in
// how the steps of concurrent rounds interleave and in which populated
// rows the in-place updates land on.

type oracleStep struct {
	name string
	args []string
}

type snapOracle struct {
	t      *testing.T
	d      *db.DB
	cx     *Context
	rng    *rand.Rand
	logins []string // populated logins, spread over several pages
	hit    map[string]int

	pinned     *db.DB
	pinnedDump string
}

// dumpState renders every relation of d in backup format, plus the
// change sequences (which the dump does not carry). The caller holds
// the shared lock when d is live.
func dumpState(t *testing.T, d *db.DB) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range db.AllTables {
		fmt.Fprintf(&buf, "== %s seq %d\n", tbl, d.SeqOf(tbl))
		if err := d.DumpTable(tbl, &buf); err != nil {
			t.Fatalf("dump %s: %v", tbl, err)
		}
	}
	fmt.Fprintf(&buf, "== curseq %d\n", d.CurSeq())
	return buf.String()
}

// firstDiff names the relation in which two dumpState renderings part.
func firstDiff(a, b string) string {
	as, bs := strings.Split(a, "== "), strings.Split(b, "== ")
	for i := range as {
		if i >= len(bs) || as[i] != bs[i] {
			other := ""
			if i < len(bs) {
				other = bs[i]
			}
			return fmt.Sprintf("live:\n%s\nsnapshot:\n%s", as[i], other)
		}
	}
	return "snapshot has extra relations"
}

func (o *snapOracle) check(after string) {
	t := o.t
	t.Helper()
	snap := o.d.Reader()
	o.d.LockShared()
	live := dumpState(t, o.d)
	o.d.UnlockShared()
	got := dumpState(t, snap)
	if got != live {
		t.Fatalf("after %s: snapshot differs from live in %s", after, firstDiff(live, got))
	}
	if bad := snap.Fsck(); len(bad) != 0 {
		t.Fatalf("after %s: fsck of the snapshot: %v", after, bad)
	}
	if o.pinned != nil {
		if now := dumpState(t, o.pinned); now != o.pinnedDump {
			t.Fatalf("after %s: the snapshot pinned before it changed in %s", after, firstDiff(o.pinnedDump, now))
		}
	}
	o.pinned, o.pinnedDump = snap, got

	// Index-backed reads: the name → id maps, the sorted name caches and
	// the uid and label hash indexes, through the accessors.
	o.d.LockShared()
	defer o.d.UnlockShared()
	for _, pat := range []string{"*", "o*", "*1*"} {
		same(t, after, "UsersMatchingLogin "+pat, o.d.UsersMatchingLogin(pat), snap.UsersMatchingLogin(pat))
		same(t, after, "MachinesMatchingName "+pat, o.d.MachinesMatchingName(strings.ToUpper(pat)), snap.MachinesMatchingName(strings.ToUpper(pat)))
		same(t, after, "ClustersMatchingName "+pat, o.d.ClustersMatchingName(pat), snap.ClustersMatchingName(pat))
		same(t, after, "ListsMatchingName "+pat, o.d.ListsMatchingName(pat), snap.ListsMatchingName(pat))
	}
	o.d.EachUser(func(u *db.User) bool {
		same(t, after, "UsersByUID", o.d.UsersByUID(u.UID), snap.UsersByUID(u.UID))
		return true
	})
	o.d.EachFilesys(func(f *db.Filesys) bool {
		same(t, after, "FilesysByLabel", o.d.FilesysByLabel(f.Label), snap.FilesysByLabel(f.Label))
		return true
	})
}

// same requires two accessor results to hold equal rows in equal order
// without sharing any: a snapshot handing out a live row would be a
// data race waiting for the next in-place update.
func same[R comparable](t *testing.T, after, what string, live, snap []*R) {
	t.Helper()
	if len(live) != len(snap) {
		t.Fatalf("after %s: %s: live has %d rows, snapshot %d", after, what, len(live), len(snap))
	}
	for i := range live {
		if *live[i] != *snap[i] {
			t.Fatalf("after %s: %s[%d]: live %+v, snapshot %+v", after, what, i, *live[i], *snap[i])
		}
		if live[i] == snap[i] {
			t.Fatalf("after %s: %s[%d]: snapshot shares the live row", after, what, i)
		}
	}
}

func (o *snapOracle) run(s oracleStep) {
	o.t.Helper()
	if err := Execute(o.cx, s.name, s.args, func([]string) error { return nil }); err != nil {
		o.t.Fatalf("%s(%v): %v", s.name, s.args, err)
	}
	o.hit[s.name]++
	o.check(s.name + " " + strings.Join(s.args, " "))
}

// round scripts the life cycle of round n's entities. Every step is
// valid given the steps before it in the same round, whatever other
// rounds do in between.
func (o *snapOracle) round(n int) []oracleStep {
	s := func(name string, args ...string) oracleStep { return oracleStep{name, args} }
	id := strconv.Itoa(n)
	mach, loner := "ORA"+id+".MIT.EDU", "LONER"+id+".MIT.EDU"
	uidA, uidB, uidC, uidR := strconv.Itoa(30000+4*n), strconv.Itoa(30001+4*n), strconv.Itoa(30002+4*n), strconv.Itoa(30003+4*n)
	resident := func() string { return o.logins[o.rng.Intn(len(o.logins))] }

	steps := []oracleStep{
		s("add_machine", mach, "VAX"),
		s("add_machine", "tmp"+id+".mit.edu", "VAX"),
		s("update_machine", "TMP"+id+".MIT.EDU", loner, "RT"),
		s("add_cluster", "clu"+id, "a cluster", "E40"),
		s("update_cluster", "clu"+id, "cluster"+id, "renamed", "E40-3"),
		s("add_machine_to_cluster", mach, "cluster"+id),
		s("add_cluster_data", "cluster"+id, "zephyr", "z"+id+".mit.edu"),
		s("update_user_shell", resident(), "/bin/sh"+id),

		s("add_user", "oa"+id, uidA, "/bin/csh", "Last", "First", "M", "1", "xx", "STAFF"),
		s("add_user", "ob"+id, uidB, "/bin/csh", "Loner", "First", "", "0", "xx", "1990"),
		s("add_user", "oc"+id, uidC, "/bin/csh", "Loner", "Second", "", "0", "xx", "1991"),
		s("add_user", UniqueLogin, uidR, "/bin/csh", "Registrant", "New", "", "0", "hash"+id, "1992"),
		// Same login, same uid: a row-only update that moves no key.
		s("update_user", "oa"+id, "oa"+id, uidA, "/bin/tcsh", "Last", "First", "Q", "1", "xx", "STAFF"),
		// A new login alone, then a new uid alone: each key index moves
		// without the other's mutation to hide behind.
		s("update_user", "oa"+id, "ox"+id, uidA, "/bin/tcsh", "Last", "First", "Q", "1", "xx", "STAFF"),
		s("update_user", "ox"+id, "ox"+id, strconv.Itoa(40000+n), "/bin/tcsh", "Last", "First", "Q", "1", "xx", "STAFF"),
		s("update_user_status", "ox"+id, "1"),
		s("update_user_status", resident(), "1"),
		s("update_finger_by_login", "ox"+id, "Full Name "+id, "nick", "home", "555-0100", "office", "555-0200", "EECS", "staff"),
		s("update_finger_by_login", resident(), "Resident "+id, "", "", "", "", "", "", ""),

		s("add_list", "ol"+id, "1", "0", "0", "1", "0", "0", "NONE", "NONE", "a list"),
		s("update_list", "ol"+id, "olist"+id, "1", "1", "0", "1", "1", UniqueGID, "USER", "ox"+id, "renamed"),
		s("add_list", "lonely"+id, "1", "0", "0", "0", "0", "0", "NONE", "NONE", ""),
		s("add_member_to_list", "olist"+id, "USER", "ox"+id),
		s("add_member_to_list", "olist"+id, "USER", resident()),
		s("add_member_to_list", "olist"+id, "STRING", "someone"+id+"@elsewhere.edu"),
		s("add_member_to_list", "olist"+id, "LIST", "lonely"+id),
		s("delete_member_from_list", "olist"+id, "LIST", "lonely"+id),
		s("delete_member_from_list", "olist"+id, "STRING", "someone"+id+"@elsewhere.edu"),

		s("add_nfsphys", mach, "/o"+id, "ra0c", "7", "0", "100000"),
		s("update_nfsphys", mach, "/o"+id, "ra1c", "7", "10", "200000"),
		s("adjust_nfsphys_allocation", mach, "/o"+id, "5"),
		s("add_filesys", "ofs"+id, "NFS", mach, "/o"+id+"/locker", "/mit/ofs"+id, "w", "", "ox"+id, "olist"+id, "1", "PROJECT"),
		// Same label (row-only), then a relabel (the label index moves).
		s("update_filesys", "ofs"+id, "ofs"+id, "NFS", mach, "/o"+id+"/locker", "/mit/ofs"+id, "r", "ro now", "ox"+id, "olist"+id, "0", "PROJECT"),
		s("update_filesys", "ofs"+id, "ofiles"+id, "NFS", mach, "/o"+id+"/locker", "/mit/ofiles"+id, "w", "", "ox"+id, "olist"+id, "1", "PROJECT"),
		s("add_nfs_quota", "ofiles"+id, "ox"+id, "100"),
		s("add_nfs_quota", "ofiles"+id, "ob"+id, "50"),
		s("update_nfs_quota", "ofiles"+id, "ox"+id, "250"),
		s("delete_nfs_quota", "ofiles"+id, "ox"+id),

		s("add_zephyr_class", "OCLASS"+id, "LIST", "olist"+id, "NONE", "NONE", "NONE", "NONE", "USER", "ox"+id),
		s("update_zephyr_class", "OCLASS"+id, "OCLASS"+id, "NONE", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE"),
		s("update_zephyr_class", "OCLASS"+id, "OZ"+id, "LIST", "olist"+id, "NONE", "NONE", "NONE", "NONE", "NONE", "NONE"),
		s("add_server_host_access", mach, "USER", "ox"+id),
		s("update_server_host_access", mach, "LIST", "olist"+id),
		s("add_service", "osvc"+id, "tcp", strconv.Itoa(2000+n), "a service"),
		s("add_printcap", "oprn"+id, mach, "/usr/spool/printer/o"+id, "oprn"+id, ""),
		s("add_alias", "oalias"+id, "FILESYS", "ofiles"+id),
		s("add_value", "oval"+id, "7"),
		s("update_value", "oval"+id, "8"),

		s("add_server_info", "osrv"+id, "60", "/tmp/o"+id, "o.sh", "UNIQUE", "1", "LIST", "olist"+id),
		s("update_server_info", "OSRV"+id, "120", "/tmp/o"+id, "o2.sh", "REPLICAT", "1", "NONE", "NONE"),
		s("add_server_host_info", "OSRV"+id, mach, "1", "0", "0", ""),
		s("add_server_host_info", "OSRV"+id, loner, "1", "0", "0", ""),
		s("update_server_host_info", "OSRV"+id, mach, "1", "5", "6", "v3"),
		// The DCM's own bookkeeping: NoteUpdateInternal, no modtime.
		s("set_server_internal_flags", "OSRV"+id, "600000100", "600000200", "0", "3", "generation failed"),
		s("reset_server_error", "OSRV"+id),
		s("set_server_host_internal", "OSRV"+id, mach, "0", "0", "0", "4", "push failed", "600000300", "0"),
		s("reset_server_host_error", "OSRV"+id, mach),
		s("set_server_host_override", "OSRV"+id, loner),
		s("trigger_dcm"),

		s("set_pobox", "ox"+id, "SMTP", "ox"+id+"@media-lab.mit.edu"),
		s("set_pobox", "ox"+id, "POP", "ATHENA-PO-1.MIT.EDU"),
		s("set_pobox", "ox"+id, "NONE", ""),
		s("set_pobox_pop", "ox"+id),
		s("delete_pobox", "ox"+id),
		s("register_user", uidR, "oreg"+id, "1"),

		// Tear down, dependants first.
		s("delete_server_host_info", "OSRV"+id, mach),
		s("delete_server_host_info", "OSRV"+id, loner),
		s("delete_server_info", "OSRV"+id),
		s("delete_value", "oval"+id),
		s("delete_alias", "oalias"+id, "FILESYS", "ofiles"+id),
		s("delete_printcap", "oprn"+id),
		s("delete_service", "osvc"+id),
		s("delete_server_host_access", mach),
		s("delete_zephyr_class", "OZ"+id),
		s("delete_filesys", "ofiles"+id), // returns ob's 50-unit quota
		s("delete_nfsphys", mach, "/o"+id),
		s("delete_member_from_list", "olist"+id, "USER", "ox"+id),
		s("delete_list", "lonely"+id),
		s("delete_cluster_data", "cluster"+id, "zephyr", "z"+id+".mit.edu"),
		s("delete_machine_from_cluster", mach, "cluster"+id),
		s("delete_cluster", "cluster"+id),
		s("delete_machine", loner),
		s("delete_user", "ob"+id),
		s("delete_user_by_uid", uidC),
	}
	return steps
}

func testSnapshotOracle(t *testing.T, seed int64, rounds int) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := NewBootstrappedDB(clk)
	cfg := workload.Scaled(100) // users, lists and lockers over two or three pages each
	cfg.NetServices = 5         // a fixed 200 otherwise, and every check dumps them three times
	if _, _, err := workload.Populate(d, cfg); err != nil {
		t.Fatal(err)
	}
	o := &snapOracle{
		t: t, d: d, rng: rand.New(rand.NewSource(seed)), hit: map[string]int{},
		cx: &Context{DB: d, Privileged: true, App: "oracle", TriggerDCM: func(string) {}},
	}
	d.LockShared()
	d.EachUser(func(u *db.User) bool { o.logins = append(o.logins, u.Login); return true })
	d.UnlockShared()
	o.check("populate")

	// Three rounds are in flight at a time; each turn advances a random
	// one of them by one step.
	var live [][]oracleStep
	next := 0
	for next < rounds || len(live) > 0 {
		for len(live) < 3 && next < rounds {
			live = append(live, o.round(next))
			next++
		}
		i := o.rng.Intn(len(live))
		o.run(live[i][0])
		clk.Advance(time.Second)
		if live[i] = live[i][1:]; len(live[i]) == 0 {
			live = append(live[:i], live[i+1:]...)
		}
	}

	for _, q := range All() {
		if q.Kind != Retrieve && o.hit[q.Name] == 0 {
			t.Errorf("mutating handle %s was never reached", q.Name)
		}
	}
	if bad := d.Fsck(); len(bad) != 0 {
		t.Errorf("fsck of the live database: %v", bad)
	}
}

// TestSnapshotOracle runs the oracle over a few seeds (under -race in
// the storage-engine CI job).
func TestSnapshotOracle(t *testing.T) {
	const rounds = 3
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			testSnapshotOracle(t, seed, rounds)
		})
	}
}
