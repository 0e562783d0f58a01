package queries

import (
	"math/rand"
	"strings"
	"testing"

	"moira/internal/db"
)

// TestNoQueryPanics throws adversarial junk arguments at every
// registered query handle, privileged and unprivileged: whatever the
// input, a query must return an error code, never take the server down.
// (Section 4: "Moira must be tamper-proof" / "fail gracefully".)
func TestNoQueryPanics(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "fuzzer")
	unpriv := f.userCtx("fuzzer")
	rng := rand.New(rand.NewSource(1988))

	junk := []string{
		"", "*", "?", "**?*", "-1", "0", "1", "999999999", "-999999999",
		"NONE", "USER", "LIST", "STRING", "RUSER", "TRUE", "FALSE", "DONTCARE",
		"root", "dbadmin", "moira", "fuzzer", "charon.mit.edu", "/u1",
		"POP", "SMTP", "NFS", "RVD", "HOMEDIR", "VAX",
		":", "\\", "\\:", "a:b", strings.Repeat("a", 100),
		"\x00\x01\x02", "né UTF-8 ü", " leading", "trailing ",
	}

	discard := func([]string) error { return nil }
	for _, q := range All() {
		for trial := 0; trial < 40; trial++ {
			n := len(q.Args)
			// Occasionally wrong arity, which must fail cleanly too.
			if trial%10 == 9 {
				n = rng.Intn(12)
			}
			args := make([]string, n)
			for i := range args {
				args[i] = junk[rng.Intn(len(junk))]
			}
			cx := f.priv
			if trial%2 == 1 {
				cx = unpriv
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s(%q) panicked: %v", q.Name, args, r)
					}
				}()
				Execute(cx, q.Name, args, discard)
			}()
		}
	}
}

// TestFuzzedDatabaseStaysConsistent runs a burst of random mutations and
// then checks cross-relation invariants: every index resolves, every
// membership points at an existing object, and quota accounting adds up.
func TestFuzzedDatabaseStaysConsistent(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(42))
	logins := []string{"amy", "bob", "cal", "dee"}
	for _, l := range logins {
		f.addUser(t, l)
	}
	lists := []string{"l1", "l2", "l3"}
	for _, l := range lists {
		f.mustRun(t, f.priv, "add_list", l, "1", "1", "0", "1", "0", "0", "NONE", "NONE", "")
	}
	ops := []func(){
		func() {
			f.run(f.priv, "add_member_to_list",
				lists[rng.Intn(len(lists))], "USER", logins[rng.Intn(len(logins))])
		},
		func() {
			f.run(f.priv, "delete_member_from_list",
				lists[rng.Intn(len(lists))], "USER", logins[rng.Intn(len(logins))])
		},
		func() {
			f.run(f.priv, "add_member_to_list",
				lists[rng.Intn(len(lists))], "LIST", lists[rng.Intn(len(lists))])
		},
		func() {
			f.run(f.priv, "update_user_shell",
				logins[rng.Intn(len(logins))], "/bin/sh")
		},
		func() {
			l := logins[rng.Intn(len(logins))]
			f.run(f.priv, "add_filesys", l+"fs", "NFS", "charon.mit.edu",
				"/u1/"+l, "/mit/"+l, "w", "", l, lists[0], "1", "PROJECT")
		},
		func() {
			l := logins[rng.Intn(len(logins))]
			f.run(f.priv, "add_nfs_quota", l+"fs", l, "100")
		},
		func() {
			l := logins[rng.Intn(len(logins))]
			f.run(f.priv, "delete_nfs_quota", l+"fs", l)
		},
	}
	for i := 0; i < 2000; i++ {
		ops[rng.Intn(len(ops))]()
	}

	d := f.d
	// Memberships reference live objects: fsck's member audit checks
	// each membership's list and member.
	for _, bad := range d.Fsck() {
		if bad.Table == db.TMembers {
			t.Errorf("membership: %v", bad)
		}
	}
	d.LockShared()
	defer d.UnlockShared()
	// Quota accounting: the sum of quotas on each partition equals its
	// allocated counter, no matter what order the fuzz applied.
	perPhys := map[int]int{}
	db.Quotas.Each(d, func(q *db.NFSQuota) bool {
		perPhys[q.PhysID] += q.Quota
		return true
	})
	db.Partitions.Each(d, func(p *db.NFSPhys) bool {
		if p.Allocated != perPhys[p.NFSPhysID] {
			t.Errorf("partition %d: allocated %d, quota sum %d",
				p.NFSPhysID, p.Allocated, perPhys[p.NFSPhysID])
		}
		return true
	})
	// Every filesystem's owner and server still exist.
	db.Filesystems.Each(d, func(fs *db.Filesys) bool {
		if _, ok := db.Users.ByID(d, fs.Owner); !ok {
			t.Errorf("filesys %s has dead owner", fs.Label)
		}
		if _, ok := db.Machines.ByID(d, fs.MachID); !ok {
			t.Errorf("filesys %s has dead machine", fs.Label)
		}
		return true
	})
}
