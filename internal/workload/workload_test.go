package workload

import (
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/queries"
)

func TestPopulateDeterministic(t *testing.T) {
	cfg := Scaled(150)
	build := func() (*db.DB, *Stats) {
		d := queries.NewBootstrappedDB(clock.NewFake(time.Unix(600000000, 0)))
		stats, _, err := Populate(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d, stats
	}
	d1, s1 := build()
	d2, s2 := build()
	if *s1 != *s2 {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
	// Same logins in both.
	d1.LockShared()
	d2.LockShared()
	defer d1.UnlockShared()
	defer d2.UnlockShared()
	d1.EachUser(func(u *db.User) bool {
		if _, ok := d2.UserByLogin(u.Login); !ok {
			t.Errorf("login %q only in first population", u.Login)
			return false
		}
		return true
	})
}

func TestPopulateShape(t *testing.T) {
	cfg := Scaled(200)
	d := queries.NewBootstrappedDB(clock.NewFake(time.Unix(600000000, 0)))
	stats, hosts, err := Populate(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Users != 200 {
		t.Errorf("users = %d", stats.Users)
	}
	if stats.Lists < 200 {
		t.Errorf("lists = %d (every user gets a namesake group)", stats.Lists)
	}
	if len(hosts.NFS) != cfg.NFSServers || hosts.Mailhub == "" || len(hosts.Hesiod) != 1 {
		t.Errorf("hosts = %+v", hosts)
	}

	d.LockShared()
	defer d.UnlockShared()
	// Every user has an active account, a POP pobox, a namesake group,
	// a home filesystem, and a quota.
	checked := 0
	d.EachUser(func(u *db.User) bool {
		if u.Login == "root" || u.Login == "moira" {
			return true
		}
		checked++
		if u.Status != db.UserActive {
			t.Errorf("%s: status %d", u.Login, u.Status)
			return false
		}
		if u.PoType != db.PoboxPOP {
			t.Errorf("%s: pobox %s", u.Login, u.PoType)
			return false
		}
		if _, ok := d.ListByName(u.Login); !ok {
			t.Errorf("%s: no namesake group", u.Login)
			return false
		}
		if n := count(d, db.Filesystems, u.Login); n != 1 {
			t.Errorf("%s: no home filesystem", u.Login)
			return false
		}
		return true
	})
	if checked != 200 {
		t.Errorf("checked %d users", checked)
	}
	// DCM service records exist with the paper's intervals.
	for name, interval := range map[string]int{"HESIOD": 360, "NFS": 720, "SMTP": 1440, "ZEPHYR": 1440} {
		s, ok := db.Servers.Get(d, name)
		if !ok {
			t.Errorf("service %s missing", name)
			continue
		}
		if s.UpdateInt != interval {
			t.Errorf("%s interval = %d, want %d", name, s.UpdateInt, interval)
		}
		if count(d, db.ServerHosts, name) == 0 {
			t.Errorf("%s has no hosts", name)
		}
	}
	// Partition allocation accounting is consistent with quotas.
	totalAlloc := 0
	db.Partitions.Each(d, func(p *db.NFSPhys) bool {
		totalAlloc += p.Allocated
		return true
	})
	totalQuota := 0
	db.Quotas.Each(d, func(q *db.NFSQuota) bool {
		totalQuota += q.Quota
		return true
	})
	if totalAlloc != totalQuota {
		t.Errorf("allocated %d != quota sum %d", totalAlloc, totalQuota)
	}
}

func TestScaledProportions(t *testing.T) {
	full := Default10K()
	if full.Users != 10000 || full.NFSServers != 20 || full.POServers != 2 {
		t.Errorf("Default10K = %+v", full)
	}
	small := Scaled(500)
	if small.NFSServers != 1 {
		t.Errorf("Scaled(500).NFSServers = %d", small.NFSServers)
	}
}

// count returns how many rows rel files under name.
func count[R comparable](d *db.DB, rel *db.Relation[R], name string) (n int) {
	rel.Under(d, name, func(*R) bool { n++; return true })
	return n
}
