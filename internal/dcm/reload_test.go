package dcm

import (
	"archive/tar"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"moira/internal/db"
	"moira/internal/gen"
	"moira/internal/mrerr"
	"moira/internal/queries"
	"moira/internal/update"
	"moira/internal/workload"
	"moira/internal/zephyr"
)

// TestServiceReloadOracle is the oracle for the services' delta reloads:
// across randomized mutate/pass sequences over the world's hesiod, NFS,
// mailhub and zephyr hosts — with crashes injected at before-xfer,
// after-xfer, before-execute and every instr-N, once (the pass's retry
// recovers) or for a whole pass, re-pushes of an unchanged bundle, and
// reloads run by hand with no push view — every service whose host's
// last push succeeded must hold exactly what a from-scratch parse of
// that host's installed files gives. Two hesiod hosts feed one server,
// and each NFS host runs install_nfs once per partition against one
// credentials file. Each zephyr host's broker must hold the ACL files of
// the bundle at its target and no others (ACEs go to NONE, classes are
// deleted and come back), and must have them installed byte for byte:
// the extracts that found their member in place left the right files
// behind.
func TestServiceReloadOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runReloadOracle(t, seed) })
	}
}

func runReloadOracle(t *testing.T, seed int64) {
	cfg := workload.Scaled(120)
	cfg.HesiodServers = 2
	cfg.NFSServers = 2
	cfg.PartsPerServer = 2
	w := newWorldCfg(t, true, cfg)
	rng := rand.New(rand.NewSource(seed))

	type svc struct {
		name, dir string
		hosts     []string
		script    int // instructions in the host's install script
		verify    func(host string) error
	}
	var services []*svc
	w.d.LockShared()
	for _, s := range []struct{ name, dir string }{{"HESIOD", "/etc/athena/hesiod"}, {"NFS", "/etc/athena/nfs"}, {"SMTP", "/usr/lib"}} {
		sv := &svc{name: s.name, dir: s.dir}
		for _, sh := range hostsOf(w.d, s.name) {
			m, _ := db.Machines.ByID(w.d, sh.MachID)
			sv.hosts = append(sv.hosts, m.Name)
		}
		services = append(services, sv)
	}
	w.d.UnlockShared()
	hes, nfs, smtp := services[0], services[1], services[2]
	hes.script = len(gen.HesiodInstallScript("", ""))
	nfs.script = len(gen.NFSInstallScript("", "", []string{"/u1", "/u2"}))
	smtp.script = len(gen.MailInstallScript("", ""))
	hes.verify = func(h string) error { return w.hes.Verify(w.agents[h], hes.dir) }
	nfs.verify = func(h string) error { return w.nfsHosts[h].Verify(w.agents[h], nfs.dir) }
	smtp.verify = func(h string) error { return w.hub.Verify(w.agents[h], smtp.dir) }
	if len(hes.hosts) != 2 || len(nfs.hosts) != 2 || len(smtp.hosts) != 1 {
		t.Fatalf("hosts: hesiod %v, nfs %v, mail %v", hes.hosts, nfs.hosts, smtp.hosts)
	}

	// The zephyr hosts, each with a broker of its own, draw their changes,
	// crashes and overrides from a stream of their own, so the other
	// services see the sequence they saw before zephyr joined the oracle.
	// A changed zephyr bundle ships its edits, so the extracts of the ACL
	// files it left alone find their members in place, as do all of them
	// on the re-pushes of an unchanged bundle: overrides and the retries
	// after a crash.
	zr := rand.New(rand.NewSource(seed + 100))
	zeph := &svc{name: "ZEPHYR", dir: "/etc/athena/zephyr"}
	var zephTarget string
	var classes []string
	w.d.LockShared()
	for _, sh := range hostsOf(w.d, "ZEPHYR") {
		m, _ := db.Machines.ByID(w.d, sh.MachID)
		zeph.hosts = append(zeph.hosts, m.Name)
	}
	if s, ok := db.Servers.Get(w.d, "ZEPHYR"); ok {
		zephTarget = s.TargetFile
	}
	db.ZephyrClasses.Each(w.d, func(z *db.ZephyrClass) bool {
		classes = append(classes, z.Class)
		return true
	})
	w.d.UnlockShared()
	brokers := map[string]*zephyr.Broker{}
	for _, h := range zeph.hosts {
		brokers[h] = zephyr.NewBroker(w.clk)
		zephyr.AttachToAgent(w.agents[h], brokers[h])
	}
	deleted := map[string]bool{} // classes deleted and not yet back
	deletions := 0
	zeph.verify = func(h string) error { return verifyZephyr(w.agents[h], brokers[h], zephTarget, zeph.dir) }
	if len(zeph.hosts) != 3 || zephTarget == "" || len(classes) == 0 {
		t.Fatalf("zephyr: hosts %v, target %q, classes %v", zeph.hosts, zephTarget, classes)
	}
	checked := append(services[:len(services):len(services)], zeph)

	// lastOK reports whether host's last push of service succeeded; a
	// host whose last push failed legitimately serves what it held
	// before, whatever the crash left on disk.
	lastOK := func(service, host string) bool {
		w.d.LockShared()
		defer w.d.UnlockShared()
		sh, _ := db.ServerHosts.Find(w.d, service, func(sh *db.ServerHost) bool { return sh.MachID == machIDByName(w.d, host) })
		return sh.LastTry != 0 && sh.LastSuccess == sh.LastTry
	}
	verified := map[string]int{}
	check := func(round int) {
		t.Helper()
		for _, s := range checked {
			for _, h := range s.hosts {
				if !lastOK(s.name, h) {
					continue
				}
				if err := s.verify(h); err != nil {
					t.Fatalf("round %d: %s on %s: %v", round, s.name, h, err)
				}
				verified[s.name]++
			}
		}
	}
	try := func(name string, args ...string) bool {
		priv := &queries.Context{DB: w.d, Privileged: true, App: "oracle"}
		return queries.Execute(priv, name, args, func([]string) error { return nil }) == nil
	}
	var logins, maillists []string
	w.d.LockShared()
	w.d.EachUser(func(u *db.User) bool {
		logins = append(logins, u.Login)
		return true
	})
	w.d.EachList(func(l *db.List) bool {
		if l.Maillist {
			maillists = append(maillists, l.Name)
		}
		return true
	})
	w.d.UnlockShared()
	randomUser := func() string { return logins[rng.Intn(len(logins))] }

	w.run()
	check(0)
	var added []string
	lockers := 0
	for round := 1; round <= 30; round++ {
		override := round%5 == 0
		if !override {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				switch rng.Intn(6) {
				case 0: // a new user, with a home locker and quota
					login := fmt.Sprintf("rl%d%04d", seed, round*10+n)
					if try("add_user", login, "-1", "/bin/csh", "Reload", "Oracle", "", "1", "", "STAFF") {
						added = append(added, login)
						host := nfs.hosts[rng.Intn(len(nfs.hosts))]
						part := []string{"/u1", "/u2"}[rng.Intn(2)]
						if try("add_filesys", login, "NFS", host, part+"/"+login, "/mit/"+login, "w", "", login, queries.AdminList, "1", "HOMEDIR") &&
							try("add_nfs_quota", login, login, "100") {
							lockers++
						}
					}
				case 1: // a shell changes
					try("update_user_shell", randomUser(), "/bin/sh"+strconv.Itoa(rng.Intn(9)))
				case 2: // a user, and the aliases entry of its post office box, comes and goes
					u := randomUser()
					if len(added) > 0 && rng.Intn(2) == 0 {
						u = added[rng.Intn(len(added))]
					}
					try("update_user_status", u, strconv.Itoa(rng.Intn(2)))
				case 3: // a quota changes
					u := randomUser()
					try("update_nfs_quota", u, u, strconv.Itoa(100+rng.Intn(900)))
				case 4, 5: // mailing list membership
					list, u := maillists[rng.Intn(len(maillists))], randomUser()
					if len(added) > 0 && rng.Intn(2) == 0 {
						u = added[rng.Intn(len(added))]
					}
					if !try("add_member_to_list", list, "USER", u) {
						try("delete_member_from_list", list, "USER", u)
					}
				}
			}
			switch zr.Intn(4) {
			case 0: // one class's ACEs: one ACL file changes, comes or goes
				xmt, sub := []string{"LIST", "zephyr-operators"}, []string{"NONE", "NONE"}
				if zr.Intn(2) == 0 {
					xmt = []string{"USER", logins[zr.Intn(len(logins))]}
				}
				if zr.Intn(2) == 0 {
					sub = []string{"USER", logins[zr.Intn(len(logins))]}
				}
				class := classes[zr.Intn(len(classes))]
				args := append(append([]string{class, class}, xmt...), sub...)
				try("update_zephyr_class", append(args, "NONE", "NONE", "NONE", "NONE")...)
			case 1: // the operators list: every class's transmit ACL
				u := logins[zr.Intn(len(logins))]
				if !try("add_member_to_list", "zephyr-operators", "USER", u) {
					try("delete_member_from_list", "zephyr-operators", "USER", u)
				}
			case 2: // a class, and every ACL file of it, goes or comes back
				class := classes[zr.Intn(len(classes))]
				if !deleted[class] {
					if deleted[class] = try("delete_zephyr_class", class); deleted[class] {
						deletions++
					}
				} else if try("add_zephyr_class", class, "LIST", "zephyr-operators", "USER", logins[zr.Intn(len(logins))], "NONE", "NONE", "NONE", "NONE") {
					delete(deleted, class)
				}
			}
			w.clk.Advance(25 * time.Hour)
		}

		// A crash on one host, at any point of its update.
		s := services[rng.Intn(len(services))]
		host := s.hosts[rng.Intn(len(s.hosts))]
		stages := []string{"before-xfer", "after-xfer", "before-execute"}
		for i := 0; i < s.script; i++ {
			stages = append(stages, fmt.Sprintf("instr-%d", i))
		}
		left := 1 // the pass's retry recovers
		if rng.Intn(3) == 0 {
			left = -1 // the host fails for the whole pass
		}
		crash := &crashCounter{stage: stages[rng.Intn(len(stages))], left: left}
		if rng.Intn(2) == 0 {
			w.agents[host].SetCrashPoint(crash.hook)
		}
		zhost := zeph.hosts[zr.Intn(len(zeph.hosts))]
		if zr.Intn(2) == 0 {
			zstages := []string{"before-xfer", "after-xfer", "before-execute"}
			for i := 0; i <= 8*len(classes); i++ {
				zstages = append(zstages, fmt.Sprintf("instr-%d", i))
			}
			zcrash := &crashCounter{stage: zstages[zr.Intn(len(zstages))], left: 1}
			if zr.Intn(3) == 0 {
				zcrash.left = -1
			}
			w.agents[zhost].SetCrashPoint(zcrash.hook)
		}
		if override {
			// No change since the last generation: the override host is
			// re-pushed the bundle it holds.
			h := services[rng.Intn(2)].hosts[0]
			for _, s := range services {
				for _, sh := range s.hosts {
					if sh == h {
						w.query("set_server_host_override", s.name, h)
					}
				}
			}
			w.query("set_server_host_override", "ZEPHYR", zeph.hosts[zr.Intn(len(zeph.hosts))])
			w.clk.Advance(time.Minute)
		}
		w.run()
		w.agents[host].SetCrashPoint(nil)
		w.agents[zhost].SetCrashPoint(nil)
		check(round)

		// Now and then an operator reloads a healthy host by hand: no
		// push view, so the service parses its installed files whole.
		if rng.Intn(4) == 0 {
			if h := nfs.hosts[0]; lastOK("NFS", h) {
				for _, p := range []string{"/u1", "/u2"} {
					if err := w.agents[h].ExecCommand("install_nfs", []string{nfs.dir, p}); err != nil {
						t.Fatalf("round %d: install_nfs by hand: %v", round, err)
					}
				}
			}
			if h := hes.hosts[0]; lastOK("HESIOD", h) {
				if err := w.agents[h].ExecCommand("restart_hesiod", []string{hes.dir}); err != nil {
					t.Fatalf("round %d: restart_hesiod by hand: %v", round, err)
				}
			}
			check(round)
		}
	}
	if lockers == 0 {
		t.Error("no new locker reached an NFS host")
	}
	for _, s := range checked {
		if verified[s.name] < 20 {
			t.Errorf("%s verified only %d times", s.name, verified[s.name])
		}
	}
	var kept int64
	for _, h := range zeph.hosts {
		kept += w.agents[h].Registry().Counter("update.extracts.kept").Value()
	}
	if kept == 0 {
		t.Error("no zephyr extract found its member in place")
	}
	if deletions == 0 {
		t.Error("no zephyr class was deleted")
	}
	t.Logf("verified %v; %d users and %d lockers added; %d zephyr extracts kept; %d zephyr classes deleted", verified, len(added), lockers, kept, deletions)
}

// TestZephyrACLGoesWithItsACE: when a class's subscribe ACE goes to
// NONE, and then the class is deleted, its ACL files leave the bundle,
// and every zephyr host lets anyone subscribe and then transmit, as a
// host that got the bundle fresh would. The reload holds only the files
// the push names, and the agent removes the files that left the bundle
// from each host's disk.
func TestZephyrACLGoesWithItsACE(t *testing.T) {
	w := newWorld(t, true, 60)
	const class, stranger = "CLASS-2", "stranger"
	var target string
	var hosts []string
	w.d.LockShared()
	for _, sh := range hostsOf(w.d, "ZEPHYR") {
		m, _ := db.Machines.ByID(w.d, sh.MachID)
		hosts = append(hosts, m.Name)
	}
	if s, ok := db.Servers.Get(w.d, "ZEPHYR"); ok {
		target = s.TargetFile
	}
	w.d.UnlockShared()
	login, _ := w.firstActiveLogin()
	brokers := map[string]*zephyr.Broker{}
	for _, h := range hosts {
		brokers[h] = zephyr.NewBroker(w.clk)
		zephyr.AttachToAgent(w.agents[h], brokers[h])
	}
	pass := func(step string, sub, xmt error) {
		t.Helper()
		w.clk.Advance(25 * time.Hour)
		w.run()
		for _, h := range hosts {
			b := brokers[h]
			if err := verifyZephyr(w.agents[h], b, target, "/etc/athena/zephyr"); err != nil {
				t.Errorf("%s: %s: %v", step, h, err)
			}
			if _, err := b.Subscribe(class, "*", stranger); err != sub {
				t.Errorf("%s: %s: %s subscribes to %s: err %v, want %v", step, h, stranger, class, err, sub)
			}
			if err := b.Send(class, "I", stranger, "m"); err != xmt {
				t.Errorf("%s: %s: %s transmits on %s: err %v, want %v", step, h, stranger, class, err, xmt)
			}
		}
	}
	w.query("update_zephyr_class", class, class, "LIST", "zephyr-operators", "USER", login, "NONE", "NONE", "NONE", "NONE")
	pass("sub ACE set", mrerr.MrPerm, mrerr.MrPerm)
	w.query("update_zephyr_class", class, class, "LIST", "zephyr-operators", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE")
	pass("sub ACE gone", nil, mrerr.MrPerm)
	w.query("delete_zephyr_class", class)
	pass("class deleted", nil, nil)
}

// verifyZephyr checks a zephyr host: every ACL file of the bundle at its
// target is installed in dir byte for byte, dir holds no other ACL
// file, and its broker holds exactly those files, each as a
// from-scratch parse of it gives.
func verifyZephyr(a *update.Agent, b *zephyr.Broker, target, dir string) error {
	bundle, err := a.ReadHostFile(target)
	if err != nil {
		return err
	}
	var files []string
	tr := tar.NewReader(bytes.NewReader(bundle))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		want, err := io.ReadAll(tr)
		if err != nil {
			return err
		}
		got, err := a.ReadHostFile(dir + "/" + hdr.Name)
		if err != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("%s: %d bytes installed (%v), the bundle holds %d", hdr.Name, len(got), err, len(want))
		}
		files = append(files, hdr.Name)
	}
	fp, err := a.HostPath(dir)
	if err != nil {
		return err
	}
	ents, err := os.ReadDir(fp)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".acl") && !slices.Contains(files, e.Name()) {
			return fmt.Errorf("%s: installed, but the bundle lacks it", e.Name())
		}
	}
	return b.Verify(a, dir, files)
}
