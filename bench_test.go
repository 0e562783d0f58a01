// The benchmark harness reproducing the paper's evaluation (see the
// experiment index in DESIGN.md and the results in EXPERIMENTS.md):
//
//   - BenchmarkTableG_*      — section 5.1.G File Organization: per-service
//     file generation at the paper's 10,000-user scale, with sizes
//     reported as custom metrics.
//   - BenchmarkScaleUsers    — claim A: designed for 10,000 active users.
//   - BenchmarkDCMNoChange / BenchmarkDCMChanged — claim E: files are only
//     generated and propagated if the data changed.
//   - BenchmarkBackup / BenchmarkRestore — section 5.2.2: full-database
//     ASCII dump ("about 3.2 MB") and recovery.
//   - BenchmarkConnectPersistent / BenchmarkConnectAthenareg — section
//     5.4's motivation: one backend start at daemon startup versus
//     Athenareg's per-connection backend spawn.
//   - BenchmarkNoopRPC       — the Noop request, "useful for testing and
//     profiling of the RPC layer".
//   - BenchmarkQueryDispatch — claim C: >100 query handles, database-
//     independent access.
//   - BenchmarkAccessThenQuery — section 5.5: access checks performed
//     twice (once to prompt, once to execute).
//   - BenchmarkHostUpdate    — section 5.9: one complete host update over
//     the Moira-to-server protocol.
//   - BenchmarkRegistration  — section 5.10: the three-request student
//     registration flow.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/core"
	"moira/internal/db"
	"moira/internal/experiments"
	"moira/internal/gen"
	"moira/internal/kerberos"
	"moira/internal/queries"
	"moira/internal/reg"
	"moira/internal/server"
	"moira/internal/update"
	"moira/internal/wildcard"
	"moira/internal/workload"
)

// paperScale is the deployment size of section 5.1.A.
const paperScale = 10000

// popCache shares one expensive population across benchmarks.
var popCache = map[int]*db.DB{}

func population(b *testing.B, users int) *db.DB {
	b.Helper()
	if d, ok := popCache[users]; ok {
		return d
	}
	d, _, err := experiments.BuildPopulation(users)
	if err != nil {
		b.Fatal(err)
	}
	popCache[users] = d
	return d
}

// --- T-G: the File Organization table ---

func benchGenerator(b *testing.B, g *gen.Incremental, users int) {
	d := population(b, users)
	b.ReportAllocs()
	b.ResetTimer()
	var last *gen.Result
	for i := 0; i < b.N; i++ {
		res, err := gen.Generate(d, g)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.NumFiles), "files")
	b.ReportMetric(float64(last.TotalBytes), "bytes")
}

func BenchmarkTableG_Hesiod(b *testing.B) { benchGenerator(b, gen.HesiodIncremental, paperScale) }
func BenchmarkTableG_NFS(b *testing.B)    { benchGenerator(b, gen.NFSIncremental, paperScale) }
func BenchmarkTableG_Mail(b *testing.B)   { benchGenerator(b, gen.MailIncremental, paperScale) }
func BenchmarkTableG_Zephyr(b *testing.B) { benchGenerator(b, gen.ZephyrIncremental, paperScale) }

// --- C-A: scaling to 10,000 users ---

func BenchmarkScaleUsers(b *testing.B) {
	for _, users := range []int{1000, 2500, 5000, 10000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			benchGenerator(b, gen.HesiodIncremental, users)
		})
	}
}

// --- C-E: DCM no-change detection ---

// dcmWorld boots an assembled system at a moderate scale for full-cycle
// benchmarks (real update agents, real TCP pushes).
func dcmWorld(b *testing.B, users int) (*core.System, *clock.Fake) {
	b.Helper()
	clk := clock.NewFake(time.Unix(600000000, 0))
	cfg := workload.Scaled(users)
	sys, err := core.Boot(core.Options{Clock: clk, Workload: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	return sys, clk
}

func BenchmarkDCMNoChange(b *testing.B) {
	sys, clk := dcmWorld(b, 1000)
	if _, err := sys.RunDCM(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(25 * time.Hour) // every service due, nothing changed
		stats, err := sys.RunDCM()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Generated != 0 || stats.HostsUpdated != 0 {
			b.Fatalf("no-change pass did work: %+v", stats)
		}
	}
}

func BenchmarkDCMChanged(b *testing.B) {
	sys, clk := dcmWorld(b, 1000)
	if _, err := sys.RunDCM(); err != nil {
		b.Fatal(err)
	}
	dc := sys.Direct("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		login := fmt.Sprintf("chg%06d", i)
		err := dc.Query("add_user",
			[]string{login, "-1", "/bin/csh", "Bench", "User", "", "1", "", "STAFF"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		clk.Advance(25 * time.Hour)
		b.StartTimer()
		stats, err := sys.RunDCM()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Generated == 0 {
			b.Fatalf("changed pass generated nothing: %+v", stats)
		}
	}
}

// --- C-P: parallel propagation (section 5.7 "forks a child" per server) ---

// benchDCMPropagation measures one full DCM pass over a fleet of slow
// hosts: 8 NFS servers (plus hesiod, the mailhub, and zephyr), each
// update agent injecting 20ms of real service delay. The sequential
// variant pins both worker pools to 1; the parallel variant uses the
// package defaults. The wall-clock ratio is the result.
func benchDCMPropagation(b *testing.B, parSvc, parHosts int) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	cfg := workload.Scaled(100)
	cfg.NFSServers = 8
	// One zephyr host: replicated services are pushed sequentially by
	// design, so a longer chain would measure that policy, not the pool.
	cfg.ZephyrServers = 1
	sys, err := core.Boot(core.Options{
		Clock:               clk,
		Workload:            &cfg,
		DCMParallelServices: parSvc,
		DCMParallelHosts:    parHosts,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)

	const hostLatency = 20 * time.Millisecond
	for _, a := range sys.Agents {
		a.SetLatency(hostLatency)
	}
	// Settle the initial propagation outside the timer.
	if _, err := sys.RunDCM(); err != nil {
		b.Fatal(err)
	}
	dc := sys.Direct("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		login := fmt.Sprintf("par%06d", i)
		err := dc.Query("add_user",
			[]string{login, "-1", "/bin/csh", "Par", "User", "", "1", "", "STAFF"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		clk.Advance(25 * time.Hour)
		b.StartTimer()
		stats, err := sys.RunDCM()
		if err != nil {
			b.Fatal(err)
		}
		if stats.HostsUpdated < 8 || stats.HostHardFails != 0 {
			b.Fatalf("pass did not push the fleet: %+v", stats)
		}
	}
}

func BenchmarkDCMParallel(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { benchDCMPropagation(b, 1, 1) })
	b.Run("parallel", func(b *testing.B) { benchDCMPropagation(b, 0, 0) })
}

// --- C-B2: backup and restore ---

func BenchmarkBackup(b *testing.B) {
	d := population(b, paperScale)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Backup(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := int64(0)
	for _, t := range db.AllTables {
		if fi, err := statFile(dir, t); err == nil {
			total += fi
		}
	}
	b.ReportMetric(float64(total), "dump-bytes")
}

func BenchmarkRestore(b *testing.B) {
	d := population(b, paperScale)
	dir := b.TempDir()
	if err := d.Backup(dir); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Restore(dir, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C-S: persistent backend vs Athenareg per-connection spawn ---

// backendSpawnCost models the INGRES backend startup the paper calls "a
// rather heavyweight operation". The real cost was seconds; 25ms keeps
// the benchmark honest without wasting wall-clock — the *ratio* is the
// result.
const backendSpawnCost = 25 * time.Millisecond

// benchConnect measures connect + Noop + one query + disconnect against
// one long-lived server. perConn, when positive, is slept before each
// dial: the Athenareg baseline, whose predecessor forked a database
// backend per client connection.
func benchConnect(b *testing.B, perConn time.Duration) {
	d := queries.NewBootstrappedDB(nil)
	srv := server.New(server.Config{DB: d})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if perConn > 0 {
			time.Sleep(perConn)
		}
		c, err := client.Dial(addr.String())
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Noop(); err != nil {
			b.Fatal(err)
		}
		if _, err := c.QueryAll("get_value", "def_quota"); err != nil {
			b.Fatal(err)
		}
		c.Disconnect()
	}
}

func BenchmarkConnectPersistent(b *testing.B) { benchConnect(b, 0) }
func BenchmarkConnectAthenareg(b *testing.B)  { benchConnect(b, backendSpawnCost) }

// --- C-N: Noop RPC round trips ---

func BenchmarkNoopRPC(b *testing.B) {
	d := queries.NewBootstrappedDB(nil)
	srv := server.New(server.Config{DB: d})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Disconnect() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Noop(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C-SQ: full server query round trip (wire protocol + metrics) ---

// BenchmarkServerQuery measures one authenticated-path query over the
// real wire protocol, including the per-request metric and trace-ring
// bookkeeping added by the observability layer.
func BenchmarkServerQuery(b *testing.B) {
	d := queries.NewBootstrappedDB(nil)
	srv := server.New(server.Config{DB: d})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr.String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Disconnect() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.QueryAll("get_value", "def_quota"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C-Q: query dispatch across handle classes ---

func BenchmarkQueryDispatch(b *testing.B) {
	d := population(b, 1000)
	cx := &queries.Context{DB: d, Privileged: true, App: "bench"}
	discard := func([]string) error { return nil }
	cases := []struct {
		name  string
		query string
		args  []string
	}{
		{"get_user_by_login", "get_user_by_login", []string{"root"}},
		{"get_machine", "get_machine", []string{"ATHENA.MIT.EDU"}},
		{"get_list_info", "get_list_info", []string{"dbadmin"}},
		{"get_value", "get_value", []string{"def_quota"}},
		{"get_server_info", "get_server_info", []string{"HESIOD"}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := queries.Execute(cx, tc.query, tc.args, discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C-ACL: the double access check ---

func BenchmarkAccessThenQuery(b *testing.B) {
	d := population(b, 1000)
	cx := &queries.Context{DB: d, Principal: "root", App: "bench"}
	cx.ResolveUser()
	args := []string{"root", "/bin/csh"}
	discard := func([]string) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := queries.CheckAccess(cx, "update_user_shell", args); err != nil {
			b.Fatal(err)
		}
		if err := queries.Execute(cx, "update_user_shell", args, discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C-U: one complete host update over the update protocol ---

func BenchmarkHostUpdate(b *testing.B) {
	d := population(b, 1000)
	res, err := gen.Generate(d, gen.HesiodIncremental)
	if err != nil {
		b.Fatal(err)
	}
	agent := update.NewAgent("SUOMI.MIT.EDU", b.TempDir(), nil)
	addr, err := agent.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { agent.Close() })
	script := gen.HesiodInstallScript("/tmp/hesiod.out", "/etc/athena/hesiod")
	// Strip the exec step: no hesiod server is attached to this agent.
	script = script[:len(script)-1]
	b.SetBytes(int64(len(res.Common)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &update.Push{Addr: addr.String(), Target: "/tmp/hesiod.out",
			Bundle: update.NewBundle(res.Common), Script: script, Timeout: 30 * time.Second}
		if err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C-REG: student registration ---

func BenchmarkRegistration(b *testing.B) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := queries.NewBootstrappedDB(clk)
	if _, _, err := workload.Populate(d, workload.Scaled(200)); err != nil {
		b.Fatal(err)
	}
	// The synthetic POs carry a box capacity (value2) sized for the
	// population; lift it so arbitrarily many benchmark registrations fit.
	d.LockExclusive()
	db.ServerHosts.Under(d, "POP", func(sh *db.ServerHost) bool {
		sh = db.Edit(d, db.ServerHosts, sh)
		sh.Value2 = 0 // unlimited
		d.NoteUpdateInternal(sh)
		return true
	})
	db.Partitions.Each(d, func(p *db.NFSPhys) bool {
		p = db.Edit(d, db.Partitions, p)
		p.Size = 1 << 30 // room for any number of benchmark lockers
		d.NoteUpdateInternal(p)
		return true
	})
	d.UnlockExclusive()
	kdc := kerberos.NewKDC("ATHENA.MIT.EDU", clk)
	srv := reg.NewServer(d, kdc, clk)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })

	cx := &queries.Context{DB: d, Privileged: true, App: "bench"}
	timeout := 5 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		first := fmt.Sprintf("Stu%06d", i)
		last := "Dent"
		id := fmt.Sprintf("9%02d-%02d-%04d", i%100, (i/100)%100, i%10000)
		_, _, err := reg.LoadTape(cx, []reg.TapeEntry{{First: first, Last: last, ID: id, Class: "1992"}})
		if err != nil {
			b.Fatal(err)
		}
		login := fmt.Sprintf("stu%05d", i)
		b.StartTimer()

		if code, _, err := reg.VerifyUser(addr.String(), first, last, id, timeout); err != nil || !code.IsSuccess() {
			b.Fatalf("verify: %v %v", code, err)
		}
		if code, err := reg.GrabLogin(addr.String(), first, last, id, login, timeout); err != nil || !code.IsSuccess() {
			b.Fatalf("grab: %v %v", code, err)
		}
		if code, err := reg.SetPassword(addr.String(), first, last, id, "pw", timeout); err != nil || !code.IsSuccess() {
			b.Fatalf("setpw: %v %v", code, err)
		}
	}
}

// --- C-IX: indexed retrieval vs the seed's linear scan ---

// The storage engine replaced full-table scans with secondary indexes
// (hash on uid, ordered name index for wildcards). The *scan variants
// below reproduce the seed's retrieval path — a full EachUser sweep
// with a per-row filter — over the exported API, so the pair measures
// exactly what the index bought at each population size.

var idxPopCache = map[int]*db.DB{}

func indexPopulation(b *testing.B, n int) *db.DB {
	b.Helper()
	if d, ok := idxPopCache[n]; ok {
		return d
	}
	d := db.New(clock.NewFake(time.Unix(600000000, 0)))
	for i := 0; i < n; i++ {
		if err := db.Users.Insert(d, &db.User{
			UsersID: i + 1,
			Login:   fmt.Sprintf("u%07d", i),
			UID:     2000 + i%65536,
			Shell:   "/bin/csh",
			Status:  1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	idxPopCache[n] = d
	return d
}

func scanUsersByUID(d *db.DB, uid int) []*db.User {
	var out []*db.User
	d.EachUser(func(u *db.User) bool {
		if u.UID == uid {
			out = append(out, u)
		}
		return true
	})
	return out
}

func scanUsersMatching(d *db.DB, pattern string) []*db.User {
	var out []*db.User
	d.EachUser(func(u *db.User) bool {
		if wildcard.Match(pattern, u.Login) {
			out = append(out, u)
		}
		return true
	})
	return out
}

func BenchmarkIndexedQuery(b *testing.B) {
	for _, n := range []int{10000, 100000, 1000000} {
		d := indexPopulation(b, n)
		// A mid-table resident: worst case for early-exit scans.
		login := fmt.Sprintf("u%07d", n/2)
		uid := 2000 + (n/2)%65536
		pattern := login[:6] + "*"
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			b.Run("point_uid/indexed", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := db.UsersByUID.Find(d, uid, func(*db.User) bool { return true }); !ok {
						b.Fatal("uid lookup found nothing")
					}
				}
			})
			b.Run("point_uid/scan", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := scanUsersByUID(d, uid); len(got) == 0 {
						b.Fatal("uid scan found nothing")
					}
				}
			})
			b.Run("point_login/indexed", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := d.UserByLogin(login); !ok {
						b.Fatal("login lookup found nothing")
					}
				}
			})
			b.Run("wildcard_login/indexed", func(b *testing.B) {
				match := func() (n int) {
					db.Users.Match(d, pattern, func(*db.User) bool { n++; return true })
					return n
				}
				match() // warm the ordered-name cache
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if match() == 0 {
						b.Fatal("wildcard match found nothing")
					}
				}
			})
			b.Run("wildcard_login/scan", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := scanUsersMatching(d, pattern); len(got) == 0 {
						b.Fatal("wildcard scan found nothing")
					}
				}
			})
			b.Run("snapshot_point_uid", func(b *testing.B) {
				d.Reader() // freeze once; steady state serves the cached snapshot
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := db.UsersByUID.Find(d.Reader(), uid, func(*db.User) bool { return true }); !ok {
						b.Fatal("snapshot uid lookup found nothing")
					}
				}
			})
			if n > 100000 {
				return
			}
			// The write→read transition: one in-place row update and the
			// snapshot rebuild the next reader pays for it.
			b.Run("write_then_read", func(b *testing.B) {
				u, _ := d.UserByLogin(login)
				d.Reader()
				shells := [2]string{"/bin/csh", "/bin/sh"}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.LockExclusive()
					u = db.Edit(d, db.Users, u)
					u.Shell = shells[i&1]
					d.NoteUpdate(u)
					d.UnlockExclusive()
					if got, ok := d.Reader().UserByLogin(login); !ok || got.Shell != shells[i&1] {
						b.Fatal("the snapshot missed the write before it")
					}
				}
			})
		})
	}
}

// statFile returns a file's size.
func statFile(dir, name string) (int64, error) {
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// --- Incremental DCM: row-delta extraction + edit push ---

// benchIncrementalDCM measures one steady-state DCM pass at scale under
// light churn: users/1000 mutations (0.1%) land between passes. Both
// variants run the one change path — planner, keyed models, edit
// pushes. The incremental variant lets the planner patch its models
// from the journal and reports the bytes that traveled; the full
// baseline drops every model before each timed pass, so every service
// rebuilds from scratch ("cold start"), and reports the whole-file byte
// count (BytesPropagated) as what a transport that sends whole files
// would move. With fleet set, every pass also updates every managed host
// (real TCP agents running the service install simulations — creating
// home directories, reparsing hesiod maps — a cost identical in both
// modes); without it the host fleet is pinned up to date, isolating the
// DCM's own work: plan, generate, bundle, commit.
func benchIncrementalDCM(b *testing.B, users int, incremental, fleet bool) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	cfg := workload.Scaled(users)
	// Keep the paper's absolute server counts instead of scaling the
	// NFS fleet with the population: the subject is per-pass generation
	// and transfer cost, not push fan-out.
	cfg.NFSServers = 4
	cfg.Workstations = 1000
	cfg.MailLists = 1200
	sys, err := core.Boot(core.Options{Clock: clk, Workload: &cfg, DCMIncremental: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)

	// Settle the cold start (full builds + the initial fleet push)
	// outside the timer.
	if _, err := sys.RunDCM(); err != nil {
		b.Fatal(err)
	}
	if !fleet {
		// Pin every host up to date so the host scan never selects one
		// and the timed region is the generation pipeline alone.
		sys.DB.LockExclusive()
		db.ServerHosts.Each(sys.DB, func(sh *db.ServerHost) bool {
			sh = db.Edit(sys.DB, db.ServerHosts, sh)
			sh.LastSuccess = clk.Now().Unix() + 100*365*24*3600
			sys.DB.NoteUpdateInternal(sh)
			return true
		})
		sys.DB.UnlockExclusive()
	}

	// Residents for in-place churn.
	var logins []string
	sys.DB.LockShared()
	sys.DB.EachUser(func(u *db.User) bool {
		if u.Status == 1 {
			logins = append(logins, u.Login)
		}
		return len(logins) < 4096
	})
	sys.DB.UnlockShared()

	churn := users / 1000 // 0.1% of the population per pass
	if churn < 1 {
		churn = 1
	}
	dc := sys.Direct("bench")
	next := 0
	var pushed, reused, records, keys int64
	var deltas, fallbacks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < churn; j++ {
			pick := logins[(i*churn+j)%len(logins)]
			var err error
			switch j % 3 {
			case 0:
				next++
				login := fmt.Sprintf("churn%06d", next)
				err = dc.Query("add_user",
					[]string{login, "-1", "/bin/csh", "Churn", "User", "", "1", "", "STAFF"}, nil)
				logins = append(logins, login)
			case 1:
				err = dc.Query("update_user_shell", []string{pick, "/bin/sh"}, nil)
			default:
				err = dc.Query("update_user_status", []string{pick, "1"}, nil)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		clk.Advance(25 * time.Hour) // every service due
		if !incremental {
			for name := range gen.Incrementals {
				sys.DCM.Planner().Invalidate(name)
			}
		}
		b.StartTimer()
		stats, err := sys.RunDCM()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Generated == 0 {
			b.Fatalf("churn pass generated nothing: %+v", stats)
		}
		if stats.HostHardFails != 0 {
			b.Fatalf("pass dropped hosts: %+v", stats)
		}
		if fleet && stats.HostsUpdated == 0 {
			b.Fatalf("fleet pass pushed nothing: %+v", stats)
		}
		if incremental {
			pushed += int64(stats.BytesPushed)
			reused += int64(stats.BytesSkipped)
		} else {
			pushed += int64(stats.BytesPropagated)
		}
		records += int64(stats.DeltaRecords)
		keys += int64(stats.DeltaKeys)
		deltas += stats.DeltaBuilds
		fallbacks += stats.Fallbacks
	}
	b.StopTimer()
	if incremental && deltas == 0 {
		b.Fatal("incremental run never took a delta pass")
	}
	if fallbacks != 0 {
		b.Fatalf("steady-state churn hit %d fallback rebuilds", fallbacks)
	}
	if fleet {
		b.ReportMetric(float64(pushed)/float64(b.N), "pushedB/op")
		b.ReportMetric(float64(reused)/float64(b.N), "reusedB/op")
	}
	b.ReportMetric(float64(records)/float64(b.N), "records/op")
	b.ReportMetric(float64(keys)/float64(b.N), "keys/op")
}

// BenchmarkDCMIncrementalChurn is the incremental-DCM evaluation
// (BENCH_dcm_incremental.json): 100,000 users, 0.1% churn per pass,
// every-model-invalidated whole-file baseline vs row-delta edit-push
// passes, measured as the generation pipeline alone and as end-to-end fleet
// passes (which add the mode-independent host install simulations).
func BenchmarkDCMIncrementalChurn(b *testing.B) {
	users := 100000
	if testing.Short() {
		users = 2000
	}
	for _, m := range []struct {
		name        string
		incremental bool
	}{{"full", false}, {"incremental", true}} {
		b.Run(m.name, func(b *testing.B) {
			b.Run("generate", func(b *testing.B) { benchIncrementalDCM(b, users, m.incremental, false) })
			b.Run("fleet", func(b *testing.B) { benchIncrementalDCM(b, users, m.incremental, true) })
		})
	}
}
