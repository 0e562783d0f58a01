// Command moirad runs the Moira server daemon.
//
// In --demo mode it boots the complete assembled system — database
// populated with a synthetic Athena workload, Kerberos KDC, registration
// server, DCM, and the managed hosts with their update agents — and
// prints the listening addresses, then serves until interrupted. This is
// the easiest way to get a live system to point mrtest or userreg at.
//
// Without --demo it serves an empty (or restored) database without an
// authenticator verifier: only unauthenticated queries work, because the
// Kerberos simulation is in-process and cannot be shared across OS
// processes. The assembled system (core.Boot) is the supported way to
// run the authenticated stack.
//
// With -data-dir it is a durable node, a replica.Cluster: standalone
// (its own primary from boot) without -election, a member of a
// self-electing failover cluster with it. A hot standby is a pair, each
// node naming the other in -election.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"moira/internal/clock"
	"moira/internal/core"
	"moira/internal/db"
	"moira/internal/health"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
	"moira/internal/replica"
	"moira/internal/server"
	"moira/internal/stats"
	"moira/internal/trace"
	"moira/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", fmt.Sprintf("127.0.0.1:%d", 7760), "TCP address to listen on")
		demo    = flag.Bool("demo", false, "boot the full assembled system with a synthetic workload")
		users   = flag.Int("users", 500, "synthetic population size for --demo")
		restore = flag.String("restore", "", "restore the database from an mrbackup directory")
		journal = flag.String("journal", "", "append the change journal to this file")
		dataDir = flag.String("data-dir", "", "durable data directory: recover on boot, journal with CRCs, checkpoint on an interval (a standalone node without -election)")

		journalSync  = flag.String("journal-sync", "commit", "journal sync policy with -data-dir: commit, interval, or none")
		syncInterval = flag.Duration("journal-sync-interval", time.Second, "group-commit period for -journal-sync=interval")
		ckptInterval = flag.Duration("checkpoint-interval", time.Hour, "background checkpoint period with -data-dir (0 = never)")
		ckptKeep     = flag.Int("checkpoint-keep", db.DefaultCheckpointKeep, "snapshot generations to retain with -data-dir")

		replListen = flag.String("repl-listen", "", "with -election (required): serve journal shipping and elections on this address")
		promote    = flag.Bool("promote", false, "with -election: promote to primary immediately at boot (SIGUSR1 promotes at runtime)")

		election        = flag.String("election", "", "with -data-dir: run as a failover cluster node; comma-separated peer replication addresses")
		leaseInterval   = flag.Duration("lease-interval", 2*time.Second, "cluster mode: primary lease heartbeat period")
		leaseTimeout    = flag.Duration("lease-timeout", 0, "cluster mode: lease expiry (0 = 3x -lease-interval)")
		advertiseRepl   = flag.String("advertise-repl", "", "cluster mode: replication address peers dial this node at (default -repl-listen)")
		advertiseClient = flag.String("advertise-client", "", "cluster mode: client address handed out in primary redirects (default -addr)")
		dcmEvery        = flag.Duration("dcm-interval", 15*time.Minute, "wall-clock DCM pass interval in --demo mode")
		verbose         = flag.Bool("v", false, "log requests")
		debug           = flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz, expvar, and pprof on this HTTP address")

		traceSlow   = flag.Duration("trace-slow", trace.DefaultSlow, "always keep traces at least this slow and count them in trace.slowops (negative = keep all)")
		traceSample = flag.Int("trace-sample", trace.DefaultSampleN, "keep 1 in N ordinary traces (1 = keep everything)")
		replLagMax  = flag.Duration("repl-lag-max", 5*time.Minute, "cluster mode: /readyz fails while this node follows with replication lag beyond this")

		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "drop a client connection idle for this long (0 = never)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-reply write deadline (0 = none)")
		maxConns     = flag.Int("max-conns", 0, "shed connections beyond this many with MR_BUSY (0 = unlimited)")
		maxBatch     = flag.Int("max-batch", 0, "refuse v4 batch requests with more items than this (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", protocol.DefaultDrainTimeout, "how long shutdown waits for in-flight requests before force-closing")
	)
	flag.Parse()

	var logf func(string, ...any) // nil discards, and skips the per-request line
	if *verbose {
		logf = log.Printf
	}

	lifecycle := lifecycleKnobs{
		idle: *idleTimeout, write: *writeTimeout, maxConns: *maxConns,
		maxBatch: *maxBatch, drain: *drainTimeout,
	}
	if *demo {
		runDemo(*users, *dcmEvery, *debug, *traceSlow, *traceSample, lifecycle, logf)
		return
	}

	var d *db.DB
	var err error
	var cl *replica.Cluster
	reg := stats.NewRegistry()
	trc := trace.New(trace.Options{Process: "moirad", Slow: *traceSlow, SampleN: *traceSample, Stats: reg})
	hc := health.NewChecker()
	// The cluster's role callback flips the server's write gate; the
	// server does not exist yet when the cluster opens, so it arrives
	// through this indirection (set before cl.Start).
	var onRole func(role string, readonly bool)
	var peers []string
	for _, p := range strings.Split(*election, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	switch {
	case *dataDir != "":
		if *restore != "" || *journal != "" {
			log.Fatalf("moirad: -data-dir manages its own snapshots and journal; it cannot be combined with -restore or -journal")
		}
		// A zero-peer node opens no replication listener: a follower its
		// quorum does not count could tail it and later self-promote
		// beside it.
		if (len(peers) > 0) != (*replListen != "") {
			log.Fatalf("moirad: -repl-listen is required with -election and only applies with it")
		}
		policy, err := db.ParseSyncPolicy(*journalSync)
		if err != nil {
			log.Fatalf("moirad: %v", err)
		}
		advClient := *advertiseClient
		if advClient == "" {
			advClient = *addr
		}
		var info *queries.RecoverInfo
		cl, info, err = replica.OpenCluster(replica.ClusterConfig{
			Root:               *dataDir,
			ListenRepl:         *replListen,
			AdvertiseRepl:      *advertiseRepl,
			AdvertiseClient:    advClient,
			Peers:              peers,
			LeaseInterval:      *leaseInterval,
			LeaseTimeout:       *leaseTimeout,
			Journal:            db.JournalOptions{Policy: policy, Interval: *syncInterval},
			CheckpointInterval: *ckptInterval,
			CheckpointKeep:     *ckptKeep,
			Logf:               log.Printf,
			Stats:              reg,
			Tracer:             trc,
			OnRole: func(role string, readonly bool) {
				if onRole != nil {
					onRole(role, readonly)
				}
			},
		})
		if err != nil {
			log.Fatalf("moirad: recovery: %v", err)
		}
		if n := len(info.Fsck); n > 0 {
			for _, inc := range info.Fsck {
				log.Printf("moirad: fsck: %s", inc)
			}
			log.Fatalf("moirad: recovered database has %d integrity violations; refusing to serve it (run mrfsck)", n)
		}
		defer cl.Close()
		d = cl.DB()
	case len(peers) > 0 || *replListen != "":
		log.Fatalf("moirad: -election and -repl-listen need -data-dir")
	case *restore != "":
		d, err = db.Restore(*restore, clock.System)
		if err != nil {
			log.Fatalf("moirad: restore: %v", err)
		}
		log.Printf("moirad: restored database from %s", *restore)
	default:
		d = queries.NewBootstrappedDB(clock.System)
	}
	if *journal != "" {
		f, err := os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("moirad: journal: %v", err)
		}
		defer f.Close()
		d.SetJournal(f)
	}
	if *promote && len(peers) == 0 {
		log.Fatalf("moirad: -promote only applies with -election")
	}

	scfg := server.Config{
		DB:           d,
		Stats:        reg,
		Logf:         logf,
		Tracer:       trc,
		Health:       hc,
		IdleTimeout:  lifecycle.idle,
		WriteTimeout: lifecycle.write,
		MaxConns:     lifecycle.maxConns,
		MaxBatch:     lifecycle.maxBatch,
		DrainTimeout: lifecycle.drain,
		ReadOnly:     cl != nil,
	}
	if cl != nil {
		scfg.Failover = cl
	}
	srv := server.New(scfg)

	hc.AddFunc("journal", func() (bool, string) {
		if d.JournalWedged() {
			return false, "wedged: a journal append failed; mutations refused"
		}
		return true, "ok"
	})
	hc.Add(srv.HealthProbe)

	var promoteFn func()
	if cl != nil {
		cl.BindHealth(hc)
		if len(peers) > 0 {
			maxLag := *replLagMax
			hc.AddFunc("replication", func() (bool, string) {
				connected, lag, following := cl.FollowerLag()
				if !following {
					return true, "not following: " + cl.Role()
				}
				detail := fmt.Sprintf("replica: connected=%v lag=%ds", connected, lag)
				if maxLag > 0 && time.Duration(lag)*time.Second > maxLag {
					return false, detail + fmt.Sprintf(" exceeds -repl-lag-max=%s", maxLag)
				}
				return true, detail
			})
		}
		onRole = func(role string, readonly bool) {
			srv.SetReadOnly(readonly)
			log.Printf("moirad: cluster role: %s (readonly=%v)", role, readonly)
		}
		promoteFn = func() {
			if err := cl.ForcePromote("operator"); err != nil {
				log.Printf("moirad: promote: %v", err)
			}
		}
		// Started before the client port opens: a standalone node is the
		// primary once Start returns, so its first request may be a write.
		cl.Start()
		if *promote {
			promoteFn()
			if srv.ReadOnly() {
				log.Fatalf("moirad: -promote failed; refusing to serve")
			}
		}
		log.Printf("moirad: durable node on %s: %s at epoch %d, peers %v (SIGUSR1 forces promotion)",
			*dataDir, cl.Role(), cl.Epoch(), peers)
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("moirad: listen: %v", err)
	}
	health.Serve(*debug, "moirad", srv.Registry(), hc)
	log.Printf("moirad: serving %d query handles on %s (unauthenticated mode)", queries.Count(), bound)
	waitForSignal(promoteFn)
	srv.Close()
}

// lifecycleKnobs carries the connection-lifecycle flags to the server.
type lifecycleKnobs struct {
	idle, write, drain time.Duration
	maxConns           int
	maxBatch           int
}

func runDemo(users int, dcmEvery time.Duration, debug string, traceSlow time.Duration, traceSample int, lifecycle lifecycleKnobs, logf func(string, ...any)) {
	cfg := workload.Scaled(users)
	sys, err := core.Boot(core.Options{
		Workload:           &cfg,
		EnableReg:          true,
		DCMIncremental:     true,
		Logf:               logf,
		TraceSlow:          traceSlow,
		TraceSampleN:       traceSample,
		ServerIdleTimeout:  lifecycle.idle,
		ServerWriteTimeout: lifecycle.write,
		ServerMaxConns:     lifecycle.maxConns,
		ServerMaxBatch:     lifecycle.maxBatch,
		ServerDrainTimeout: lifecycle.drain,
	})
	if err != nil {
		log.Fatalf("moirad: boot: %v", err)
	}
	defer sys.Close()
	health.Serve(debug, "moirad", sys.Registry, sys.Health)

	log.Printf("moirad: demo system up")
	log.Printf("  moira server: %s", sys.ServerAddr)
	log.Printf("  registration: %s", sys.RegAddr)
	log.Printf("  %d managed hosts with update agents", len(sys.Agents))

	stats, err := sys.RunDCM()
	if err != nil {
		log.Fatalf("moirad: initial dcm pass: %v", err)
	}
	log.Printf("  initial propagation: %d services generated, %d hosts updated, %d files (%d bytes)",
		stats.Generated, stats.HostsUpdated, stats.FilesGenerated, stats.BytesGenerated)

	stop := make(chan struct{})
	go dcmLoop(sys, dcmEvery, stop)
	waitForSignal(nil)
	close(stop)
}

// dcmLoop runs a DCM pass every interval until stop is closed.
func dcmLoop(sys *core.System, interval time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if stats, err := sys.RunDCM(); err != nil && err != mrerr.MrDCMDisabled {
			log.Printf("moirad: dcm: %v", err)
		} else if err == nil && (stats.Generated > 0 || stats.HostsUpdated > 0) {
			log.Printf("moirad: dcm: generated %d, updated %d hosts", stats.Generated, stats.HostsUpdated)
		}
	}
}

// waitForSignal blocks until SIGINT or SIGTERM; SIGUSR1 runs the
// promote hook (cluster mode) and keeps serving.
func waitForSignal(promote func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	for sig := range ch {
		if sig == syscall.SIGUSR1 {
			if promote != nil {
				log.Printf("moirad: SIGUSR1: promoting")
				promote()
			} else {
				log.Printf("moirad: SIGUSR1 ignored (not a cluster node)")
			}
			continue
		}
		break
	}
	log.Printf("moirad: shutting down")
}
