// Command dcm runs Data Control Manager passes over an assembled demo
// system, playing a simulated clock forward so the 6/12/24-hour service
// schedules of section 5.1.G unfold in seconds. It prints per-pass
// statistics: which services generated files, which reported no change,
// and which hosts were updated.
//
//	dcm --users 2000 --passes 8 --advance 3h
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"moira/internal/clock"
	"moira/internal/core"
	"moira/internal/db"
	"moira/internal/dcm"
	"moira/internal/gen"
	"moira/internal/health"
	"moira/internal/workload"
)

func main() {
	var (
		users    = flag.Int("users", 1000, "synthetic population size")
		passes   = flag.Int("passes", 6, "number of DCM passes to run")
		advance  = flag.Duration("advance", 3*time.Hour, "simulated time between passes")
		mutate   = flag.Bool("mutate", true, "apply a database change before every other pass")
		check    = flag.Bool("check", false, "dcm_maint mode: verify every enabled service has a generator and script, then exit")
		parSvc   = flag.Int("parallel-services", 0, "concurrent service cycles (0 = default, 1 = sequential)")
		parHosts = flag.Int("parallel-hosts", 0, "concurrent host pushes per service (0 = default, 1 = sequential)")
		retries  = flag.Int("retries", 0, "in-pass soft-failure retries per host (0 = default, negative = none)")
		pushTO   = flag.Duration("push-timeout", 0, "per-host update deadline; a slower host counts as a soft failure (0 = default 30s)")
		latency  = flag.Duration("host-latency", 0, "inject this much real service delay into every update agent (demo of the parallel push)")
		verbose  = flag.Bool("v", false, "log every DCM action")
		debug    = flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz, expvar, and pprof on this HTTP address")
	)
	flag.Parse()

	clk := clock.NewFake(time.Unix(600000000, 0))
	cfg := workload.Scaled(*users)
	opts := core.Options{
		Clock:               clk,
		Workload:            &cfg,
		DCMParallelServices: *parSvc,
		DCMParallelHosts:    *parHosts,
		DCMMaxRetries:       *retries,
		DCMPushTimeout:      *pushTO,
		DCMIncremental:      true,
	}
	if *verbose {
		opts.Logf = log.Printf
	}
	sys, err := core.Boot(opts)
	if err != nil {
		log.Fatalf("dcm: boot: %v", err)
	}
	defer sys.Close()

	health.Serve(*debug, "dcm", sys.Registry, sys.Health)

	if *check {
		runCheck(sys)
		return
	}
	if *latency > 0 {
		for _, a := range sys.Agents {
			a.SetLatency(*latency)
		}
	}

	fmt.Printf("dcm: %d users, %d managed hosts, advancing %v per pass\n\n",
		*users, len(sys.Agents), *advance)
	fmt.Printf("%4s  %-9s %9s %9s %6s %6s %7s %8s %10s %9s\n",
		"pass", "sim-time", "generated", "no-change", "hosts", "fails", "retries", "files", "bytes", "wall")

	mutator := newMutator(sys)
	for i := 0; i < *passes; i++ {
		if *mutate && i%2 == 1 {
			mutator.mutate(i)
		}
		start := time.Now()
		stats, err := sys.RunDCM()
		if err != nil {
			log.Fatalf("dcm: pass %d: %v", i+1, err)
		}
		wall := time.Since(start)
		fmt.Printf("%4d  %-9s %9d %9d %6d %6d %7d %8d %10d %9s\n",
			i+1, clk.Now().UTC().Format("15:04:05"),
			stats.Generated, stats.NoChange, stats.HostsUpdated,
			stats.HostSoftFails+stats.HostHardFails, stats.Retries,
			stats.FilesPropagated, stats.BytesPropagated,
			wall.Round(time.Millisecond))
		fmt.Printf("      delta: full=%d delta=%d noop=%d fallback=%d rows=%d keys=%d pushed=%dB skipped=%dB\n",
			stats.FullBuilds, stats.DeltaBuilds, stats.NoopPasses, stats.Fallbacks,
			stats.DeltaRecords, stats.DeltaKeys, stats.BytesPushed, stats.BytesSkipped)
		if stats.HostsConsidered > 0 {
			fmt.Printf("      push latency: %s\n", stats.PushLatency.String())
		}
		clk.Advance(*advance)
	}
}

// runCheck is the dcm_maint role from section 5.8: the original checked
// each generator module in; here we audit that every enabled service
// record is backed by a registered generator and install-script builder,
// and that its hosts resolve.
func runCheck(sys *core.System) {
	problems := 0
	sys.DB.LockShared()
	defer sys.DB.UnlockShared()
	fmt.Printf("%-16s %-9s %-10s %-10s %-7s %s\n",
		"service", "interval", "generator", "script", "hosts", "status")
	db.Servers.Each(sys.DB, func(s *db.Server) bool {
		_, hasGen := gen.Incrementals[s.Name]
		_, hasScript := dcm.DefaultScripts[s.Name]
		hosts, unresolved := 0, 0
		db.ServerHosts.Under(sys.DB, s.Name, func(sh *db.ServerHost) bool {
			hosts++
			if m, ok := db.Machines.ByID(sys.DB, sh.MachID); !ok {
				unresolved++
			} else if _, ok := sys.HostAddrs[m.Name]; !ok {
				unresolved++
			}
			return true
		})
		status := "ok"
		switch {
		case !s.Enable || s.UpdateInt == 0:
			status = "disabled (sloc only)"
		case !hasGen:
			status = "MISSING GENERATOR"
			problems++
		case !hasScript:
			status = "MISSING SCRIPT"
			problems++
		case unresolved > 0:
			status = fmt.Sprintf("%d UNRESOLVED HOSTS", unresolved)
			problems++
		}
		fmt.Printf("%-16s %6dmin %-10v %-10v %-7d %s\n",
			s.Name, s.UpdateInt, hasGen, hasScript, hosts, status)
		return true
	})
	if problems > 0 {
		log.Fatalf("dcm: check found %d problems", problems)
	}
	fmt.Println("dcm: check passed")
}

type mutator struct {
	sys *core.System
	n   int
}

func newMutator(sys *core.System) *mutator { return &mutator{sys: sys} }

// mutate applies one administrative change so the next pass has work.
func (m *mutator) mutate(pass int) {
	m.n++
	login := fmt.Sprintf("late%04d", m.n)
	dc := m.sys.Direct("dcm-tool")
	err := dc.Query("add_user",
		[]string{login, "-1", "/bin/csh", "Comer", "Late", "", "1", "", "STAFF"}, nil)
	if err != nil {
		log.Printf("dcm: mutate: %v", err)
		return
	}
	fmt.Printf("      -- added user %s --\n", login)
	_ = pass
}
