// Command updsrvd runs a standalone update agent: the daemon that lives
// on every Moira-managed server host, receives file pushes from the DCM
// over the update protocol, and executes installation scripts against
// the host's file tree. Run without a verifier it accepts
// unauthenticated pushes (for protocol experiments only).
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"moira/internal/health"
	"moira/internal/protocol"
	"moira/internal/stats"
	"moira/internal/trace"
	"moira/internal/update"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:7762", "TCP address to listen on")
		host = flag.String("host", "HOST.MIT.EDU", "canonical host name")
		root = flag.String("root", "", "host file tree root (default: a temp dir)")

		debug = flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz, expvar, and pprof on this HTTP address")

		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "per-frame read deadline; a stalled DCM connection is dropped after this (0 = never)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-reply write deadline (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", protocol.DefaultDrainTimeout, "how long shutdown waits for an in-flight update before force-closing")
		busyWait     = flag.Duration("busy-wait", 5*time.Second, "how long a second concurrent update waits for the host lock before UPD_BUSY")
	)
	flag.Parse()

	dir := *root
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "updsrvd-*")
		if err != nil {
			log.Fatalf("updsrvd: %v", err)
		}
		log.Printf("updsrvd: host tree at %s", dir)
	}

	reg := stats.NewRegistry()
	a := update.NewAgent(*host, dir, nil)
	a.BindStats(reg)
	a.SetTracer(trace.New(trace.Options{Process: "updsrvd", Stats: reg}))
	a.ReadTimeout = *readTimeout
	a.WriteTimeout = *writeTimeout
	a.DrainTimeout = *drainTimeout
	a.BusyWait = *busyWait
	// A standalone agent still supports the generic instructions
	// (extract/install/revert/signal); exec commands log and succeed so
	// scripts written for the simulated services can be replayed.
	for _, cmd := range []string{"restart_hesiod", "install_nfs", "stage_aliases", "reload_zephyr_acls"} {
		name := cmd
		a.RegisterCommand(name, func(ag *update.Agent, _ *update.Install, args []string) error {
			log.Printf("updsrvd: exec %s %v", name, args)
			return nil
		})
	}
	bound, err := a.Listen(*addr)
	if err != nil {
		log.Fatalf("updsrvd: %v", err)
	}
	log.Printf("updsrvd: %s serving update protocol on %s", *host, bound)

	hc := health.NewChecker()
	hc.Add(a.HealthProbe)
	health.Serve(*debug, "updsrvd", reg, hc)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
	a.Close()
}
