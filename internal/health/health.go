// Package health aggregates per-subsystem readiness probes into the
// machine-readable health surface the failover roadmap item will elect
// on. Each probe answers "can this process currently do its job?" with
// a one-line detail; the checker renders them three ways: the /healthz
// and /readyz HTTP endpoints on -debug-addr, and the in-band _health
// query handle (so a client that can reach the RPC port can ask even
// when no debug address is configured).
//
// Probe semantics: /healthz is liveness — it answers 200 whenever the
// process can run HTTP handlers at all, regardless of probe state (a
// wedged journal is a reason to fail over, not to restart the
// process). /readyz is readiness — 503 unless every registered probe
// passes, so a load balancer or failover controller stops routing to a
// wedged, lagging, or draining node.
package health

import (
	"expvar"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // the profiling handlers Serve exposes
	"sync"

	"moira/internal/stats"
)

// Status is one probe's answer.
type Status struct {
	Name   string
	OK     bool
	Detail string
}

// Probe reports one subsystem's readiness. It must not block: probes
// run on every /readyz hit and inside the _health query handle.
type Probe func() Status

// Checker is a named collection of probes.
type Checker struct {
	mu     sync.RWMutex
	probes []Probe
}

// NewChecker creates an empty checker (always ready).
func NewChecker() *Checker { return &Checker{} }

// Add registers a probe returning a full Status.
func (c *Checker) Add(p Probe) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probes = append(c.probes, p)
}

// AddFunc registers a probe from a name and a condition function.
func (c *Checker) AddFunc(name string, fn func() (ok bool, detail string)) {
	c.Add(func() Status {
		ok, detail := fn()
		return Status{Name: name, OK: ok, Detail: detail}
	})
}

// Check runs every probe and returns the statuses in registration
// order. A nil checker reports no probes (vacuously ready).
func (c *Checker) Check() []Status {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	probes := c.probes
	c.mu.RUnlock()
	out := make([]Status, 0, len(probes))
	for _, p := range probes {
		out = append(out, p())
	}
	return out
}

// Ready reports whether every probe passes, with the statuses.
func (c *Checker) Ready() (bool, []Status) {
	sts := c.Check()
	for _, st := range sts {
		if !st.OK {
			return false, sts
		}
	}
	return true, sts
}

// writeStatuses answers code with a head line, then the probe results
// one per line: "ok|fail name detail".
func writeStatuses(w http.ResponseWriter, code int, head string, sts []Status) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintln(w, head)
	for _, st := range sts {
		state := "ok"
		if !st.OK {
			state = "fail"
		}
		fmt.Fprintf(w, "%s %s %s\n", state, st.Name, st.Detail)
	}
}

// Healthz is the liveness endpoint: 200 with per-probe detail.
func (c *Checker) Healthz(w http.ResponseWriter, _ *http.Request) {
	writeStatuses(w, http.StatusOK, "ok", c.Check())
}

// Readyz is the readiness endpoint: 200 when all probes pass, 503
// otherwise, either way with per-probe detail.
func (c *Checker) Readyz(w http.ResponseWriter, _ *http.Request) {
	if ready, sts := c.Ready(); ready {
		writeStatuses(w, http.StatusOK, "ready", sts)
	} else {
		writeStatuses(w, http.StatusServiceUnavailable, "not ready", sts)
	}
}

// Serve is a daemon's debug endpoint: Prometheus text on /metrics, the
// checker's liveness and readiness on /healthz and /readyz, the registry
// as the expvar "moira" variable, and the stdlib pprof handlers, served
// on addr in the background. process names the daemon in log lines. An
// empty addr serves nothing. It returns the bound address, nil if there
// is none; it registers on the default mux, so a process calls it once.
func Serve(addr, process string, reg *stats.Registry, hc *Checker) net.Addr {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("%s: debug server: %v", process, err)
		return nil
	}
	expvar.Publish("moira", expvar.Func(func() any { return reg.Snapshot() }))
	http.Handle("/metrics", stats.PromHandler(reg))
	http.HandleFunc("/healthz", hc.Healthz)
	http.HandleFunc("/readyz", hc.Readyz)
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			log.Printf("%s: debug server: %v", process, err)
		}
	}()
	log.Printf("%s: metrics+health+pprof on http://%s/", process, ln.Addr())
	return ln.Addr()
}
