// Package core assembles the complete Moira system — the database, the
// Kerberos simulation, the Moira server, the registration server, the
// DCM, and the managed hosts (hesiod, NFS servers, the mailhub, zephyr
// servers) with their update agents — into one bootable unit. The
// examples, the command-line tools' --demo modes, and the benchmark
// harness all build on it; it is Figure 1 of the paper as a value.
package core

import (
	"fmt"
	"os"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/dcm"
	"moira/internal/health"
	"moira/internal/hesiod"
	"moira/internal/kerberos"
	"moira/internal/mailhub"
	"moira/internal/nfshost"
	"moira/internal/pop"
	"moira/internal/queries"
	"moira/internal/reg"
	"moira/internal/server"
	"moira/internal/stats"
	"moira/internal/trace"
	"moira/internal/update"
	"moira/internal/workload"
	"moira/internal/zephyr"
)

// Well-known service principals.
const (
	MoiraServicePrincipal  = "moira.server"
	UpdateServicePrincipal = "moira_update"
	DCMPrincipal           = "dcm"
)

// Options configures Boot.
type Options struct {
	// Clock drives every component; nil means the system clock. Tests
	// and examples use a clock.Fake to play out multi-hour DCM
	// schedules instantly.
	Clock clock.Clock

	// Realm is the Kerberos realm name.
	Realm string

	// Workload, when non-nil, populates the database and creates agents
	// and service simulations for every managed host.
	Workload *workload.Config

	// EnableReg starts the registration server.
	EnableReg bool

	// HostRoot is where the managed hosts' private file trees live;
	// empty means a fresh temporary directory (removed on Close).
	HostRoot string

	// Logf receives log lines from all components; nil discards.
	Logf func(format string, args ...any)

	// DCMParallelServices, DCMParallelHosts, and DCMMaxRetries tune the
	// DCM's worker pools and in-pass soft-failure retries; zero values
	// take the dcm package defaults, 1/1 forces a fully sequential
	// pass, and a negative retry count disables in-pass retries.
	DCMParallelServices int
	DCMParallelHosts    int
	DCMMaxRetries       int

	// DCMPushTimeout bounds each host update; zero keeps the 30s
	// default.
	DCMPushTimeout time.Duration

	// DCMIncremental makes Boot attach a durable journal to the
	// database and hand it to the DCM, whose Loop then wakes on every
	// append. The planner patches per-service keyed models from
	// snapshot diffs either way.
	DCMIncremental bool

	// Connection-lifecycle knobs for the Moira server (see
	// server.Config): per-request read and write deadlines, the
	// accept-time connection cap, and the Close drain bound. Zero values
	// keep the server defaults (no deadlines, unlimited connections,
	// protocol.DefaultDrainTimeout).
	ServerIdleTimeout  time.Duration
	ServerWriteTimeout time.Duration
	ServerMaxConns     int
	ServerMaxBatch     int
	ServerDrainTimeout time.Duration

	// TraceSlow is the slow-trace threshold: traces whose root span
	// takes at least this long are always kept and counted in
	// trace.slowops. Zero keeps trace.DefaultSlow; negative keeps every
	// trace (tests).
	TraceSlow time.Duration

	// TraceSampleN keeps 1 in N ordinary (fast, successful) traces;
	// zero keeps trace.DefaultSampleN, 1 keeps everything.
	TraceSampleN int
}

// System is a running Moira installation.
type System struct {
	DB  *db.DB
	KDC *kerberos.KDC
	Clk clock.Clock

	// Registry is the system-wide metrics registry: the server, the
	// DCM, the database, and every update agent count into it, and the
	// `_stats` query handle serves it.
	Registry *stats.Registry

	// Tracer collects spans from every component; the `_spans` query
	// handle serves it.
	Tracer *trace.Tracer

	// Health aggregates readiness probes; `_health` and the /readyz
	// endpoint serve it.
	Health *health.Checker

	Server     *server.Server
	ServerAddr string

	Reg     *reg.Server
	RegAddr string

	DCM    *dcm.DCM
	Broker *zephyr.Broker

	// Journal is the durable journal attached for DCMIncremental (nil
	// otherwise). Its appends wake the DCM's Loop; the planner diffs
	// snapshots and never reads it.
	Journal *db.JournalWriter

	Hesiod   *hesiod.Server
	NFSHosts map[string]*nfshost.Host
	Mailhub  *mailhub.Hub
	POs      *pop.Registry

	Agents    map[string]*update.Agent
	HostAddrs map[string]string
	Hosts     *workload.Hosts

	logf       func(string, ...any)
	passwords  []pwEntry
	tmpRoot    string
	ownTmpRoot bool
	journalDir string
}

// Boot brings up a complete system.
func Boot(opts Options) (*System, error) {
	clk := opts.Clock
	if clk == nil {
		clk = clock.System
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	realm := opts.Realm
	if realm == "" {
		realm = "ATHENA.MIT.EDU"
	}

	s := &System{
		Clk:       clk,
		Registry:  stats.NewRegistry(),
		DB:        queries.NewBootstrappedDB(clk),
		KDC:       kerberos.NewKDC(realm, clk),
		Broker:    zephyr.NewBroker(clk),
		Hesiod:    hesiod.NewServer(),
		Mailhub:   mailhub.NewHub(),
		POs:       pop.NewRegistry(),
		NFSHosts:  make(map[string]*nfshost.Host),
		Agents:    make(map[string]*update.Agent),
		HostAddrs: make(map[string]string),
		logf:      logf,
		Health:    health.NewChecker(),
	}
	s.Tracer = trace.New(trace.Options{
		Process: "moirad",
		Slow:    opts.TraceSlow,
		SampleN: opts.TraceSampleN,
		Stats:   s.Registry,
	})
	s.Health.AddFunc("journal", func() (bool, string) {
		if s.DB.JournalWedged() {
			return false, "wedged: a journal append failed; mutations refused"
		}
		return true, "ok"
	})

	for _, p := range []struct{ name, pw string }{
		{MoiraServicePrincipal, randomPassword()},
		{UpdateServicePrincipal, randomPassword()},
		{DCMPrincipal, randomPassword()},
	} {
		if err := s.KDC.AddPrincipal(p.name, p.pw); err != nil {
			return nil, err
		}
		s.passwords = append(s.passwords, p)
	}

	if opts.Workload != nil {
		_, hosts, err := workload.Populate(s.DB, *opts.Workload)
		if err != nil {
			return nil, err
		}
		s.Hosts = hosts
		if err := s.setupHosts(opts.HostRoot); err != nil {
			s.Close()
			return nil, err
		}
	}

	// The durable journal, attached after the workload populate so the
	// bulk load does not flow through segment files. The DCM's planner
	// diffs snapshots and never reads it; it wakes the DCM's Loop.
	if opts.DCMIncremental {
		jdir, err := os.MkdirTemp("", "moira-journal-*")
		if err != nil {
			s.Close()
			return nil, err
		}
		s.journalDir = jdir
		jw, err := db.OpenJournalWriter(jdir, db.JournalOptions{})
		if err != nil {
			s.Close()
			return nil, err
		}
		jw.BindStats(s.Registry)
		s.DB.SetJournal(jw)
		s.Journal = jw
	}

	// The Moira server.
	srvKey, err := s.KDC.Srvtab(MoiraServicePrincipal)
	if err != nil {
		return nil, err
	}
	s.Server = server.New(server.Config{
		DB:           s.DB,
		Verifier:     kerberos.NewVerifier(MoiraServicePrincipal, srvKey, clk),
		Clock:        clk,
		Logf:         opts.Logf, // nil when not logging: no per-request line
		Stats:        s.Registry,
		Tracer:       s.Tracer,
		Health:       s.Health,
		IdleTimeout:  opts.ServerIdleTimeout,
		WriteTimeout: opts.ServerWriteTimeout,
		MaxConns:     opts.ServerMaxConns,
		MaxBatch:     opts.ServerMaxBatch,
		DrainTimeout: opts.ServerDrainTimeout,
		TriggerDCM: func(trace string) {
			if s.DCM != nil {
				go func() {
					if _, err := s.DCM.RunOnceTraced(trace); err != nil {
						s.logf("core: triggered dcm: %v", err)
					}
				}()
			}
		},
	})
	s.Health.Add(s.Server.HealthProbe)
	addr, err := s.Server.Listen("127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	s.ServerAddr = addr.String()

	// The DCM, authenticated to the update agents with a fresh ticket
	// per pass (a cron-driven DCM never holds tickets across runs).
	s.DCM = dcm.New(dcm.Config{
		DB:    s.DB,
		Clock: clk,
		Resolve: func(machine string) (string, bool) {
			a, ok := s.HostAddrs[machine]
			return a, ok
		},
		Creds: func() *kerberos.Credentials {
			creds, err := s.KDC.GetTicket(DCMPrincipal, s.passwordOf(DCMPrincipal), UpdateServicePrincipal)
			if err != nil {
				s.logf("core: dcm ticket: %v", err)
				return nil
			}
			return creds
		},
		Notify: func(class, instance, msg string) {
			s.Broker.Send(class, instance, DCMPrincipal, msg)
		},
		Logf:                logf,
		Stats:               s.Registry,
		Tracer:              s.Tracer,
		PushTimeout:         opts.DCMPushTimeout,
		MaxParallelServices: opts.DCMParallelServices,
		MaxParallelHosts:    opts.DCMParallelHosts,
		MaxRetries:          opts.DCMMaxRetries,
		Journal:             s.Journal,
	})

	// The registration server.
	if opts.EnableReg {
		s.Reg = reg.NewServer(s.DB, s.KDC, clk)
		s.Reg.Logf = logf
		raddr, err := s.Reg.Listen("127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, err
		}
		s.RegAddr = raddr.String()
	}
	return s, nil
}

// passwords holds the generated service passwords (needed to obtain
// tickets for the DCM and clients).
type pwEntry = struct{ name, pw string }

func (s *System) passwordOf(name string) string {
	for _, p := range s.passwords {
		if p.name == name {
			return p.pw
		}
	}
	return ""
}

// setupHosts creates an update agent plus the right service simulation
// for every managed host in the workload.
func (s *System) setupHosts(root string) error {
	if root == "" {
		tmp, err := os.MkdirTemp("", "moira-hosts-*")
		if err != nil {
			return err
		}
		s.tmpRoot = tmp
		s.ownTmpRoot = true
	} else {
		s.tmpRoot = root
	}
	updKey, err := s.KDC.Srvtab(UpdateServicePrincipal)
	if err != nil {
		return err
	}
	newAgent := func(name string) (*update.Agent, error) {
		dir := fmt.Sprintf("%s/%s", s.tmpRoot, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		a := update.NewAgent(name, dir, kerberos.NewVerifier(UpdateServicePrincipal, updKey, s.Clk))
		a.BindStats(s.Registry)
		a.SetTracer(s.Tracer)
		addr, err := a.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.Agents[name] = a
		s.HostAddrs[name] = addr.String()
		return a, nil
	}
	for _, h := range s.Hosts.Hesiod {
		a, err := newAgent(h)
		if err != nil {
			return err
		}
		hesiod.AttachToAgent(a, s.Hesiod)
	}
	for _, h := range s.Hosts.NFS {
		a, err := newAgent(h)
		if err != nil {
			return err
		}
		host := nfshost.NewHost(h)
		s.NFSHosts[h] = host
		nfshost.AttachToAgent(a, host)
	}
	if s.Hosts.Mailhub != "" {
		a, err := newAgent(s.Hosts.Mailhub)
		if err != nil {
			return err
		}
		mailhub.AttachToAgent(a, s.Mailhub)
	}
	// Post office servers hold the actual mailboxes; the hub's final
	// delivery hop routes login@PO.LOCAL addresses to them.
	for _, h := range s.Hosts.POs {
		s.POs.Add(pop.NewServer(h, s.Clk))
	}
	s.Mailhub.SetRoute(func(addr, from, subject, body string) (bool, error) {
		return s.POs.Route(addr, pop.Message{From: from, Subject: subject, Body: body})
	})
	for _, h := range s.Hosts.Zephyr {
		a, err := newAgent(h)
		if err != nil {
			return err
		}
		zephyr.AttachToAgent(a, s.Broker)
	}
	return nil
}

// Close shuts everything down and removes temporary host trees.
func (s *System) Close() {
	if s.Reg != nil {
		s.Reg.Close()
	}
	if s.Server != nil {
		s.Server.Close()
	}
	if s.Hesiod != nil {
		s.Hesiod.Close()
	}
	for _, a := range s.Agents {
		a.Close()
	}
	if s.Journal != nil {
		s.Journal.Close()
	}
	if s.journalDir != "" {
		os.RemoveAll(s.journalDir)
	}
	if s.ownTmpRoot && s.tmpRoot != "" {
		os.RemoveAll(s.tmpRoot)
	}
}

// AddAccount creates an active Moira account and the matching Kerberos
// principal — the shortcut the examples use in place of the full
// registration flow.
func (s *System) AddAccount(login, password, first, last string) error {
	cx := s.DirectContext("core")
	err := queries.Execute(cx, "add_user",
		[]string{login, queries.UniqueUID, "/bin/csh", last, first, "", "1", "", "STAFF"},
		func([]string) error { return nil })
	if err != nil {
		return err
	}
	return s.KDC.AddPrincipal(login, password)
}

// Grant puts a login on the dbadmin list, giving it every capability.
func (s *System) Grant(login string) error {
	cx := s.DirectContext("core")
	return queries.Execute(cx, "add_member_to_list",
		[]string{queries.AdminList, "USER", login},
		func([]string) error { return nil })
}

// DirectContext returns a privileged in-process query context (the
// direct "glue" library's identity).
func (s *System) DirectContext(app string) *queries.Context {
	return &queries.Context{
		DB: s.DB, Privileged: true, App: app,
		Spans:  s.Tracer.Traces,
		Health: s.Health.Check,
	}
}

// Direct returns the direct glue client.
func (s *System) Direct(app string) *client.Direct {
	return client.NewDirect(s.DirectContext(app))
}

// Client dials the Moira server without authenticating.
func (s *System) Client() (*client.Client, error) {
	c, err := client.DialTimeout(s.ServerAddr, 10*time.Second, s.Clk)
	if err != nil {
		return nil, err
	}
	c.SetTracer(s.Tracer)
	return c, nil
}

// ClientAs dials and authenticates as the given account.
func (s *System) ClientAs(login, password, app string) (*client.Client, error) {
	c, err := s.Client()
	if err != nil {
		return nil, err
	}
	creds, err := s.KDC.GetTicket(login, password, MoiraServicePrincipal)
	if err != nil {
		c.Disconnect()
		return nil, err
	}
	if err := c.Auth(creds, app); err != nil {
		c.Disconnect()
		return nil, err
	}
	return c, nil
}

// RunDCM performs one DCM pass.
func (s *System) RunDCM() (*dcm.CycleStats, error) {
	return s.DCM.RunOnce()
}

// RunDCMTraced performs one DCM pass tagged with a trace ID.
func (s *System) RunDCMTraced(trace string) (*dcm.CycleStats, error) {
	return s.DCM.RunOnceTraced(trace)
}

func randomPassword() string {
	k := kerberos.RandomKey()
	const hex = "0123456789abcdef"
	out := make([]byte, 16)
	for i, b := range k {
		out[2*i] = hex[b>>4]
		out[2*i+1] = hex[b&0xf]
	}
	return string(out)
}
