// Package dcm implements the Data Control Manager (section 5.7): the
// program responsible for distributing information to servers. Invoked
// regularly (cron in the original; a loop or trigger here), it scans the
// services table, regenerates server-specific files for services whose
// update interval has elapsed — skipping cheaply when nothing in the
// database changed — and pushes the files to each server host over the
// update protocol, tracking per-service and per-host success, soft
// failures (retried later), and hard failures (zephyrgram + mail, and
// for replicated services a stop on further host updates).
package dcm

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/extract"
	"moira/internal/gen"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/stats"
	"moira/internal/trace"
	"moira/internal/update"
)

// ScriptBuilder produces the installation instruction sequence for one
// host of a service, given the names of the bundle's members in tar
// order (update.Bundle.Members). destDir is the service record's script
// field, which this implementation uses as the installation directory
// on the host.
type ScriptBuilder func(s *db.Server, host string, members []string) []string

// Config configures a DCM.
type Config struct {
	DB    *db.DB
	Clock clock.Clock

	// Generators maps service name to its keyed generator; defaults to
	// gen.Incrementals. Services without one are never scanned.
	Generators map[string]*gen.Incremental

	// Journal, when set, wakes Loop on every append, so a burst of
	// mutations propagates at the next due check instead of waiting out
	// the full tick. Passes read snapshots, never the journal.
	Journal *db.JournalWriter

	// Scripts maps service name to its install-script builder; defaults
	// to DefaultScripts.
	Scripts map[string]ScriptBuilder

	// Resolve returns the update-agent address for a canonical machine
	// name. Hosts that do not resolve get a soft failure.
	Resolve func(machine string) (string, bool)

	// Creds supplies credentials authenticating the DCM to the update
	// agents; it is called once per pass, since a cron-driven DCM gets a
	// fresh ticket each invocation rather than holding one across runs.
	// nil works only against agents without verifiers (tests).
	Creds func() *kerberos.Credentials

	// Notify sends a zephyrgram; hard errors go to class MOIRA instance
	// DCM. nil discards.
	Notify func(class, instance, message string)

	// Mail sends failure mail to the maintainers. nil discards.
	Mail func(subject, body string)

	// Logf logs progress. nil discards.
	Logf func(format string, args ...any)

	// DisablePath is the equivalent of /etc/nodcm: if the file exists,
	// the DCM exits quietly.
	DisablePath string

	// PushTimeout bounds each host update attempt.
	PushTimeout time.Duration

	// MaxParallelServices bounds how many service cycles run
	// concurrently in one pass; 0 means DefaultMaxParallelServices,
	// 1 runs the pass fully sequentially.
	MaxParallelServices int

	// MaxParallelHosts bounds concurrent host pushes within one
	// service. Replicated services ignore it: the paper's semantics —
	// hosts updated in order, a hard failure stops the remaining
	// hosts — require a sequential scan. 0 means
	// DefaultMaxParallelHosts.
	MaxParallelHosts int

	// MaxRetries is how many times a soft-failing host push is retried
	// within the same pass (with backoff) before being recorded as a
	// soft failure for the next pass. 0 means DefaultMaxRetries;
	// negative disables in-pass retries.
	MaxRetries int

	// Backoff is the retry delay schedule; the zero value means
	// DefaultBackoff.
	Backoff BackoffPolicy

	// Stats, when set, receives cumulative dcm.* series (pass counts,
	// host outcomes, bytes, push latency) folded in at the end of every
	// pass; per-pass numbers stay in CycleStats.
	Stats *stats.Registry

	// Tracer, when set, records a span per pass (dcm.pass), per service
	// cycle (dcm.cycle), and per host push (dcm.push), all linked under
	// the triggering request's trace ID; the push span rides the update
	// protocol to the agent, so one trace reaches the installed host.
	Tracer *trace.Tracer
}

// Worker-pool and retry defaults, used when the Config fields are zero.
const (
	DefaultMaxParallelServices = 4
	DefaultMaxParallelHosts    = 8
	DefaultMaxRetries          = 2
)

// DCM is a data control manager instance.
type DCM struct {
	cfg     Config
	clk     clock.Clock
	rnd     *lockedRand
	planner *extract.Planner

	// cyclesMu guards cycles.
	cyclesMu sync.Mutex
	cycles   map[string]*cycleState

	// heldMu guards held: for each (service, host), the sum of the
	// bundle the DCM last installed there. A push ships a bundle's edits
	// only to a host holding its base.
	heldMu sync.Mutex
	held   map[hostKey]update.Sum
}

// hostKey names one host of one service.
type hostKey struct{ service, host string }

// cycleState is what one service's cycles share: the planner's model
// (patched in place) and the bundle buffers rendered from it. mu is held
// for the length of a cycle, so overlapping passes — a trigger landing
// during a scheduled pass — take turns instead of patching and rendering
// the same model at once.
type cycleState struct {
	mu      sync.Mutex
	scratch *gen.Scratch
}

// New creates a DCM.
func New(cfg Config) *DCM {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Generators == nil {
		cfg.Generators = gen.Incrementals
	}
	if cfg.Scripts == nil {
		cfg.Scripts = DefaultScripts
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.PushTimeout == 0 {
		cfg.PushTimeout = 30 * time.Second
	}
	if cfg.Backoff.zero() {
		cfg.Backoff = DefaultBackoff
	}
	return &DCM{
		cfg: cfg, clk: cfg.Clock, rnd: newLockedRand(),
		planner: extract.NewPlanner(cfg.DB),
		cycles:  map[string]*cycleState{},
		held:    map[hostKey]update.Sum{},
	}
}

// Planner exposes the delta planner for monitoring.
func (m *DCM) Planner() *extract.Planner { return m.planner }

// cycleFor returns the service's shared cycle state.
func (m *DCM) cycleFor(name string) *cycleState {
	m.cyclesMu.Lock()
	defer m.cyclesMu.Unlock()
	c, ok := m.cycles[name]
	if !ok {
		c = &cycleState{scratch: gen.NewScratch()}
		m.cycles[name] = c
	}
	return c
}

func (m *DCM) maxParallelServices() int {
	if m.cfg.MaxParallelServices <= 0 {
		return DefaultMaxParallelServices
	}
	return m.cfg.MaxParallelServices
}

func (m *DCM) maxParallelHosts() int {
	if m.cfg.MaxParallelHosts <= 0 {
		return DefaultMaxParallelHosts
	}
	return m.cfg.MaxParallelHosts
}

func (m *DCM) maxRetries() int {
	switch {
	case m.cfg.MaxRetries < 0:
		return 0
	case m.cfg.MaxRetries == 0:
		return DefaultMaxRetries
	default:
		return m.cfg.MaxRetries
	}
}

// DefaultScripts builds installation scripts for the standard services.
// The service record's script field names the installation directory on
// the target host.
var DefaultScripts = map[string]ScriptBuilder{
	"HESIOD": func(s *db.Server, host string, members []string) []string {
		return gen.HesiodInstallScript(s.TargetFile, s.Script)
	},
	"NFS": func(s *db.Server, host string, members []string) []string {
		return gen.NFSInstallScript(s.TargetFile, s.Script, partitionsInBundle(members))
	},
	"SMTP": func(s *db.Server, host string, members []string) []string {
		return gen.MailInstallScript(s.TargetFile, s.Script)
	},
	"ZEPHYR": func(s *db.Server, host string, members []string) []string {
		var acls []string
		for _, n := range members {
			if strings.HasSuffix(n, ".acl") {
				acls = append(acls, n)
			}
		}
		return gen.ZephyrInstallScript(s.TargetFile, s.Script, acls)
	},
}

// partitionsInBundle recovers the partition list from an NFS bundle's
// member names (<base>.quotas).
func partitionsInBundle(members []string) []string {
	var parts []string
	for _, n := range members {
		if base, ok := strings.CutSuffix(n, ".quotas"); ok {
			parts = append(parts, "/"+strings.ReplaceAll(base, "_", "/"))
		}
	}
	return parts
}

// serviceSnapshot is a copy of the service row from the pass's
// snapshot.
type serviceSnapshot struct {
	db.Server
}

// RunOnce performs one complete DCM pass: the service scan and the host
// scan of section 5.7.1. Independent service cycles run concurrently on
// a bounded worker pool (the in-process analogue of the original's
// fork-per-server), so one slow or unreachable service cannot stall the
// whole distribution pass.
func (m *DCM) RunOnce() (*CycleStats, error) {
	return m.RunOnceTraced("")
}

// RunOnceTraced is RunOnce carrying the trace ID of the request that
// triggered the pass; it is threaded into the pass's log lines so a
// client-issued trace can be followed from query to host install.
func (m *DCM) RunOnceTraced(trace string) (*CycleStats, error) {
	// On startup the DCM first checks for the disable file.
	if m.cfg.DisablePath != "" {
		if _, err := os.Stat(m.cfg.DisablePath); err == nil {
			return nil, mrerr.MrDCMDisabled
		}
	}
	d := m.cfg.DB
	started := time.Now()

	// Then it retrieves dcm_enable from the values relation.
	d.LockShared()
	enable, err := d.GetValue("dcm_enable")
	d.UnlockShared()
	if err != nil || enable == 0 {
		m.cfg.Logf("dcm: dcm_enable is off; exiting")
		return nil, mrerr.MrDCMDisabled
	}

	// The pass span carries the triggering request's trace ID when there
	// is one; a cron-driven pass mints its own trace.
	sp := m.cfg.Tracer.Start(trace, "", "dcm.pass")
	defer sp.End()

	stats := &CycleStats{Trace: trace}

	// One snapshot for the whole pass: every service generates from it
	// with no lock held, and the pass's own claim and flag writes do not
	// make another.
	view := d.Reader()
	var services []serviceSnapshot
	db.Servers.Each(view, func(s *db.Server) bool {
		services = append(services, serviceSnapshot{*s})
		return true
	})

	sem := make(chan struct{}, m.maxParallelServices())
	var wg sync.WaitGroup
	for _, snap := range services {
		stats.add(func(s *CycleStats) { s.ServicesScanned++ })
		// Initial filter: enabled, no hard errors, non-zero interval,
		// and a generator module exists.
		generator := m.cfg.Generators[snap.Name]
		if !snap.Enable || snap.HardError != 0 || snap.UpdateInt == 0 || generator == nil {
			continue
		}
		if snap.InProgress {
			m.cfg.Logf("dcm: %s: update already in progress, skipping", snap.Name)
			continue
		}
		stats.add(func(s *CycleStats) { s.ServicesDue++ })
		snap := snap
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			m.serviceCycle(&snap, generator, view, stats, sp)
		}()
	}
	wg.Wait()
	stats.publish(m.cfg.Stats, time.Since(started))
	m.publishDeltaGauges(services)
	m.cfg.Logf("dcm: pass complete:%s %s", traceSuffix(trace), stats.Summary())
	return stats, nil
}

// publishDeltaGauges exports each service's last committed pass — the
// rows its diff found changed and its mode — for moirastat.
func (m *DCM) publishDeltaGauges(services []serviceSnapshot) {
	reg := m.cfg.Stats
	if reg == nil {
		return
	}
	for _, snap := range services {
		if m.cfg.Generators[snap.Name] == nil {
			continue
		}
		st := m.planner.Status(snap.Name)
		reg.Gauge("dcm.delta.rows." + snap.Name).Set(int64(st.Rows))
		reg.Gauge("dcm.delta.lastmode." + snap.Name).Set(int64(st.Mode))
	}
}

// traceSuffix formats a trace ID for appending to a log line; empty
// traces render as nothing.
func traceSuffix(trace string) string {
	if trace == "" {
		return ""
	}
	return " trace=" + trace
}

// serviceCycle regenerates one service's files from view if due, then
// scans its hosts.
func (m *DCM) serviceCycle(snap *serviceSnapshot, generator *gen.Incremental, view *db.DB, stats *CycleStats, passSpan *trace.Span) {
	now := m.clk.Now().Unix()
	name := snap.Name

	csp := passSpan.Child("dcm.cycle")
	csp.SetDetail(name)
	defer csp.End()

	// The previous cycle's bundles are fully pushed before the next
	// render reuses their buffers.
	cycle := m.cycleFor(name)
	cycle.mu.Lock()
	defer cycle.mu.Unlock()

	var result *gen.Result

	genDue := now >= snap.DFCheck+int64(snap.UpdateInt)*60
	if genDue {
		// Claim the service atomically: if a concurrent pass (or
		// another DCM instance) set InProgress since our snapshot, it
		// owns this cycle and we back off.
		if !m.claimService(name) {
			m.cfg.Logf("dcm: %s: claimed by a concurrent pass, skipping", name)
			return
		}
		res, plan, err := m.generate(name, generator, view, cycle.scratch, csp)
		switch {
		case err == nil && res != nil:
			result = res
			stats.add(func(s *CycleStats) {
				s.Generated++
				s.FilesGenerated += res.NumFiles
				s.BytesGenerated += res.TotalBytes
				s.BytesRendered += res.Rendered
				if plan.Mode == extract.ModeDelta {
					s.DeltaBuilds++
				} else {
					s.FullBuilds++
					if plan.Reason != extract.FullColdStart { // a first pass is expected, not a fallback
						s.Fallbacks++
					}
				}
				s.DeltaRecords += plan.Records
				s.DeltaKeys += plan.Keys
			})
			m.finishGeneration(name, now, plan)
			snap.DFGen, snap.DFCheck = now, now
			if plan.Mode == extract.ModeDelta {
				m.cfg.Logf("dcm: %s: delta pass: %d changed rows -> %d keys, %d files (%d bytes)",
					name, plan.Records, plan.Keys, res.NumFiles, res.TotalBytes)
			} else {
				m.cfg.Logf("dcm: %s: full build (%s): %d files (%d bytes)",
					name, plan.Reason, res.NumFiles, res.TotalBytes)
			}
		case err == nil:
			// The planner proved nothing the extract reads has changed:
			// a no-op pass, zero generator work.
			stats.add(func(s *CycleStats) {
				s.NoChange++
				s.NoopPasses++
				s.DeltaRecords += plan.Records
			})
			m.setServiceFlags(name, func(s *db.Server) {
				s.DFCheck = now
				s.InProgress = false
				m.planner.Commit(name, plan)
			})
			snap.DFCheck = now
			m.cfg.Logf("dcm: %s: no change", name)
		default:
			// Hard generation error: record and zephyr-notify.
			stats.add(func(s *CycleStats) { s.GenHardErrors++ })
			code := int(mrerr.CodeOf(err))
			msg := err.Error()
			m.setServiceFlags(name, func(s *db.Server) {
				s.HardError = code
				s.ErrMsg = msg
				s.InProgress = false
			})
			m.notify(fmt.Sprintf("service %s: file generation failed: %s", name, msg))
			return
		}
	}

	// Host scan: runs for every service that passed the initial check,
	// regardless of whether it was time to build data files.
	hosts := m.hostsNeedingUpdate(snap)
	if len(hosts) == 0 {
		return
	}
	// Updates are needed but this pass produced no files (the service
	// was not due, or nothing changed): render the planner's model.
	if result == nil {
		res, err := m.regenForHosts(name, generator, view, cycle.scratch)
		if err != nil {
			m.cfg.Logf("dcm: %s: regeneration for host updates failed: %v", name, err)
			return
		}
		result = res
	}

	// Replicated services keep the paper's ordered scan: every host
	// carries the same data, and a hard failure must stop updates to the
	// remaining hosts at a well-defined point rather than leaving an
	// arbitrary subset updated. Unique services push their hosts
	// concurrently on a bounded pool — each host holds different data,
	// so failures are independent.
	if snap.Type == db.ServiceReplicated {
		for _, h := range hosts {
			if !m.updateHost(snap, h, result, stats, csp) {
				// A hard failure on a replicated service stops updates
				// to the service's remaining hosts.
				break
			}
		}
		return
	}

	sem := make(chan struct{}, m.maxParallelHosts())
	var wg sync.WaitGroup
	for _, h := range hosts {
		h := h
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			m.updateHost(snap, h, result, stats, csp)
		}()
	}
	wg.Wait()
}

type hostSnapshot struct {
	machID int
	name   string
}

// hostsNeedingUpdate lists the enabled hosts without hard errors that
// have not been updated since the data files were generated (or have
// override set).
func (m *DCM) hostsNeedingUpdate(snap *serviceSnapshot) []hostSnapshot {
	d := m.cfg.DB
	d.LockShared()
	defer d.UnlockShared()
	var out []hostSnapshot
	db.ServerHosts.Under(d, snap.Name, func(sh *db.ServerHost) bool {
		if !sh.Enable || sh.HostError != 0 || sh.InProgress || sh.LastSuccess >= snap.DFGen && !sh.Override {
			return true
		}
		if mach, ok := db.Machines.ByID(d, sh.MachID); ok {
			out = append(out, hostSnapshot{machID: sh.MachID, name: mach.Name})
		}
		return true
	})
	return out
}

// updateHost pushes the service's files to one host, retrying soft
// failures within the pass under the backoff policy. It returns false
// on a hard failure (the replicated-service abort signal).
func (m *DCM) updateHost(snap *serviceSnapshot, h hostSnapshot, result *gen.Result, stats *CycleStats, csp *trace.Span) bool {
	name := snap.Name
	stats.add(func(s *CycleStats) { s.HostsConsidered++ })
	b := result.Bundles[""]
	if result.Common == nil {
		b = result.Bundles[h.name]
	}
	if b == nil {
		m.cfg.Logf("dcm: %s: no bundle for host %s", name, h.name)
		return true
	}

	if !m.claimHost(snap, h.machID) {
		// A concurrent worker claimed (or already finished) this host
		// between the eligibility scan and now; pushing again would
		// double-update it.
		stats.add(func(s *CycleStats) { s.HostsSkippedBusy++ })
		m.cfg.Logf("dcm: %s: %s claimed by a concurrent pass, skipping", name, h.name)
		return true
	}

	pushErr := m.pushOnce(snap, h, b, stats, csp)
	for attempt := 1; pushErr != nil && update.IsSoftError(pushErr) && attempt <= m.maxRetries(); attempt++ {
		delay := m.rnd.delay(m.cfg.Backoff, attempt)
		m.cfg.Logf("dcm: %s: soft failure on %s: %v (retry %d in %v)%s",
			name, h.name, pushErr, attempt, delay, traceSuffix(stats.Trace))
		stats.add(func(s *CycleStats) { s.Retries++ })
		clock.Sleep(m.clk, delay)
		pushErr = m.pushOnce(snap, h, b, stats, csp)
	}
	now := m.clk.Now().Unix()

	switch {
	case pushErr == nil:
		stats.add(func(s *CycleStats) {
			s.HostsUpdated++
			s.FilesPropagated += result.NumFiles
			s.BytesPropagated += len(b.Data)
		})
		m.setHostFlags(name, h.machID, func(sh *db.ServerHost) {
			sh.Success = true
			sh.Override = false
			sh.InProgress = false
			sh.LastTry, sh.LastSuccess = now, now
			sh.HostError, sh.HostErrMsg = 0, ""
		})
		m.cfg.Logf("dcm: %s: updated %s%s", name, h.name, traceSuffix(stats.Trace))
		return true

	case update.IsSoftError(pushErr):
		stats.add(func(s *CycleStats) { s.HostSoftFails++ })
		msg := pushErr.Error()
		m.setHostFlags(name, h.machID, func(sh *db.ServerHost) {
			sh.InProgress = false
			sh.LastTry = now
			sh.HostErrMsg = msg
		})
		m.cfg.Logf("dcm: %s: soft failure on %s: %s (will retry next pass)%s", name, h.name, msg, traceSuffix(stats.Trace))
		return true

	default:
		stats.add(func(s *CycleStats) { s.HostHardFails++ })
		code := int(mrerr.CodeOf(pushErr))
		msg := pushErr.Error()
		m.setHostFlags(name, h.machID, func(sh *db.ServerHost) {
			sh.InProgress = false
			sh.Success = false
			sh.LastTry = now
			sh.HostError = code
			sh.HostErrMsg = msg
		})
		m.notify(fmt.Sprintf("service %s host %s: update failed: %s%s", name, h.name, msg, traceSuffix(stats.Trace)))
		if m.cfg.Mail != nil {
			m.cfg.Mail(
				fmt.Sprintf("DCM hard failure: %s on %s", name, h.name),
				fmt.Sprintf("updating %s on %s failed with: %s", name, h.name, msg))
		}
		if snap.Type == db.ServiceReplicated {
			m.setServiceFlags(name, func(s *db.Server) {
				s.HardError = code
				s.ErrMsg = msg
			})
		}
		return false
	}
}

// pushOnce performs a single update attempt against one host and
// records its wall-clock latency. The push ships b's edits when the host
// last installed b's base; a host that turns out not to hold what the
// DCM last installed there (a base mismatch) gets the whole bundle, in
// the same attempt.
func (m *DCM) pushOnce(snap *serviceSnapshot, h hostSnapshot, b *update.Bundle, stats *CycleStats, csp *trace.Span) (err error) {
	start := time.Now()
	psp := csp.Child("dcm.push")
	psp.SetDetail(h.name)
	defer func() {
		d := time.Since(start)
		stats.add(func(s *CycleStats) { s.PushLatency.Observe(d) })
		psp.EndCode(int32(mrerr.CodeOf(err)))
	}()

	addr, ok := m.cfg.Resolve(h.name)
	if !ok {
		return mrerr.UpdUnreachable
	}
	script := m.cfg.Scripts[snap.Name]
	var lines []string
	if script != nil {
		lines = script(&snap.Server, h.name, b.Members)
	}
	var creds *kerberos.Credentials
	if m.cfg.Creds != nil {
		creds = m.cfg.Creds()
	}
	// The wire trace field carries this push span's ID so the agent's
	// install span becomes its child across the process boundary.
	wireTrace := stats.Trace
	if id := psp.TraceID(); id != "" {
		wireTrace = trace.Wire(id, psp.SpanID())
	}
	key := hostKey{snap.Name, h.name}
	m.heldMu.Lock()
	held := m.held[key]
	m.heldMu.Unlock()
	p := &update.Push{
		Addr: addr, Target: snap.TargetFile, Bundle: b, Held: held, Script: lines,
		Creds: creds, Clock: m.clk, Timeout: m.cfg.PushTimeout,
		Trace: wireTrace,
	}
	err = p.Run()
	if err == mrerr.UpdBaseMismatch {
		stats.add(func(s *CycleStats) { s.BaseMismatches++ })
		m.cfg.Logf("dcm: %s: %s does not hold the bundle last installed there; pushing it whole%s",
			snap.Name, h.name, traceSuffix(stats.Trace))
		p.Held = update.Sum{}
		err = p.Run()
	}
	if p.Assembled {
		m.heldMu.Lock()
		m.held[key] = b.Sum
		m.heldMu.Unlock()
	}
	if err == nil {
		stats.add(func(s *CycleStats) {
			if p.Whole {
				s.PushesWhole++
			} else {
				s.PushesEdited++
			}
			s.BytesPushed += p.SentBytes
			s.BytesSkipped += p.ReusedBytes
		})
	}
	return err
}

// claimHost atomically transitions one serverhost row to InProgress,
// re-checking eligibility under the exclusive lock. This closes the
// TOCTOU window between hostsNeedingUpdate's shared-lock scan and the
// push: a host another worker marked InProgress (or finished updating)
// in the meantime is skipped instead of being pushed twice.
func (m *DCM) claimHost(snap *serviceSnapshot, machID int) bool {
	d := m.cfg.DB
	d.LockExclusive()
	defer d.UnlockExclusive()
	sh, ok := db.ServerHosts.Find(d, snap.Name, func(sh *db.ServerHost) bool { return sh.MachID == machID })
	if !ok || sh.InProgress || !sh.Enable || sh.HostError != 0 {
		return false
	}
	if sh.LastSuccess >= snap.DFGen && !sh.Override {
		return false // a concurrent pass already delivered this generation
	}
	sh = db.Edit(d, db.ServerHosts, sh)
	sh.InProgress = true
	d.NoteUpdateInternal(sh)
	return true
}

// claimService atomically marks a service's generation in progress,
// failing if another worker holds it.
func (m *DCM) claimService(name string) bool {
	d := m.cfg.DB
	d.LockExclusive()
	defer d.UnlockExclusive()
	s, ok := db.Servers.Get(d, name)
	if !ok || s.InProgress || s.HardError != 0 {
		return false
	}
	s = db.Edit(d, db.Servers, s)
	s.InProgress = true
	d.NoteUpdateInternal(s)
	return true
}

// generate runs one planned generation pass for a service: the rows
// that changed since the snapshot its keyed model reflects patch the
// model, and the planner's fallback matrix decides when to rebuild it
// instead. A nil Result with a nil error means "nothing changed, zero
// generator work".
func (m *DCM) generate(name string, generator *gen.Incremental, view *db.DB, scratch *gen.Scratch, csp *trace.Span) (*gen.Result, *extract.Plan, error) {
	psp := csp.Child("dcm.plan")
	defer psp.End()

	model, plan, err := m.planner.Run(name, generator, view)
	psp.SetDetail(fmt.Sprintf("%s mode=%s reason=%q rows=%d keys=%d",
		name, plan.Mode, plan.Reason, plan.Records, plan.Keys))
	if err != nil || plan.Mode == extract.ModeNoChange {
		return nil, plan, err
	}
	res, err := gen.FromModelInto(model, scratch)
	return res, plan, err
}

// regenForHosts renders a service's bundles for the host-update path
// when the due check produced none this pass: the planner's model,
// patched up to the pass's snapshot if rows changed since. The plan is
// deliberately not committed — this is not a generation, DFGen does not
// move, and only the hosts already owed an update are pushed. The
// planner remembers the uncommitted patch, so the next due pass reports
// it as a change and bumps DFGen, and the service's other hosts receive
// it too.
func (m *DCM) regenForHosts(name string, generator *gen.Incremental, view *db.DB, scratch *gen.Scratch) (*gen.Result, error) {
	model, _, err := m.planner.Run(name, generator, view)
	if err != nil {
		return nil, err
	}
	return gen.FromModelInto(model, scratch)
}

// finishGeneration releases the in-progress claim, records the
// generation's timestamps and commits the plan (its status and change
// sequence) under a single exclusive-lock acquisition.
func (m *DCM) finishGeneration(name string, now int64, plan *extract.Plan) {
	m.setServiceFlags(name, func(s *db.Server) {
		s.DFGen, s.DFCheck = now, now
		s.InProgress = false
		m.planner.Commit(name, plan)
	})
}

// notify sends a zephyrgram to class MOIRA instance DCM.
func (m *DCM) notify(message string) {
	if m.cfg.Notify != nil {
		m.cfg.Notify("MOIRA", "DCM", message)
	}
	m.cfg.Logf("dcm: NOTICE: %s", message)
}

// setServiceFlags mutates a service row under the exclusive lock, the
// in-process equivalent of the set_server_internal_flags query.
func (m *DCM) setServiceFlags(name string, fn func(*db.Server)) {
	d := m.cfg.DB
	d.LockExclusive()
	defer d.UnlockExclusive()
	if s, ok := db.Servers.Get(d, name); ok {
		s = db.Edit(d, db.Servers, s)
		fn(s)
		d.NoteUpdateInternal(s)
	}
}

// setHostFlags mutates a serverhost row under the exclusive lock, the
// in-process equivalent of the set_server_host_internal query.
func (m *DCM) setHostFlags(service string, machID int, fn func(*db.ServerHost)) {
	d := m.cfg.DB
	d.LockExclusive()
	defer d.UnlockExclusive()
	if sh, ok := db.ServerHosts.Find(d, service, func(sh *db.ServerHost) bool { return sh.MachID == machID }); ok {
		sh = db.Edit(d, db.ServerHosts, sh)
		fn(sh)
		d.NoteUpdateInternal(sh)
	}
}

// Loop runs the DCM at the given wall-clock interval (the cron line of
// the original: "invoked regularly by cron at intervals which become the
// minimum update time for any service"). It also runs immediately when
// trigger fires, and returns when stop closes.
func (m *DCM) Loop(interval time.Duration, trigger <-chan struct{}, stop <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	// A DCM with a journal also wakes on its appends.
	var journal <-chan struct{}
	if m.cfg.Journal != nil {
		journal = m.cfg.Journal.Subscribe()
	}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		case <-trigger:
		case <-journal:
		}
		if _, err := m.RunOnce(); err != nil && err != mrerr.MrDCMDisabled {
			m.cfg.Logf("dcm: pass failed: %v", err)
		}
	}
}
