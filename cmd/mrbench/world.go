package main

import (
	"fmt"
	"sort"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/core"
	"moira/internal/db"
	"moira/internal/dcm"
	"moira/internal/workload"
)

// spec is one benchmark workload: what is booted, how much seeded
// warm-up a set-up includes, and how its latencies are summarised.
type spec struct {
	name string
	why  string

	users   int  // workload.Scaled population
	warmOps int  // warm-up ops inside every set-up (a count, never a duration)
	journal bool // core.Options.DCMIncremental: durable journal attached
	pass    bool // an op is one DCM pass on a fake clock, not a client call
	sample  int  // -trace 1 replays one op in this many through the layers

	// pooled takes the latency percentiles over the whole run instead of
	// per batch, for workloads whose batches hold under 1,000 ops; tailPct
	// is the highest percentile with at least ten samples beyond it.
	pooled  bool
	tailPct int
}

// The four workloads. Sizes are part of the benchmark: changing one
// re-bases every number.
var specs = []spec{
	{
		name: "query_point", users: 100000, warmOps: 20000, sample: 64, tailPct: 99,
		why: "one-tuple indexed reads: client, protocol and server do the work and db under 1%, so a wire or server change shows and a storage change must not",
	},
	{
		name: "query_range", users: 100000, warmOps: 1000, sample: 16, tailPct: 99,
		why: "wildcard and list-membership reads of many tuples: tuple encoding, emit and the range planner dominate, the per-request fixed cost does not",
	},
	{
		name: "mixed_rw", users: 100000, warmOps: 100, journal: true, sample: 4, pooled: true, tailPct: 99,
		why: "19 point reads per journaled write: every write dirties users, the next read pays the copy-on-write snapshot rebuild, so read and write gains trade off here",
	},
	{
		name: "change_pass", users: 10000, warmOps: 3, journal: true, pass: true, sample: 4, pooled: true, tailPct: 90,
		why: "0.1% churn then one incremental DCM pass with chunked push: extract, gen, dcm and update do all the work, the request path none; control for query-side changes",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// benchLogin is the account the load-generating connection
// authenticates as; it sits on dbadmin, so every handle is allowed.
const (
	benchLogin    = "mrbench"
	benchPassword = "mrbench-pw"
)

// fakeEpoch is where change_pass starts its virtual clock (the same
// instant the repo's DCM benchmarks use).
var fakeEpoch = time.Unix(600000000, 0)

// world is one booted system with its single client connection.
type world struct {
	sp    spec
	sys   *core.System
	clk   *clock.Fake    // change_pass only
	c     *client.Client // request workloads only
	facts *facts

	warmShells map[string]string // shells the warm-up wrote, for the measured stream's checks
	lastPass   *dcm.CycleStats   // change_pass: the most recent pass's stats
}

// setUp performs one complete set-up: boot and populate, create and
// authenticate the benchmark account, read the facts the op generator
// and the checks need, and run the seeded warm-up. The returned
// duration is what setup_s reports.
func setUp(sp spec, seed int64, hostRoot string) (*world, time.Duration, error) {
	start := time.Now()
	w := &world{sp: sp}
	cfg := workload.Scaled(sp.users)
	opts := core.Options{Workload: &cfg, DCMIncremental: sp.journal, HostRoot: hostRoot}
	if sp.pass {
		// The paper's absolute server count, as BenchmarkDCMIncrementalChurn
		// pins it: the subject is a pass's generation and transfer cost.
		cfg.NFSServers = 4
		w.clk = clock.NewFake(fakeEpoch)
		opts.Clock = w.clk
	}
	sys, err := core.Boot(opts)
	if err != nil {
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	w.sys = sys
	fail := func(err error) (*world, time.Duration, error) {
		w.close()
		return nil, 0, err
	}
	if sp.pass {
		// Settle the cold start: full builds and the initial fleet push.
		if st, err := sys.RunDCM(); err != nil || st.HostHardFails != 0 {
			return fail(fmt.Errorf("initial DCM pass: %v (%+v)", err, st))
		}
	} else {
		if err := sys.AddAccount(benchLogin, benchPassword, "Bench", "Mark"); err != nil {
			return fail(fmt.Errorf("add account: %w", err))
		}
		if err := sys.Grant(benchLogin); err != nil {
			return fail(fmt.Errorf("grant: %w", err))
		}
		if w.c, err = sys.ClientAs(benchLogin, benchPassword, "mrbench"); err != nil {
			return fail(fmt.Errorf("dial+auth: %w", err))
		}
	}
	w.facts = readFacts(sys.DB)
	warm := newStream(sp, w.facts, seed, true)
	for i := 0; i < sp.warmOps; i++ {
		o := warm.next()
		if err := w.prepare(o); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
		if err := w.exec(o); err != nil {
			return fail(fmt.Errorf("warm-up %s: %w", o.query, err))
		}
	}
	w.warmShells = warm.shellOf
	return w, time.Since(start), nil
}

func (w *world) close() {
	if w.c != nil {
		w.c.Disconnect()
	}
	w.sys.Close()
}

// facts is what the generator and the output checks know about the
// population, read straight from the database before any op runs.
type facts struct {
	users  []userFact // workload users, users_id order
	sorted []string   // every login, sorted, for prefix counts
	lists  []listFact // mailing lists
}

type userFact struct {
	login, uid string
	lists      int // lists that directly contain the user
}

type listFact struct {
	name    string
	members int
}

func readFacts(d *db.DB) *facts {
	f := &facts{}
	d.LockShared()
	defer d.UnlockShared()
	d.EachUser(func(u *db.User) bool {
		f.sorted = append(f.sorted, u.Login)
		// Every populated user has a namesake group; the bootstrap and
		// benchmark accounts are not op targets.
		if _, ok := d.ListByName(u.Login); ok && u.Login != benchLogin {
			f.users = append(f.users, userFact{
				login: u.Login,
				uid:   fmt.Sprint(u.UID),
				lists: len(d.ListsContaining(db.ACEUser, u.UsersID)),
			})
		}
		return true
	})
	sort.Strings(f.sorted)
	d.EachList(func(l *db.List) bool {
		if l.Maillist {
			if n := len(d.MembersOf(l.ListID)); n > 0 {
				f.lists = append(f.lists, listFact{l.Name, n})
			}
		}
		return true
	})
	return f
}

// prefixCount is how many logins start with p: the tuple count a
// "p*" retrieval must return.
func (f *facts) prefixCount(p string) int {
	lo := sort.SearchStrings(f.sorted, p)
	hi := lo + sort.Search(len(f.sorted)-lo, func(i int) bool {
		s := f.sorted[lo+i]
		return len(s) < len(p) || s[:len(p)] != p
	})
	return hi - lo
}
