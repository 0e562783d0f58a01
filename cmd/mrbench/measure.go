package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// params is one benchmark run.
type params struct {
	sp      spec
	seed    int64
	seconds int  // wall length of the measured phase: one batch per second
	trace   bool // report per-layer metrics instead of end-to-end ones
	setups  int  // complete set-ups per run; setup_s is their median

	outDir   string // where the trace dump goes
	hostRoot string // the agents' host trees; reused by later runs

	// batchOps, when positive, ends a batch after that many ops instead
	// of at its deadline. Only the determinism test sets it: counts can
	// then be compared exactly between two runs.
	batchOps int
}

// setupsPerRun is how many complete set-ups a run performs; the last
// one is measured against.
const setupsPerRun = 3

// batchLen is the wall length of one measured batch. A batch ends when
// the op in flight at its deadline, and the block of the seeded mix
// that op belongs to, complete.
const batchLen = time.Second

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	attempted, failed int64
	firstFailure      error
	metrics           []metric
	info              []metric // measured and printed, but not part of the result line
	ops               []string // the op sequence, recorded only for the determinism test
}

// batchStat is one measured batch.
type batchStat struct {
	ops       int
	busy      time.Duration // sum of the timed parts of its ops
	cpu       time.Duration // process user+system time across the batch
	p50, tail float64       // µs; unset for workloads whose percentiles are pooled
}

// run performs the set-ups, the measured phase and the checks, and
// returns the metrics for the mode p selects.
func run(p params, recordOps bool) (*result, error) {
	// Creating an inode on the shared disk costs 30 µs to 1 ms of kernel
	// CPU depending on what the machine's other tenants are doing — and
	// on how many this benchmark itself created and deleted in the last
	// few minutes — and change_pass's first fleet push creates 30,000 of
	// them (a home directory and two init files per user): 1 to 11 s that
	// say nothing about the program. So the host trees outlive the run
	// (p.hostRoot), and change_pass provisions them, untimed, before the
	// timed set-ups: each of those finds its lockers in place, as a
	// production fleet's DCM does, and costs what the program's own work
	// costs.
	if p.sp.pass {
		pw, _, err := setUp(p.sp, p.seed, p.hostRoot)
		if err != nil {
			return nil, fmt.Errorf("provisioning host trees: %w", err)
		}
		pw.close()
		syscall.Sync()
		runtime.GC()
	}
	var (
		w      *world
		setups []float64
		err    error
	)
	for i := 0; i < p.setups; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		var d time.Duration
		if w, d, err = setUp(p.sp, p.seed, p.hostRoot); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
	}
	defer w.close()

	src := newStream(p.sp, w.facts, p.seed, false)
	src.shellOf = w.warmShells
	var ly *layers
	if p.trace {
		if ly, err = newLayers(w, p); err != nil {
			return nil, err
		}
		defer ly.close()
	}

	res := &result{}
	var (
		lat     = make([]int64, 0, 1<<17) // the current batch's latencies, ns
		pooled  []int64                   // every untraced latency, for workloads whose percentiles are pooled
		batches []batchStat               // untraced batches only
		ms0     runtime.MemStats
		ms1     runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for b := 0; b < p.seconds; b++ {
		lat = lat[:0]
		var busy time.Duration
		traced := ly != nil && b%baselineEvery != 0
		cpu0 := cpuTime()
		deadline := time.Now().Add(batchLen)
		for {
			o := src.next()
			if recordOps {
				res.ops = append(res.ops, o.encode())
			}
			err := w.prepare(o)
			var d time.Duration
			var end time.Time
			switch {
			case err != nil:
				end = time.Now()
			case traced:
				d, err = ly.timedOp(o, res.attempted)
				end = time.Now()
			default:
				t0 := time.Now()
				err = w.exec(o)
				end = time.Now()
				d = end.Sub(t0)
				if ly != nil {
					ly.notePass()
				}
			}
			res.attempted++
			if err != nil {
				res.failed++
				if res.firstFailure == nil {
					res.firstFailure = fmt.Errorf("op %d (%s): %w", res.attempted, o.encode(), err)
				}
			}
			lat = append(lat, int64(d))
			busy += d
			if !src.blockDone() {
				continue
			}
			if p.batchOps > 0 {
				if len(lat) >= p.batchOps {
					break
				}
			} else if end.After(deadline) {
				break
			}
		}
		if !traced {
			bs := batchStat{ops: len(lat), busy: busy, cpu: cpuTime() - cpu0}
			if p.sp.pooled {
				pooled = append(pooled, lat...)
			} else {
				slices.Sort(lat)
				bs.p50, bs.tail = pctUS(lat, 50), pctUS(lat, p.sp.tailPct)
			}
			batches = append(batches, bs)
		}
		if ly != nil {
			ly.betweenBatches()
		}
	}
	runtime.ReadMemStats(&ms1)

	if p.sp.pass {
		if err := w.checkHesiod(src.lastAdd); err != nil {
			res.failed++
			if res.firstFailure == nil {
				res.firstFailure = err
			}
		}
	}
	timing := timeStats(p.sp, batches, pooled)
	if p.trace {
		res.metrics = append(timing, ly.metrics(timing)...)
		return res, nil
	}

	// Live heap with the system still up but the benchmark's own sample
	// buffers dropped.
	lat, pooled = nil, nil
	var ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms2)

	ops := float64(res.attempted)
	res.metrics = []metric{
		{"setup_s", median(setups), "s"},
		{"alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops, "KiB"},
		{"allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs) / ops, "count"},
		{"heap_live_mb", float64(ms2.HeapAlloc) / (1 << 20), "MiB"},
	}
	res.info = timing
	return res, nil
}

// timeStats reduces the untraced batches to the four wall-clock
// figures. Each is the median across batches of the per-batch value, so
// a burst of interference that lands on a few batches moves none of
// them; the percentiles of a pooled workload are taken over all of its
// untraced ops instead. They are per-layer metrics, without a
// regression bound: see "Why no time is gated" in README.md.
func timeStats(sp spec, batches []batchStat, pooled []int64) []metric {
	var opsPerS, cpuPerOp, p50s, tails []float64
	for _, b := range batches {
		opsPerS = append(opsPerS, float64(b.ops)/b.busy.Seconds())
		cpuPerOp = append(cpuPerOp, float64(b.cpu.Microseconds())/float64(b.ops))
		p50s, tails = append(p50s, b.p50), append(tails, b.tail)
	}
	p50, tail := median(p50s), median(tails)
	if sp.pooled {
		slices.Sort(pooled)
		p50, tail = pctUS(pooled, 50), pctUS(pooled, sp.tailPct)
	}
	return []metric{
		{"client.ops_per_s", median(opsPerS), "1/s"},
		{"client.op_p50_us", p50, "us"},
		{"client.op_tail_us", tail, "us"},
		{"client.cpu_us_per_op", median(cpuPerOp), "us"},
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pctUS is the nearest-rank p-th percentile of sorted nanosecond
// samples, in microseconds.
func pctUS(sorted []int64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return float64(sorted[i]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
