// Command mrbench is the repository's benchmark: four seeded, closed-loop
// workloads over an in-process core.System — three on the request path
// (one goroutine, one authenticated connection) and one on the change
// path (journal → delta plan → render → chunked push → agent install).
// It measures every layer from outside, through public functions and
// through series the program already exports, and checks every reply.
//
//	bash cmd/mrbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. See
// README.md for the metric tables and how they interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"moira/internal/db"
)

// runCap fails a run outright rather than let it report numbers from a
// machine too starved to finish in time.
const runCap = 150 * time.Second

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of the op sequence")
		seconds   = flag.Int("seconds", 10, "wall length of the measured phase")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span dump")
		outDir    = flag.String("out", ".bench_build", "directory for temporary state and trace dumps")
		selfcheck = flag.Bool("selfcheck", false, "run the workload twice in child processes and compare against BENCHMARK.json's bounds")
	)
	flag.Parse()
	sp, ok := specByName(*workload)
	if !ok || flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: mrbench -workload {%s} [-seed N] [-seconds S] [-trace 0|1] [-selfcheck]\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(selfCheck(sp, *seed, *seconds, *outDir))
	}

	out, err := filepath.Abs(*outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrbench: refusing to start:", err)
		os.Exit(1)
	}
	tmp, alone, err := claimTemp(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrbench: refusing to start:", err)
		os.Exit(1)
	}
	// Boot puts the journal and the agents' host trees under TMPDIR.
	os.Setenv("TMPDIR", tmp)
	exit := func(code int) {
		os.RemoveAll(tmp)
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintln(os.Stderr, "mrbench: interrupted:", s)
		exit(130)
	}()
	time.AfterFunc(runCap, func() {
		fmt.Fprintf(os.Stderr, "mrbench: run exceeded %v; failing it rather than report partial numbers\n", runCap)
		exit(3)
	})

	fmt.Printf("# mrbench workload=%s seed=%d seconds=%d trace=%d users=%d batch=%v setups=%d\n",
		sp.name, *seed, *seconds, *trace, sp.users, batchLen, setupsPerRun)
	fmt.Printf("# GOMAXPROCS=%d GOGC=%s journal_sync=%v journal_attached=%v tmp=%s\n",
		runtime.GOMAXPROCS(0), gogc(), db.SyncEveryCommit, sp.journal, tmp)
	// The host trees are the one thing a run leaves behind (see run); a
	// run that finds another one alive keeps its own, inside tmp.
	hostRoot := filepath.Join(tmp, "hosts")
	if alone {
		hostRoot = filepath.Join(out, "hosts-"+sp.name)
	}
	if err := os.MkdirAll(hostRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mrbench: refusing to start:", err)
		exit(1)
	}
	res, err := run(params{sp: sp, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: setupsPerRun, outDir: out, hostRoot: hostRoot}, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrbench:", err)
		exit(1)
	}
	if res.firstFailure != nil {
		fmt.Println("# first failure:", res.firstFailure)
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", res.attempted, res.failed)
	for _, ms := range [][]metric{res.metrics, res.info} {
		for _, m := range ms {
			fmt.Printf("%s %s %s\n", m.name, formatValue(m.value), m.unit)
		}
	}
	fmt.Println(resultJSON(res))
	exit(0)
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100(default)"
}

func formatValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// resultJSON renders the line the driver reads.
func resultJSON(res *result) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`,
		res.failed == 0, res.attempted, res.failed)
	for i, m := range res.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, formatValue(m.value), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// claimTemp creates this run's private directory under out/tmp and
// reports whether no other run is alive. A directory left by a run that
// is no longer alive is removed first; if that fails the run refuses to
// start, because leftovers on the same disk are exactly the interference
// the benchmark must not have.
func claimTemp(out string) (dir string, alone bool, err error) {
	base := filepath.Join(out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", false, fmt.Errorf("cannot create temp dir: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(base, "mrbench-*"))
	if err != nil {
		return "", false, err
	}
	alone = true
	for _, dir := range stale {
		if pid := ownerPID(dir); pid > 0 && syscall.Kill(pid, 0) == nil {
			alone = false // a concurrent run owns it
			continue
		}
		if err := os.RemoveAll(dir); err != nil {
			return "", false, fmt.Errorf("a previous run left %s and it cannot be removed: %w", dir, err)
		}
	}
	dir, err = os.MkdirTemp(base, fmt.Sprintf("mrbench-%d-", os.Getpid()))
	if err != nil {
		return "", false, fmt.Errorf("cannot create temp dir: %w", err)
	}
	return dir, alone, nil
}

var tempName = regexp.MustCompile(`^mrbench-(\d+)-`)

func ownerPID(dir string) int {
	m := tempName.FindStringSubmatch(filepath.Base(dir))
	if m == nil {
		return 0
	}
	pid, _ := strconv.Atoi(m[1])
	return pid
}

// --- -selfcheck ---

type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type childResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// selfCheck is an A/A run: the workload twice, back to back, in fresh
// child processes of this binary. Any end-to-end metric whose second
// reading is worse than the first by more than its BENCHMARK.json bound
// is a breach: either the bound or the benchmark is too tight for this
// machine.
func selfCheck(sp spec, seed int64, seconds int, out string) int {
	var bf benchFile
	data, err := readBenchFile()
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrbench: selfcheck:", err)
		return 1
	}
	var runs [2]childResult
	for i := range runs {
		cmd := exec.Command(os.Args[0], "-workload", sp.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: selfcheck run %d: %v\n", i+1, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &runs[i]); err != nil || !runs[i].Correct {
			fmt.Fprintf(os.Stderr, "mrbench: selfcheck run %d: incorrect or unreadable result (%v)\n", i+1, err)
			return 1
		}
	}
	fmt.Printf("%-18s %14s %14s %9s %7s\n", "metric", "run1", "run2", "worse_by", "bound")
	breaches := 0
	for _, m := range bf.EndToEnd {
		a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
		worse := (b - a) / a
		if m.Better == "higher" {
			worse = (a - b) / a
		}
		flag := ""
		if worse > m.Bound {
			flag = "  BREACH"
			breaches++
		}
		fmt.Printf("%-18s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", m.Name, a, b, 100*worse, 100*m.Bound, flag)
	}
	if breaches > 0 {
		fmt.Printf("selfcheck %s: %d breach(es)\n", sp.name, breaches)
		return 1
	}
	fmt.Printf("selfcheck %s: ok\n", sp.name)
	return 0
}

// readBenchFile finds BENCHMARK.json from the checkout root (where the
// driver runs) or from this package's directory.
func readBenchFile() ([]byte, error) {
	var errs []error
	for _, p := range []string{"BENCHMARK.json", "../../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err == nil {
			return data, nil
		}
		errs = append(errs, err)
	}
	return nil, errors.Join(errs...)
}
