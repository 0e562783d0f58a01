package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// runSmall runs a workload at 2,000 users with two count-bounded
// batches, so two runs of one seed must agree exactly. As in real use,
// a workload's runs share their host trees.
func runSmall(t *testing.T, sp spec, hostRoot string, seed int64, trace bool) *result {
	t.Helper()
	sp.users = 2000
	sp.warmOps = min(sp.warmOps, 40)
	p := params{sp: sp, seed: seed, seconds: 2, trace: trace, setups: 1,
		outDir: t.TempDir(), hostRoot: hostRoot, batchOps: 48}
	if sp.pass {
		p.batchOps = 3
	}
	t.Setenv("TMPDIR", t.TempDir())
	res, err := run(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d ops failed, first: %v", res.failed, res.firstFailure)
	}
	return res
}

func value(t *testing.T, res *result, name string) float64 {
	t.Helper()
	for _, m := range res.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("metric %s not reported", name)
	return 0
}

type named struct{ Name string }

func names(ns []named) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Name)
	}
	return out
}

var wellFormed = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// reports checks that a run printed exactly the metrics BENCHMARK.json
// lists for its mode, under well-formed names.
func reports(t *testing.T, res *result, want []named) {
	t.Helper()
	var got []string
	for _, m := range res.metrics {
		if !wellFormed.MatchString(m.name) {
			t.Errorf("metric name %q is malformed", m.name)
		}
		got = append(got, m.name)
	}
	if !slices.Equal(got, names(want)) {
		t.Errorf("run reports %v, BENCHMARK.json lists %v", got, names(want))
	}
}

// TestSeedDeterminesRun holds the benchmark to its contract with
// BENCHMARK.json and with -seed: the same seed gives the same op
// sequence and the same counts, another seed another sequence.
func TestSeedDeterminesRun(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if got := names(bf.Workloads); !slices.Equal(got, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, mrbench runs %v", got, workloadNames())
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			hosts := t.TempDir()
			a, b := runSmall(t, sp, hosts, 7, true), runSmall(t, sp, hosts, 7, true)
			if !slices.Equal(a.ops, b.ops) {
				t.Error("seed 7 gave two different op sequences")
			}
			if a.attempted != b.attempted {
				t.Errorf("ops_attempted %d then %d", a.attempted, b.attempted)
			}
			for _, m := range []string{"protocol.tuples_per_op", "dcm.delta_keys_per_pass"} {
				if x, y := value(t, a, m), value(t, b, m); x != y {
					t.Errorf("%s %v then %v", m, x, y)
				}
			}
			reports(t, a, bf.PerLayer)
			c := runSmall(t, sp, hosts, 8, false)
			if slices.Equal(a.ops, c.ops) {
				t.Error("seeds 7 and 8 gave the same op sequence")
			}
			reports(t, c, bf.EndToEnd)
		})
	}
}
