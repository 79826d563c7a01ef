package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the self-test
// checks the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny runs a workload at self-test size and returns its report and
// result.
func tiny(t *testing.T, workload string, trace bool, corrupt corruption) (map[string]any, result) {
	t.Helper()
	o := options{workload: workload, seed: 3, seconds: 1, trace: trace, scale: 0.02, spans: t.TempDir(), corrupt: corrupt}
	report, res, err := run(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return report, res
}

// checkNames requires the metrics to be exactly the listed names, each
// with its listed unit.
func checkNames(t *testing.T, label string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", label, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, w.Name, m.Unit, w.Unit)
		}
	}
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: metrics not in BENCHMARK.json: %v", label, extra)
	}
}

// TestSelf runs every workload at tiny size, untraced and traced: each
// must pass the correctness gate and emit exactly the metrics
// BENCHMARK.json names, with their units. Every workload BENCHMARK.json
// lists must be one the benchmark runs, in the same order.
func TestSelf(t *testing.T) {
	b := readBenchmark(t)
	i := 0
	for _, w := range b.Workloads {
		for i < len(workloadNames) && workloadNames[i] != w.Name {
			i++
		}
		if i == len(workloadNames) {
			t.Fatalf("BENCHMARK.json workload %q is not one of %v, in that order", w.Name, workloadNames)
		}
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				_, res := tiny(t, w, trace, corruptNone)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: gate failed: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if trace {
					checkNames(t, w+" traced", res.Metrics, b.PerLayer)
				} else {
					checkNames(t, w, res.Metrics, b.EndToEnd)
				}
			}
		})
	}
}

// TestGateTrips corrupts the expectations both ways, a benign workload
// expected to alert as a miner and a real miner treated as benign, and
// requires the gate to fail with exactly the violation the corruption
// causes and no other.
func TestGateTrips(t *testing.T) {
	cases := []struct {
		name    string
		corrupt corruption
		want    string
	}{
		{"benign-as-miner", corruptBenignAsMiner, "never alerted"},
		{"miner-as-benign", corruptMinerAsBenign, "alert on benign workload"},
	}
	for _, w := range workloadNames {
		for _, c := range cases {
			t.Run(w+"/"+c.name, func(t *testing.T) {
				report, res := tiny(t, w, false, c.corrupt)
				if res.Correct || res.Failed == 0 {
					t.Fatalf("gate passed a corrupted expectation: correct=%v failed=%d", res.Correct, res.Failed)
				}
				vs, _ := report["violations"].([]string)
				if len(vs) == 0 {
					t.Fatalf("gate failed without listing violations: %v", report)
				}
				for _, v := range vs {
					if !strings.Contains(v, c.want) {
						t.Errorf("violation %q is not the corrupted expectation's %q", v, c.want)
					}
				}
			})
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, _ := tail(xs, 0.9); v != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", v)
	}
	if v, basis := tail(xs, 0.99); v != 50 {
		t.Errorf("p99 of 100 samples = %v (%s), want the median 50", v, basis)
	}
}
