package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The benchmark builds ./cmd/emdserve and is started from the module
// root; so are its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	code := m.Run()
	stopAllChildren()
	os.Exit(code)
}

// Smoke: all four workloads at 1/50 scale, tracing off, and the traced
// pass of the two that exercise the most harness code (the HTTP child
// and the WAL-backed set). Percentiles may be refused at this scale;
// answers must still be exact.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts cmd/emdserve")
	}
	for _, sp := range specs {
		sp = sp.scaled(0.02)
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && !sp.HTTP && !sp.Ingest {
				continue
			}
			cfg := config{seed: 42, seconds: 0.3, setups: 1, tmp: t.TempDir(), traceDir: t.TempDir()}
			res, err := runWorkload(sp, cfg, trace)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sp.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d notes=%v",
					sp.Name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if trace == 0 && !sp.Ingest && res.AnswersFNV == "" {
				t.Errorf("%s: no answers_fnv", sp.Name)
			}
			if trace == 1 {
				if _, err := os.Stat(cfg.traceDir + "/" + sp.Name + ".spans.jsonl"); err != nil {
					t.Errorf("%s: no span file: %v", sp.Name, err)
				}
				for _, d := range perLayer {
					if _, ok := res.Metrics[d.Name]; !ok {
						t.Errorf("%s: per-layer metric %s missing", sp.Name, d.Name)
					}
				}
			}
		}
	}
	children.Lock()
	alive := len(children.m)
	children.Unlock()
	if alive != 0 {
		t.Errorf("%d emdserve children still alive", alive)
	}
}

// BENCHMARK.json repeats the tables in metrics.go and the workload
// list; the two must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), specs has %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range b.EndToEnd {
		if d != endToEnd[i] {
			t.Errorf("end_to_end[%d]: %+v, table has %+v", i, d, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(b.PerLayer), len(perLayer))
	}
	for i, d := range b.PerLayer {
		if d.Name != perLayer[i].Name || d.Unit != perLayer[i].Unit || d.Better != perLayer[i].Better {
			t.Errorf("per_layer[%d]: %+v, table has %+v", i, d, perLayer[i])
		}
	}
}
