package emdsearch

import (
	"testing"
)

// TestEngineBoundedRefineMatchesUnbounded is the end-to-end bit-identity
// check of the threshold-aware refinement kernel: engines with early
// abandon + sparsity reduction (the default), with the legacy unbounded
// kernel (Options.unboundedRefine), and with both kernels under
// parallel refinement must return byte-identical KNN and Range results
// on the same data. It is also the engine-level history-independence
// check: the bounded engines answer every query on pooled solver states
// that served all the earlier ones, the parallel engine on several such
// states in an order that varies from run to run.
func TestEngineBoundedRefineMatchesUnbounded(t *testing.T) {
	const n = 120
	base := Options{ReducedDims: 8, SampleSize: 10}
	bounded, queries := buildEngine(t, base, n)

	legacy := base
	legacy.unboundedRefine = true
	unbounded, _ := buildEngine(t, legacy, n)

	parallel := base
	parallel.Workers = 4
	boundedPar, _ := buildEngine(t, parallel, n)

	for qi, q := range queries {
		for _, k := range []int{1, 5, 17} {
			want, _, err := unbounded.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := bounded.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("query %d k=%d: bounded %d results, unbounded %d", qi, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist {
					t.Fatalf("query %d k=%d result %d: bounded %+v, unbounded %+v",
						qi, k, i, got[i], want[i])
				}
			}
			if stats.RefinesAborted > stats.Refinements {
				t.Fatalf("query %d k=%d: aborted %d > refinements %d",
					qi, k, stats.RefinesAborted, stats.Refinements)
			}
			if stats.Refinements > 0 && (stats.RefineRows == 0 || stats.RefineCols == 0) {
				t.Fatalf("query %d k=%d: reduced shapes not recorded: %+v", qi, k, stats)
			}
			gotPar, _, err := boundedPar.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotPar) != len(want) {
				t.Fatalf("query %d k=%d: parallel bounded %d results, want %d", qi, k, len(gotPar), len(want))
			}
			for i := range want {
				if gotPar[i] != want[i] {
					t.Fatalf("query %d k=%d result %d: parallel bounded %+v, unbounded %+v",
						qi, k, i, gotPar[i], want[i])
				}
			}
		}

		// Range at a radius that admits a handful of items.
		ref, _, err := unbounded.KNN(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		eps := ref[len(ref)-1].Dist * 1.01
		want, _, err := unbounded.Range(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		for name, eng := range map[string]*Engine{"bounded": bounded, "boundedPar": boundedPar} {
			got, _, err := eng.Range(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("query %d range (%s): %d results, want %d", qi, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("query %d range (%s) result %d: got %+v, want %+v", qi, name, i, got[i], want[i])
				}
			}
		}
	}

	// The bounded engines must actually have used the new machinery
	// over the query workload, and the legacy engine must not.
	bm := bounded.Metrics()
	if bm.RefinesAborted == 0 {
		t.Error("bounded engine never aborted a refinement over the workload")
	}
	if bm.RefineRows == 0 || bm.RefineCols == 0 {
		t.Error("bounded engine recorded no reduced shapes")
	}
	um := unbounded.Metrics()
	if um.RefinesAborted != 0 || um.RefineRows != 0 {
		t.Errorf("unbounded engine reports bounded-kernel activity: %+v", um)
	}
	pm := boundedPar.Metrics()
	if pm.RefinesAborted == 0 {
		t.Error("parallel bounded engine never aborted a refinement")
	}
}

// TestEngineBoundedCountersAggregate checks that the per-query bounded
// counters flow into Engine.Metrics additively.
func TestEngineBoundedCountersAggregate(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, 100)
	var aborted, rows, cols int64
	for _, q := range queries {
		_, stats, err := eng.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		aborted += int64(stats.RefinesAborted)
		rows += stats.RefineRows
		cols += stats.RefineCols
	}
	m := eng.Metrics()
	if m.RefinesAborted != aborted || m.WarmStartHits != 0 ||
		m.RefineRows != rows || m.RefineCols != cols {
		t.Fatalf("metrics %+v do not match summed query stats (aborted %d, rows %d, cols %d)",
			m, aborted, rows, cols)
	}
}
