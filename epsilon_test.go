package emdsearch

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"
)

func TestEpsilonForCountGuarantee(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 120)
	for _, q := range queries {
		for _, count := range []int{1, 10, 40} {
			eps, err := eng.EpsilonForCount(context.Background(), q, count)
			if err != nil {
				t.Fatal(err)
			}
			results, _, err := eng.Range(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) < count {
				t.Fatalf("count=%d: eps %g returned only %d results", count, eps, len(results))
			}
		}
	}
}

func TestEpsilonForCountValidation(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 30)
	if _, err := eng.EpsilonForCount(context.Background(), queries[0], 0); err == nil {
		t.Error("accepted count=0")
	}
	if _, err := eng.EpsilonForCount(context.Background(), queries[0], 1000); err == nil {
		t.Error("accepted count > n")
	}
	if _, err := eng.EpsilonForCount(context.Background(), Histogram{1}, 3); err == nil {
		t.Error("accepted bad query")
	}
	scan, scanQueries := buildEngine(t, Options{}, 30)
	if _, err := scan.EpsilonForCount(context.Background(), scanQueries[0], 3); err == nil {
		t.Error("worked without a reduction")
	}
}

func TestDistanceDistribution(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 100)
	d, err := eng.DistanceDistribution(context.Background(), queries[0], 40)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() < 30 || d.Count() > 40 {
		t.Errorf("sample size %d, want about 40", d.Count())
	}
	if d.Min() < 0 || d.Max() < d.Min() {
		t.Errorf("degenerate distribution: [%g, %g]", d.Min(), d.Max())
	}
	if _, err := eng.DistanceDistribution(context.Background(), queries[0], 0); err == nil {
		t.Error("accepted sample size 0")
	}
	if _, err := eng.DistanceDistribution(context.Background(), Histogram{1}, 10); err == nil {
		t.Error("accepted bad query")
	}
	// Oversized sample clamps to n.
	d, err = eng.DistanceDistribution(context.Background(), queries[0], 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != eng.Len() {
		t.Errorf("clamped sample %d, want %d", d.Count(), eng.Len())
	}
}

// TestRangeIDsMatchesRange: the membership (ids-only) Search is the
// range query over the engine's own ranking, whatever plan produced it —
// so under every plan kind, inline and pooled, its ids are the sorted
// ids of Range and of a brute-force scan over emd.Dist, and each
// returned Dist is an upper bound of the exact distance within eps.
func TestRangeIDsMatchesRange(t *testing.T) {
	const n = 120
	plans := []struct {
		name string
		opts Options
	}{
		{"single-level", Options{ReducedDims: 8, SampleSize: 16}},
		{"hierarchy", Options{Hierarchy: []int{16, 4}, SampleSize: 16}},
		{"asymmetric", Options{ReducedDims: 8, SampleSize: 16, AsymmetricQuery: true}},
		{"vptree", Options{ReducedDims: 8, SampleSize: 16, IndexKind: IndexVPTree}},
		{"no-reduction", Options{}},
	}
	for _, plan := range plans {
		for _, workers := range []int{1, 4} {
			opts := plan.opts
			opts.Workers = workers
			eng, queries := buildEngine(t, opts, n)
			for qi, q := range queries[:3] {
				all := bruteForce(t, eng, q, nil)
				// The last radius is selective: the query's 10th-NN distance.
				for _, eps := range []float64{0.02, 0.05, 0.1, all[9].Dist} {
					tag := fmt.Sprintf("%s/workers=%d/q%d/eps=%g", plan.name, workers, qi, eps)
					evalsBefore := eng.Metrics().Stages["Red-EMD"].Evaluations
					ans, err := eng.Search(context.Background(), Query{Hist: q, Range: true, Eps: eps, IDsOnly: true})
					if err != nil {
						t.Fatal(err)
					}
					ids := make([]int, len(ans.Results))
					for i, r := range ans.Results {
						ids[i] = r.Index
						if exact := exactDist(t, eng, q, r.Index); r.Dist > eps || r.Dist < exact-1e-9 {
							t.Fatalf("%s: id %d carries %v, exact %v, eps %v", tag, r.Index, r.Dist, exact, eps)
						}
					}
					evals := eng.Metrics().Stages["Red-EMD"].Evaluations - evalsBefore
					want, _, err := eng.Range(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					if len(ids) != len(want) {
						t.Fatalf("%s: %d ids, Range finds %d", tag, len(ids), len(want))
					}
					wantSet := map[int]bool{}
					for _, r := range want {
						wantSet[r.Index] = true
					}
					for _, id := range ids {
						if !wantSet[id] {
							t.Fatalf("%s: spurious id %d", tag, id)
						}
					}
					brute := within(all, eps)
					bruteIDs := make([]int, len(brute))
					for i, r := range brute {
						bruteIDs[i] = r.Index
					}
					sort.Ints(bruteIDs)
					if !sort.IntsAreSorted(ids) || !slices.Equal(ids, bruteIDs) {
						t.Fatalf("%s: ids %v, brute force finds %v", tag, ids, bruteIDs)
					}
					// The filter chain runs for RangeIDs too, and prunes: a
					// selective radius reaches the Red-EMD stage with fewer
					// than n items, and the work is counted.
					if plan.name == "single-level" && eps == all[9].Dist && (evals <= 0 || evals >= n) {
						t.Fatalf("%s: %d Red-EMD evaluations for one RangeIDs call over %d items", tag, evals, n)
					}
				}
			}
		}
	}

	// A query that fails for want of a snapshot is counted as an error,
	// as it is for KNNCtx.
	empty, err := NewEngine(LinearCost(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rangeIDs(context.Background(), empty, Histogram{0.25, 0.25, 0.25, 0.25}, 1); err == nil {
		t.Fatal("an ids-only query on an empty engine succeeded")
	}
	if got := empty.Metrics().QueryErrors; got != 1 {
		t.Fatalf("QueryErrors = %d after an ids-only query failed to get a snapshot, want 1", got)
	}
}

func TestRangeIDsScanMode(t *testing.T) {
	eng, queries := buildEngine(t, Options{}, 40)
	ids, err := rangeIDs(context.Background(), eng, queries[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.Range(queries[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(want) {
		t.Fatalf("scan mode: %d ids, Range finds %d", len(ids), len(want))
	}
}
