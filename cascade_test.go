package emdsearch

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"emdsearch/internal/core"
	"emdsearch/internal/data"
)

// The cascade-plan bit-identity suite. A planned chain redistributes
// filter work across levels but every level lower-bounds the next, so
// candidate order by the running-max key, refinement counts, and every
// returned distance must be byte-identical across plans — the planner
// may only ever change *where* time is spent, never *what* is
// answered.

// cascadeVariant is one engine configuration (plus an optional chain
// adopted after Build) whose answers must match the single-level
// reference bit for bit.
type cascadeVariant struct {
	name  string
	opts  Options
	adopt []int // adoptChain target for AutoCascade variants
}

func cascadeVariants() []cascadeVariant {
	base := Options{ReducedDims: 8, SampleSize: 10}
	hier2 := Options{Hierarchy: []int{8, 2}, SampleSize: 10}
	hier3 := Options{Hierarchy: []int{8, 4, 2}, SampleSize: 10}
	auto := Options{ReducedDims: 8, SampleSize: 10, AutoCascade: true}
	return []cascadeVariant{
		{"single-level", base, nil},
		{"hier-2level", hier2, nil},
		{"hier-3level", hier3, nil},
		{"auto-2level", auto, []int{2, 8}},
		{"auto-3level", auto, []int{2, 4, 8}},
	}
}

func buildCascadeVariant(t *testing.T, v cascadeVariant, n int) (*Engine, []Histogram) {
	t.Helper()
	eng, queries := buildEngine(t, v.opts, n)
	if v.adopt != nil {
		if err := eng.adoptChain(v.adopt); err != nil {
			t.Fatalf("%s: adoptChain(%v): %v", v.name, v.adopt, err)
		}
	}
	for _, id := range []int{7, 23} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return eng, queries
}

// TestCascadePlanBitIdentity extends the cross-layout suite to cascade
// plans: full-ranking Float64bits equality and identical Refinements
// counts across fixed hierarchies and adopted auto plans. Every variant shares the same finest d'=8 reduction
// (depth-only changes reuse it by construction), so even the exact-EMD
// work counters must agree — the coarser levels may only pre-prune
// what the finest bound would have pruned anyway.
func TestCascadePlanBitIdentity(t *testing.T) {
	const n, k = 120, 7
	variants := cascadeVariants()
	engines := make([]*Engine, len(variants))
	var queries []Histogram
	for i, v := range variants {
		engines[i], queries = buildCascadeVariant(t, v, n)
	}
	ref := engines[0]

	for qi, q := range queries {
		wantKNN, wantStats, err := ref.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		eps := knnRadius(t, ref, q, 15)
		wantRange, _, err := ref.Range(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		wantRank := fullRanking(t, ref, q)
		if len(wantRank) != ref.Alive() {
			t.Fatalf("reference ranking covers %d items, want %d", len(wantRank), ref.Alive())
		}

		for vi := 1; vi < len(variants); vi++ {
			name, eng := variants[vi].name, engines[vi]
			got, stats, err := eng.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name, "KNN", got, wantKNN)
			// All variants share the finest reduction, so the
			// exact-refinement count is part of the contract.
			if stats.Refinements != wantStats.Refinements {
				t.Errorf("%s: query %d refined %d items, reference refined %d",
					name, qi, stats.Refinements, wantStats.Refinements)
			}

			gotRange, _, err := eng.Range(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name, "Range", gotRange, wantRange)
			sameResults(t, name, "Rank", fullRanking(t, eng, q), wantRank)
		}
	}
}

// TestAdoptedChainLowerBoundQuick is the randomized chaining property
// over *planned* chains: for random ascending level subsets adopted
// through the AutoCascade machinery, every planned level's distance
// must lower-bound the next finer level, the finest must lower-bound
// the exact EMD, and KNN must equal brute force. This is the invariant
// that lets the planner swap chains without ever changing an answer.
func TestAdoptedChainLowerBoundQuick(t *testing.T) {
	pool := []int{2, 3, 5, 8, 12}
	property := func(seed int64, mask uint8) bool {
		var levels []int
		for i, m := range pool {
			if mask&(1<<uint(i)) != 0 {
				levels = append(levels, m)
			}
		}
		if len(levels) == 0 {
			levels = []int{8}
		}
		ds, err := data.MusicSpectra(30, 16, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		vecs, queries, err := ds.Split(2)
		if err != nil {
			t.Log(err)
			return false
		}
		eng, err := NewEngine(ds.Cost, Options{ReducedDims: 8, AutoCascade: true, SampleSize: 10, Seed: seed})
		if err != nil {
			t.Log(err)
			return false
		}
		for i, h := range vecs {
			if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
				t.Log(err)
				return false
			}
		}
		if err := eng.Build(); err != nil {
			t.Log(err)
			return false
		}
		if err := eng.adoptChain(levels); err != nil {
			t.Logf("adoptChain(%v): %v", levels, err)
			return false
		}
		snap, err := eng.snapshot()
		if err != nil {
			t.Log(err)
			return false
		}
		// Coarsest first; the single reduction alone for one-level plans.
		chain := snap.plan.reductions()
		if len(chain) != len(levels) {
			t.Logf("seed %d levels %v: cascade has %d levels, want %d", seed, levels, len(chain), len(levels))
			return false
		}
		const tol = 1e-9
		for _, q := range queries {
			for vi, v := range vecs {
				prev := -1.0
				for li, lr := range chain {
					lred, err := core.NewReducedEMD(eng.cost, lr, lr)
					if err != nil {
						t.Log(err)
						return false
					}
					d := lred.DistanceReduced(lr.Apply(q), lr.Apply(v))
					if d < prev-tol {
						t.Logf("seed %d levels %v: level %d dist %g below coarser level %g (item %d)",
							seed, levels, li, d, prev, vi)
						return false
					}
					prev = d
				}
				exact, err := eng.Distance(context.Background(), q, vi)
				if err != nil {
					t.Log(err)
					return false
				}
				if prev > exact+tol {
					t.Logf("seed %d levels %v: finest level %g exceeds exact EMD %g (item %d)",
						seed, levels, prev, exact, vi)
					return false
				}
			}
		}
		for _, q := range queries {
			got, _, err := eng.KNN(q, 4)
			if err != nil {
				t.Log(err)
				return false
			}
			want := make([]Result, len(vecs))
			for i := range vecs {
				d, err := eng.Distance(context.Background(), q, i)
				if err != nil {
					t.Log(err)
					return false
				}
				want[i] = Result{Index: i, Dist: d}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].Dist != want[j].Dist {
					return want[i].Dist < want[j].Dist
				}
				return want[i].Index < want[j].Index
			})
			for i := range got {
				if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist {
					t.Logf("seed %d levels %v: KNN result %d = %+v, brute force %+v",
						seed, levels, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestAutoCascadeValidation(t *testing.T) {
	cost := LinearCost(8)
	if _, err := NewEngine(cost, Options{AutoCascade: true}); err == nil {
		t.Error("accepted AutoCascade without ReducedDims")
	}
	if _, err := NewEngine(cost, Options{AutoCascade: true, ReducedDims: 4, Hierarchy: []int{4, 2}}); err == nil {
		t.Error("accepted AutoCascade with a fixed Hierarchy")
	}
	eng, err := NewEngine(cost, Options{ReducedDims: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.replan(); err == nil {
		t.Error("Replan accepted an engine without AutoCascade")
	}
}

// TestReplanKeepsAnswersIdentical is the planner's end-to-end safety
// contract: whatever chain a forced planning pass adopts (or keeps),
// every answer after the swap is byte-identical to before it, the
// active plan stays a valid ascending chain, and the metrics report
// it.
func TestReplanKeepsAnswersIdentical(t *testing.T) {
	const n, k = 100, 6
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10, AutoCascade: true}, n)

	if plan := eng.Metrics().CascadePlan; len(plan) != 1 || plan[0] != 8 {
		t.Fatalf("fresh AutoCascade plan = %v, want [8]", plan)
	}
	before := make([][]Result, len(queries))
	for i, q := range queries {
		res, _, err := eng.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = res
	}
	if _, err := eng.replan(); err != nil {
		t.Fatalf("Replan: %v", err)
	}
	plan := eng.Metrics().CascadePlan
	if len(plan) == 0 {
		t.Fatal("no active plan after Replan")
	}
	for i := 1; i < len(plan); i++ {
		if plan[i] <= plan[i-1] {
			t.Fatalf("plan %v is not strictly ascending", plan)
		}
	}
	m := eng.Metrics()
	if len(m.CascadePlan) == 0 || m.CascadePlanID == 0 {
		t.Fatalf("metrics carry no plan: plan=%v id=%d", m.CascadePlan, m.CascadePlanID)
	}
	for i, q := range queries {
		res, _, err := eng.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "post-replan", "KNN", res, before[i])
	}

	// An adopted deeper chain is a real plan change: the replan counter
	// moves and answers still match.
	if err := eng.adoptChain([]int{2, 8}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().CascadeReplans; got < 1 {
		t.Errorf("CascadeReplans = %d after adoptChain, want >= 1", got)
	}
	for i, q := range queries {
		res, _, err := eng.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "post-adopt", "KNN", res, before[i])
	}
}
