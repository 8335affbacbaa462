package emdsearch

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"emdsearch/internal/core"
	"emdsearch/internal/data"
)

// The cascade-plan bit-identity suite. A deeper chain redistributes
// filter work across levels but every level lower-bounds the next, so
// candidate order by the running-max key, refinement counts, and every
// returned distance must be byte-identical across chains — the chain
// may only ever change *where* time is spent, never *what* is
// answered.

// cascadeVariant is one engine configuration whose answers must match
// the single-level reference bit for bit.
type cascadeVariant struct {
	name string
	opts Options
}

func cascadeVariants() []cascadeVariant {
	return []cascadeVariant{
		{"single-level", Options{ReducedDims: 8, SampleSize: 10}},
		{"hier-2level", Options{Hierarchy: []int{8, 2}, SampleSize: 10}},
		{"hier-3level", Options{Hierarchy: []int{8, 4, 2}, SampleSize: 10}},
	}
}

func buildCascadeVariant(t *testing.T, v cascadeVariant, n int) (*Engine, []Histogram) {
	t.Helper()
	eng, queries := buildEngine(t, v.opts, n)
	for _, id := range []int{7, 23} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return eng, queries
}

// TestCascadePlanBitIdentity extends the cross-layout suite to cascade
// plans: full-ranking Float64bits equality and identical Refinements
// counts across hierarchies of one, two and three levels. Every variant
// shares the same finest d'=8 reduction (Build derives the finest level
// first, from the same seed), so even the exact-EMD work counters must
// agree — the coarser levels may only pre-prune what the finest bound
// would have pruned anyway.
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
// over the chains an engine adopts from Options.Hierarchy: for random
// level subsets derived with the default flow-based method, every
// level's distance must lower-bound the next finer level, the finest
// must lower-bound the exact EMD, and KNN must equal brute force. This
// is the invariant that lets any configured chain run without ever
// changing an answer.
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
		eng, err := NewEngine(ds.Cost, Options{Hierarchy: levels, SampleSize: 10, Seed: seed})
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
