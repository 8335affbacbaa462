package emdsearch

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"emdsearch/internal/core"
	"emdsearch/internal/data"
)

// TestHierarchyCascadeMonotoneQuick is a randomized property test
// (testing/quick) of the hierarchy cascade: for randomly chosen data
// seeds, nesting structures and reduction methods, every level of the
// cascade must lower-bound the next finer level, the finest level must
// lower-bound the exact EMD, and Engine.KNN with the Hierarchy option
// must return exactly the brute-force answer end-to-end. This is the
// chaining requirement (Section 4 of the paper) that makes the
// multi-level filter lossless.
func TestHierarchyCascadeMonotoneQuick(t *testing.T) {
	hierarchies := [][]int{{8, 4, 2}, {8, 3}, {6, 2}, {10, 5, 2}}
	methods := []ReductionMethod{Adjacent, KMedoids}
	property := func(seed int64, hierPick, methodPick uint8) bool {
		hier := hierarchies[int(hierPick)%len(hierarchies)]
		method := methods[int(methodPick)%len(methods)]
		ds, err := data.MusicSpectra(36, 16, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		vecs, queries, err := ds.Split(2)
		if err != nil {
			t.Log(err)
			return false
		}
		eng, err := NewEngine(ds.Cost, Options{Hierarchy: hier, Method: method, SampleSize: 10, Seed: seed})
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
		chain := snap.plan.reductions()
		if len(chain) != len(hier) {
			t.Logf("cascade has %d levels, want %d", len(chain), len(hier))
			return false
		}
		// Per-level monotonicity: the chain is coarsest first, so
		// distances must be non-decreasing along it and end below the
		// exact EMD.
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
						t.Logf("seed %d %v/%s: level %d dist %g below coarser level %g (item %d)",
							seed, hier, method, li, d, prev, vi)
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
					t.Logf("seed %d %v/%s: finest level %g exceeds exact EMD %g (item %d)",
						seed, hier, method, prev, exact, vi)
					return false
				}
			}
		}
		// End-to-end losslessness through Engine.KNN.
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
					t.Logf("seed %d %v/%s: KNN result %d = %+v, brute force %+v",
						seed, hier, method, i, got[i], want[i])
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
