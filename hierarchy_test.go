package emdsearch

import (
	"math"
	"slices"
	"testing"

	"emdsearch/internal/data"
)

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewEngine(LinearCost(16), Options{Hierarchy: []int{8, 20}}); err == nil {
		t.Error("accepted level > d")
	}
	if _, err := NewEngine(LinearCost(16), Options{Hierarchy: []int{8, 8}}); err == nil {
		t.Error("accepted duplicate levels")
	}
	if _, err := NewEngine(LinearCost(16), Options{Hierarchy: []int{8, 2}, ReducedDims: 4}); err == nil {
		t.Error("accepted conflicting ReducedDims")
	}
	eng, err := NewEngine(LinearCost(16), Options{Hierarchy: []int{2, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if dims := eng.plan.dims(); !slices.Equal(dims, []int{2, 8}) {
		t.Errorf("chain %v, want [2 8]", dims)
	}
}

func TestHierarchyExactAcrossMethods(t *testing.T) {
	ds, err := data.Retina(160, 7)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewEngine(ds.Cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		scan.Add(ds.Items[i].Label, h)
	}

	for _, m := range []ReductionMethod{FBAll, KMedoids, Adjacent} {
		t.Run(string(m), func(t *testing.T) {
			eng, err := NewEngine(ds.Cost, Options{
				Hierarchy:  []int{32, 8, 2},
				Method:     m,
				SampleSize: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range vecs {
				eng.Add(ds.Items[i].Label, h)
			}
			if err := eng.Build(); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				got, stats, err := eng.KNN(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := scan.KNN(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
					}
				}
				// Stage count: Q-Red-IM + Red-IM + one Red-EMD per level.
				if len(stats.StageEvaluations) != 5 {
					t.Fatalf("stage evaluations: %v, want 5 stages", stats.StageEvaluations)
				}
				// Finer stages run on fewer items than the coarse scan.
				if stats.StageEvaluations[4] > stats.StageEvaluations[0] {
					t.Errorf("finest stage evaluated more than the base scan: %v", stats.StageEvaluations)
				}
			}
		})
	}
}

// TestHierarchyCascadeIsNested: every coarser level's groups must be
// unions of the finer level's groups (the property the chain ordering
// rests on).
func TestHierarchyCascadeIsNested(t *testing.T) {
	ds, err := data.MusicSpectra(80, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds.Cost, Options{
		Hierarchy:  []int{16, 4},
		Method:     FBAll,
		SampleSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range ds.Histograms() {
		eng.Add(ds.Items[i].Label, h)
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	chain := eng.plan.reductions() // coarse→fine
	if len(chain) != 2 {
		t.Fatalf("cascade has %d levels, want 2", len(chain))
	}
	fine := chain[1].Assignment()
	coarse := chain[0].Assignment()
	// Two dimensions sharing a fine group must share the coarse group.
	for i := range fine {
		for j := i + 1; j < len(fine); j++ {
			if fine[i] == fine[j] && coarse[i] != coarse[j] {
				t.Fatalf("nesting violated: dims %d, %d share fine group %d but coarse groups %d, %d",
					i, j, fine[i], coarse[i], coarse[j])
			}
		}
	}
}

func TestHierarchySingleLevelEqualsPlain(t *testing.T) {
	// Hierarchy with one level behaves exactly like ReducedDims alone.
	ds, err := data.MusicSpectra(60, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewEngine(ds.Cost, Options{Hierarchy: []int{8}, SampleSize: 16, Seed: 3})
	b, _ := NewEngine(ds.Cost, Options{ReducedDims: 8, SampleSize: 16, Seed: 3})
	for i, h := range vecs {
		a.Add(ds.Items[i].Label, h)
		b.Add(ds.Items[i].Label, h)
	}
	if err := a.Build(); err != nil {
		t.Fatal(err)
	}
	if err := b.Build(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		ga, _, err := a.KNN(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		gb, _, err := b.KNN(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gb {
			if ga[i] != gb[i] {
				t.Fatalf("result %d: %+v vs %+v", i, ga[i], gb[i])
			}
		}
	}
}

func TestHierarchyWithIndexedCentroidBase(t *testing.T) {
	// Cascade stages chained over the k-d tree centroid base ranking:
	// every component of the pipeline composed at once, still exact.
	ds, err := data.ColorImages(140, 11)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds.Cost, Options{
		Hierarchy:  []int{16, 4},
		SampleSize: 16,
		Positions:  ds.Positions,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewEngine(ds.Cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		eng.Add(ds.Items[i].Label, h)
		scan.Add(ds.Items[i].Label, h)
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, stats, err := eng.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := scan.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
		// All stages lazy over the indexed base.
		for si, e := range stats.StageEvaluations {
			if e >= eng.Len() {
				t.Errorf("stage %d evaluated all %d items", si, e)
			}
		}
	}
}
