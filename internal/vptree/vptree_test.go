package vptree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"emdsearch/internal/emd"
	"emdsearch/internal/vecmath"
)

// euclidean test fixture: n random points in the plane.
func fixture(n int, seed int64) ([][]float64, DistFunc) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	return pts, func(i, j int) float64 { return vecmath.L2(pts[i], pts[j]) }
}

func bruteKNN(pts [][]float64, q []float64, k int) []Result {
	all := make([]Result, len(pts))
	for i := range pts {
		all[i] = Result{Index: i, Dist: vecmath.L2(q, pts[i])}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Index < all[j].Index
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestBuildValidation(t *testing.T) {
	_, dist := fixture(4, 1)
	if _, err := Build(-1, dist, rand.New(rand.NewSource(1))); err == nil {
		t.Error("accepted negative size")
	}
	if _, err := Build(4, dist, nil); err == nil {
		t.Error("accepted nil rng")
	}
	tree, err := Build(0, dist, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := tree.KNN(func(int) float64 { return 0 }, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty tree returned %d results", len(res))
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	pts, dist := fixture(500, 3)
	tree, err := Build(len(pts), dist, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64() * 10, rng.Float64() * 10}
		qd := func(i int) float64 { return vecmath.L2(q, pts[i]) }
		for _, k := range []int{1, 5, 17} {
			got, stats, err := tree.KNN(qd, k)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteKNN(pts, q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
					t.Fatalf("k=%d result %d: got %+v, want %+v", k, i, got[i], want[i])
				}
			}
			if stats.DistanceCalls > len(pts) {
				t.Errorf("more distance calls (%d) than points (%d)", stats.DistanceCalls, len(pts))
			}
		}
	}
}

func TestKNNPrunesOnLowDimensionalData(t *testing.T) {
	// In 2-D the tree must evaluate far fewer distances than a scan.
	pts, dist := fixture(2000, 5)
	tree, err := Build(len(pts), dist, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{5, 5}
	_, stats, err := tree.KNN(func(i int) float64 { return vecmath.L2(q, pts[i]) }, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DistanceCalls > len(pts)/2 {
		t.Errorf("2-D VP-tree evaluated %d of %d distances; expected substantial pruning",
			stats.DistanceCalls, len(pts))
	}
}

func TestQueryValidation(t *testing.T) {
	pts, dist := fixture(10, 1)
	tree, _ := Build(len(pts), dist, rand.New(rand.NewSource(1)))
	if _, _, err := tree.KNN(func(int) float64 { return 0 }, 0); err == nil {
		t.Error("accepted k=0")
	}
}

// TestEMDMetricTree: the tree must be exact over the EMD with a metric
// ground distance, the setting of the Fig23 extension experiment.
func TestEMDMetricTree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const d, n = 8, 120
	cost := emd.LinearCost(d)
	if !cost.IsMetric(1e-12) {
		t.Fatal("fixture ground distance not metric")
	}
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	hists := make([]emd.Histogram, n)
	for i := range hists {
		h := make(emd.Histogram, d)
		for b := range h {
			h[b] = rng.Float64()
		}
		hists[i] = vecmath.Normalize(h)
	}
	tree, err := Build(n, func(i, j int) float64 { return dist.Distance(hists[i], hists[j]) }, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := hists[0]
	qd := func(i int) float64 { return dist.Distance(q, hists[i]) }
	got, _, err := tree.KNN(qd, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force.
	all := make([]Result, n)
	for i := 0; i < n; i++ {
		all[i] = Result{Index: i, Dist: qd(i)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Index < all[j].Index
	})
	for i := 0; i < 5; i++ {
		if got[i].Index != all[i].Index {
			t.Fatalf("EMD VP-tree result %d: got %+v, want %+v", i, got[i], all[i])
		}
	}
}

func TestTreeLen(t *testing.T) {
	pts, dist := fixture(42, 1)
	tree, _ := Build(len(pts), dist, rand.New(rand.NewSource(1)))
	if tree.Len() != 42 {
		t.Errorf("Len = %d, want 42", tree.Len())
	}
}
