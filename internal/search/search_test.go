package search

import (
	"math/rand"
	"sort"
	"testing"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/lb"
)

func randomHistogram(rng *rand.Rand, d int) emd.Histogram {
	h := make(emd.Histogram, d)
	for i := range h {
		h[i] = rng.Float64()
		if rng.Intn(4) == 0 {
			h[i] = 0
		}
	}
	var sum float64
	for _, v := range h {
		sum += v
	}
	if sum == 0 {
		h[rng.Intn(d)] = 1
		sum = 1
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

func TestScanRankingOrdersAscending(t *testing.T) {
	dists := []float64{3, 1, 2, 1, 0}
	r := NewScanRanking(dists)
	var got []Candidate
	for {
		c, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, c)
	}
	if len(got) != 5 {
		t.Fatalf("got %d candidates, want 5", len(got))
	}
	want := []Candidate{{4, 0}, {1, 1}, {3, 1}, {2, 2}, {0, 3}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSliceRanking(t *testing.T) {
	r := NewSliceRanking([]Candidate{{0, 1}, {1, 2}})
	if c, ok := r.Next(); !ok || c.Index != 0 {
		t.Fatalf("first = %v %v", c, ok)
	}
	if c, ok := r.Next(); !ok || c.Index != 1 {
		t.Fatalf("second = %v %v", c, ok)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("exhausted ranking still yields")
	}
}

// TestChainedRankingMatchesFullSort: the chained ranking must emit all
// items in ascending second-filter order whenever f1 <= f2.
func TestChainedRankingMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200
	f1 := make([]float64, n)
	f2 := make([]float64, n)
	for i := 0; i < n; i++ {
		f1[i] = rng.Float64() * 5
		f2[i] = f1[i] + rng.Float64()*2 // f2 dominates f1
	}
	cr := NewChainedRanking(NewScanRanking(f1), plainSecond(func(i int) float64 { return f2[i] }), nil)

	var emitted []Candidate
	for {
		c, ok := cr.Next()
		if !ok {
			break
		}
		emitted = append(emitted, c)
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d, want %d", len(emitted), n)
	}
	for i := 1; i < n; i++ {
		if emitted[i].Dist < emitted[i-1].Dist {
			t.Fatalf("out of order at %d: %g after %g", i, emitted[i].Dist, emitted[i-1].Dist)
		}
	}
	// Every index exactly once.
	seen := make([]bool, n)
	for _, c := range emitted {
		if seen[c.Index] {
			t.Fatalf("index %d emitted twice", c.Index)
		}
		seen[c.Index] = true
	}
}

// TestChainedRankingIsLazy: pulling only the single best item must not
// evaluate the second filter on the whole database.
func TestChainedRankingIsLazy(t *testing.T) {
	const n = 1000
	f1 := make([]float64, n)
	for i := range f1 {
		f1[i] = float64(i) // well separated
	}
	cr := NewChainedRanking(NewScanRanking(f1), plainSecond(func(i int) float64 { return f1[i] + 0.5 }), nil)
	if _, ok := cr.Next(); !ok {
		t.Fatal("empty ranking")
	}
	if cr.Evaluations > 3 {
		t.Errorf("second filter evaluated %d times for one pull, want <= 3", cr.Evaluations)
	}
}

func TestChainedRankingEmptyBase(t *testing.T) {
	cr := NewChainedRanking(NewScanRanking(nil), plainSecond(func(i int) float64 { return 0 }), nil)
	if _, ok := cr.Next(); ok {
		t.Fatal("chained ranking over empty base yielded a candidate")
	}
}

func TestKNNValidation(t *testing.T) {
	r := NewScanRanking([]float64{1})
	if _, _, err := KNN(r, func(int) float64 { return 0 }, 0); err == nil {
		t.Error("accepted k = 0")
	}
	if _, _, err := Range(r, func(int) float64 { return 0 }, -1); err == nil {
		t.Error("accepted negative eps")
	}
	if _, _, err := LinearScanKNN(1, func(int) float64 { return 0 }, 0); err == nil {
		t.Error("linear scan accepted k = 0")
	}
}

func TestKNNFewerItemsThanK(t *testing.T) {
	dists := []float64{0.5, 0.1}
	exact := []float64{0.7, 0.3}
	res, stats, err := KNN(NewScanRanking(dists), func(i int) float64 { return exact[i] }, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].Index != 1 || res[1].Index != 0 {
		t.Fatalf("order wrong: %v", res)
	}
	if stats.Refinements != 2 {
		t.Errorf("refinements = %d, want 2", stats.Refinements)
	}
}

// TestKNNMatchesLinearScanWithRealEMD is the completeness test at the
// heart of the paper: multistep KNOP with a reduced-EMD filter returns
// exactly the same neighbors as an exhaustive scan.
func TestKNNMatchesLinearScanWithRealEMD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const d, dr, n = 12, 4, 150
	cost := emd.CostMatrix(emd.LinearCost(d))
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.Adjacent(d, dr)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := core.NewReducedEMD(cost, red, red)
	if err != nil {
		t.Fatal(err)
	}

	data := make([]emd.Histogram, n)
	reducedData := make([]emd.Histogram, n)
	for i := range data {
		data[i] = randomHistogram(rng, d)
		reducedData[i] = red.Apply(data[i])
	}

	for trial := 0; trial < 5; trial++ {
		q := randomHistogram(rng, d)
		qr := red.Apply(q)
		refine := func(i int) float64 { return dist.Distance(q, data[i]) }

		filterDists := make([]float64, n)
		for i := 0; i < n; i++ {
			filterDists[i] = reduced.DistanceReduced(qr, reducedData[i])
		}
		for _, k := range []int{1, 5, 20} {
			got, stats, err := KNN(NewScanRanking(filterDists), refine, k)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := LinearScanKNN(n, refine, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist {
					t.Fatalf("k=%d result %d: got %v, want %v", k, i, got[i], want[i])
				}
			}
			if stats.Refinements > n {
				t.Errorf("k=%d: %d refinements exceed database size %d", k, stats.Refinements, n)
			}
			if stats.Refinements < k {
				t.Errorf("k=%d: only %d refinements", k, stats.Refinements)
			}
		}
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const d, n = 8, 120
	cost := emd.CostMatrix(emd.LinearCost(d))
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.Adjacent(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := core.NewReducedEMD(cost, red, red)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]emd.Histogram, n)
	for i := range data {
		data[i] = randomHistogram(rng, d)
	}
	q := randomHistogram(rng, d)
	refine := func(i int) float64 { return dist.Distance(q, data[i]) }
	filterDists := make([]float64, n)
	for i := range filterDists {
		filterDists[i] = reduced.Distance(q, data[i])
	}

	for _, eps := range []float64{0, 0.3, 0.8, 2.0} {
		got, _, err := Range(NewScanRanking(filterDists), refine, eps)
		if err != nil {
			t.Fatal(err)
		}
		var want []Result
		for i := 0; i < n; i++ {
			if d := refine(i); d <= eps {
				want = append(want, Result{Index: i, Dist: d})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Dist != want[j].Dist {
				return want[i].Dist < want[j].Dist
			}
			return want[i].Index < want[j].Index
		})
		if len(got) != len(want) {
			t.Fatalf("eps=%g: got %d results, want %d", eps, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("eps=%g result %d: got %v, want %v", eps, i, got[i], want[i])
			}
		}
	}
}

// TestSearcherChainedPipeline wires the full Figure 10 setup — Red-IM
// then Red-EMD then exact EMD — and checks exactness plus the expected
// monotone decrease of evaluations along the chain.
func TestSearcherChainedPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d, dr, n, k = 16, 4, 200, 10
	cost := emd.CostMatrix(emd.LinearCost(d))
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.Adjacent(d, dr)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := core.NewReducedEMD(cost, red, red)
	if err != nil {
		t.Fatal(err)
	}
	im, err := lb.NewIM(reduced.Cost())
	if err != nil {
		t.Fatal(err)
	}

	data := make([]emd.Histogram, n)
	reducedData := make([]emd.Histogram, n)
	for i := range data {
		data[i] = randomHistogram(rng, d)
		reducedData[i] = red.Apply(data[i])
	}

	searcher := &Searcher{
		N: n,
		Stages: []FilterStage{
			{
				Name:         "Red-IM",
				PrepareQuery: red.Apply,
				Distance:     Exact(func(qr emd.Histogram, i int) float64 { return im.Distance(qr, reducedData[i]) }),
			},
			{
				Name:         "Red-EMD",
				PrepareQuery: red.Apply,
				Distance:     Exact(func(qr emd.Histogram, i int) float64 { return reduced.DistanceReduced(qr, reducedData[i]) }),
			},
		},
		Refine: ExactRefine(func(q emd.Histogram, i int) float64 { return dist.Distance(q, data[i]) }),
	}
	scan := &Searcher{
		N:      n,
		Refine: searcher.Refine,
	}

	var totalRefine, totalStage2 int
	for trial := 0; trial < 5; trial++ {
		q := randomHistogram(rng, d)
		got, stats, err := searcherKNN(searcher, q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, scanStats, err := searcherKNN(scan, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if scanStats.Refinements != n {
			t.Fatalf("scan refined %d of %d", scanStats.Refinements, n)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d results, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist {
				t.Fatalf("result %d: got %v, want %v", i, got[i], want[i])
			}
		}
		if len(stats.StageEvaluations) != 2 {
			t.Fatalf("stage evaluations: %v", stats.StageEvaluations)
		}
		if stats.StageEvaluations[0] != n {
			t.Errorf("first stage evaluated %d, want %d", stats.StageEvaluations[0], n)
		}
		if stats.StageEvaluations[1] > n {
			t.Errorf("second stage evaluated %d > n", stats.StageEvaluations[1])
		}
		if stats.Refinements > stats.StageEvaluations[1] {
			t.Errorf("refinements %d exceed second-stage evaluations %d",
				stats.Refinements, stats.StageEvaluations[1])
		}
		totalRefine += stats.Refinements
		totalStage2 += stats.StageEvaluations[1]
	}
	// The chain must actually prune: across queries, the pipeline
	// refines far fewer than everything.
	if totalRefine >= 5*n {
		t.Errorf("pipeline refined everything (%d refinements over 5 queries)", totalRefine)
	}
	if totalStage2 >= 5*n {
		t.Errorf("Red-EMD stage evaluated everything (%d over 5 queries)", totalStage2)
	}
}

func TestSearcherRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const d, n = 10, 100
	cost := emd.CostMatrix(emd.LinearCost(d))
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.Adjacent(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := core.NewReducedEMD(cost, red, red)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]emd.Histogram, n)
	reducedData := make([]emd.Histogram, n)
	for i := range data {
		data[i] = randomHistogram(rng, d)
		reducedData[i] = red.Apply(data[i])
	}
	s := &Searcher{
		N: n,
		Stages: []FilterStage{{
			Name:         "Red-EMD",
			PrepareQuery: red.Apply,
			Distance:     Exact(func(qr emd.Histogram, i int) float64 { return reduced.DistanceReduced(qr, reducedData[i]) }),
		}},
		Refine: ExactRefine(func(q emd.Histogram, i int) float64 { return dist.Distance(q, data[i]) }),
	}
	q := randomHistogram(rng, d)
	got, _, err := searcherRange(s, q, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for i := 0; i < n; i++ {
		if dd := dist.Distance(q, data[i]); dd <= 0.75 {
			want = append(want, Result{Index: i, Dist: dd})
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Dist < want[j].Dist })
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index {
			t.Fatalf("result %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSearcherNoRefine(t *testing.T) {
	s := &Searcher{N: 3}
	if _, _, err := searcherKNN(s, emd.Histogram{1}, 1); err == nil {
		t.Error("KNN without Refine succeeded")
	}
	if _, _, err := searcherRange(s, emd.Histogram{1}, 1); err == nil {
		t.Error("Range without Refine succeeded")
	}
}

func TestKNNTieHandling(t *testing.T) {
	// Three items at the same exact distance; k=2 must pick the two
	// smallest indices deterministically.
	exact := []float64{0.5, 0.5, 0.5, 0.9}
	filter := []float64{0.1, 0.1, 0.1, 0.1}
	got, _, err := KNN(NewScanRanking(filter), func(i int) float64 { return exact[i] }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Index != 0 || got[1].Index != 1 {
		t.Fatalf("tie handling: got %v, want indices 0, 1", got)
	}
}

// TestChainedRankingNonDominatingFilters: the max-combination makes
// the chain correct even when the second filter does NOT dominate the
// first item-wise (e.g. a centroid bound after Red-IM).
func TestChainedRankingNonDominatingFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 300
	exact := make([]float64, n)
	f1 := make([]float64, n)
	f2 := make([]float64, n)
	for i := 0; i < n; i++ {
		exact[i] = 1 + rng.Float64()*9
		// Both are lower bounds of exact, neither dominates the other.
		f1[i] = exact[i] * (0.2 + 0.6*rng.Float64())
		f2[i] = exact[i] * (0.2 + 0.6*rng.Float64())
	}
	cr := NewChainedRanking(NewScanRanking(f1), plainSecond(func(i int) float64 { return f2[i] }), nil)
	// Emitted distances must be valid lower bounds of exact, ascending,
	// covering every index once.
	prev := -1.0
	seen := make([]bool, n)
	for {
		c, ok := cr.Next()
		if !ok {
			break
		}
		if c.Dist < prev-1e-12 {
			t.Fatalf("out of order: %g after %g", c.Dist, prev)
		}
		prev = c.Dist
		if c.Dist > exact[c.Index]+1e-12 {
			t.Fatalf("emitted dist %g exceeds exact %g", c.Dist, exact[c.Index])
		}
		if seen[c.Index] {
			t.Fatalf("index %d emitted twice", c.Index)
		}
		seen[c.Index] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d never emitted", i)
		}
	}
	// And KNOP over the chain yields the exact kNN.
	got, _, err := KNN(NewChainedRanking(NewScanRanking(f1), plainSecond(func(i int) float64 { return f2[i] }), nil),
		func(i int) float64 { return exact[i] }, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := LinearScanKNN(n, func(i int) float64 { return exact[i] }, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
