package search

import (
	"math/rand"
	"sort"
	"testing"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/lb"
)

func TestApproxKNNValidation(t *testing.T) {
	r := NewScanRanking([]float64{1})
	if _, _, err := ApproxKNN(r, func(int) float64 { return 0 }, 0); err == nil {
		t.Error("accepted k=0")
	}
	if _, _, err := ApproxKNN(r, nil, 1); err == nil {
		t.Error("accepted nil upper bound")
	}
	empty := NewScanRanking(nil)
	res, cert, err := ApproxKNN(empty, func(int) float64 { return 0 }, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || cert.Pulled != 0 {
		t.Errorf("empty ranking: %v %v", res, cert)
	}
}

// TestApproxKNNGuarantees verifies the certificate against ground
// truth on real EMD envelopes: every returned object's exact distance
// is <= UpperK, the true k-th distance lies in [LowerK, UpperK], and
// the intervals contain the exact values.
func TestApproxKNNGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const d, dr, n, k = 16, 6, 200, 7
	cost := emd.CostMatrix(emd.LinearCost(d))
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.Adjacent(d, dr)
	if err != nil {
		t.Fatal(err)
	}
	lower, err := core.NewReducedEMD(cost, red, red)
	if err != nil {
		t.Fatal(err)
	}
	upper, err := lb.NewGreedyUpper(cost)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]emd.Histogram, n)
	reduced := make([]emd.Histogram, n)
	for i := range data {
		data[i] = randomHistogram(rng, d)
		reduced[i] = red.Apply(data[i])
	}

	for trial := 0; trial < 5; trial++ {
		q := randomHistogram(rng, d)
		qr := red.Apply(q)
		lowers := make([]float64, n)
		for i := range lowers {
			lowers[i] = lower.DistanceReduced(qr, reduced[i])
		}
		results, cert, err := ApproxKNN(NewScanRanking(lowers), func(i int) float64 {
			return upper.Distance(q, data[i])
		}, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != k {
			t.Fatalf("returned %d results, want %d", len(results), k)
		}
		// Ground truth.
		exact := make([]float64, n)
		for i := range exact {
			exact[i] = dist.Distance(q, data[i])
		}
		sortedExact := append([]float64(nil), exact...)
		sort.Float64s(sortedExact)
		trueKth := sortedExact[k-1]

		if trueKth < cert.LowerK-1e-9 || trueKth > cert.UpperK+1e-9 {
			t.Fatalf("true k-th %g outside certificate [%g, %g]", trueKth, cert.LowerK, cert.UpperK)
		}
		for _, iv := range results {
			e := exact[iv.Index]
			if e < iv.Lower-1e-9 || e > iv.Upper+1e-9 {
				t.Fatalf("object %d exact %g outside interval [%g, %g]", iv.Index, e, iv.Lower, iv.Upper)
			}
			if e > cert.UpperK+1e-9 {
				t.Fatalf("returned object %d exact %g above UpperK %g", iv.Index, e, cert.UpperK)
			}
		}
		if cert.Pulled > n {
			t.Fatalf("pulled %d of %d", cert.Pulled, n)
		}
	}
}

// TestApproxKNNPullsPrefixOnly: with a tight envelope the query must
// stop far before scanning everything.
func TestApproxKNNPullsPrefixOnly(t *testing.T) {
	const n, k = 1000, 5
	lowers := make([]float64, n)
	for i := range lowers {
		lowers[i] = float64(i)
	}
	// Upper = lower + 0.5: after pulling ~k+1 candidates the next
	// lower bound exceeds the k-th upper bound.
	results, cert, err := ApproxKNN(NewScanRanking(lowers), func(i int) float64 {
		return float64(i) + 0.5
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != k {
		t.Fatalf("returned %d", len(results))
	}
	if cert.Pulled > 2*k {
		t.Errorf("pulled %d candidates for a k=%d query with tight bounds", cert.Pulled, k)
	}
	for i, iv := range results {
		if iv.Index != i {
			t.Errorf("result %d: index %d", i, iv.Index)
		}
	}
}

// TestApproxKNNExactWhenBoundsCoincide: under the identity reduction
// the lower bound is the exact EMD; with the exact EMD as the upper
// bound too, the approximate answer IS the exact answer with a
// zero-width certificate.
func TestApproxKNNExactWhenBoundsCoincide(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const d, n, k = 8, 80, 5
	cost := emd.CostMatrix(emd.LinearCost(d))
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	id := core.Identity(d)
	lower, err := core.NewReducedEMD(cost, id, id)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]emd.Histogram, n)
	for i := range data {
		data[i] = randomHistogram(rng, d)
	}
	q := randomHistogram(rng, d)
	lowers := make([]float64, n)
	for i := range lowers {
		lowers[i] = lower.Distance(q, data[i])
	}
	results, cert, err := ApproxKNN(NewScanRanking(lowers), func(i int) float64 {
		return dist.Distance(q, data[i])
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := LinearScanKNN(n, func(i int) float64 { return dist.Distance(q, data[i]) }, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if results[i].Index != want[i].Index {
			t.Fatalf("result %d: got %d, want %d", i, results[i].Index, want[i].Index)
		}
	}
	if cert.UpperK-cert.LowerK > 1e-9 {
		t.Errorf("identity certificate has width %g", cert.UpperK-cert.LowerK)
	}
}
