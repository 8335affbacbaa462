package search

import (
	"math/rand"
	"testing"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
)

func TestRangeIDsValidation(t *testing.T) {
	r := NewScanRanking([]float64{1})
	if _, _, err := RangeIDs(r, func(int) float64 { return 0 }, func(int) float64 { return 0 }, -1); err == nil {
		t.Error("accepted negative eps")
	}
	// The upper bound is an optional field of the range query now: without
	// one the membership query is the plain range query.
	if ids, stats, err := RangeIDs(r, func(int) float64 { return 0 }, nil, 1); err != nil || len(ids) != 1 || stats.AcceptedByUpper != 0 {
		t.Errorf("nil upper: ids %v, stats %+v, err %v; want the plain range answer", ids, stats, err)
	}
}

func TestRangeIDsMatchesScanAndSavesRefinements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d, dr, n = 12, 4, 300
	cost := emd.CostMatrix(emd.LinearCost(d))
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.Adjacent(d, dr)
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.NewEnvelope(cost, red, red)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]emd.Histogram, n)
	reduced := make([]emd.Histogram, n)
	for i := range data {
		data[i] = randomHistogram(rng, d)
		reduced[i] = red.Apply(data[i])
	}
	q := randomHistogram(rng, d)
	qr := red.Apply(q)
	refine := func(i int) float64 { return dist.Distance(q, data[i]) }
	upperFn := func(i int) float64 { return env.Upper.DistanceReduced(qr, reduced[i]) }

	for _, eps := range []float64{0.2, 0.5, 1.0, 2.5} {
		lowers := make([]float64, n)
		for i := range lowers {
			lowers[i] = env.Lower.DistanceReduced(qr, reduced[i])
		}
		ids, stats, err := RangeIDs(NewScanRanking(lowers), refine, upperFn, eps)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]bool{}
		for i := 0; i < n; i++ {
			if refine(i) <= eps {
				want[i] = true
			}
		}
		if len(ids) != len(want) {
			t.Fatalf("eps=%g: %d ids, scan finds %d", eps, len(ids), len(want))
		}
		for _, id := range ids {
			if !want[id] {
				t.Fatalf("eps=%g: spurious id %d", eps, id)
			}
		}
		if stats.Refinements+stats.AcceptedByUpper > stats.Pulled {
			t.Fatalf("inconsistent stats: %+v", stats)
		}
		// At large eps, upper-bound acceptance must be doing real work.
		if eps >= 2.5 && stats.AcceptedByUpper == 0 && len(ids) > 10 {
			t.Errorf("eps=%g: no upper-bound acceptances despite %d results", eps, len(ids))
		}
	}
}

func TestRangeIDsSortedAscending(t *testing.T) {
	lowers := []float64{0.1, 0.05, 0.2, 0.01}
	exact := []float64{0.15, 0.07, 0.25, 0.02}
	ids, _, err := RangeIDs(NewScanRanking(lowers),
		func(i int) float64 { return exact[i] },
		func(i int) float64 { return exact[i] + 0.01 }, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not ascending: %v", ids)
		}
	}
}
