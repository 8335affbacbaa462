package search

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// simulatedRefine wraps exact distances in a BoundedRefine with a
// perfect certificate: a candidate aborts exactly when its true
// distance exceeds the threshold, returning a bound just above it.
// This is the strongest certificate the contract allows, so results
// must still be identical to the plain algorithms'.
func simulatedRefine(exact []float64) BoundedRefine {
	return func(i int, abortAbove float64) Refinement {
		d := exact[i]
		if d > abortAbove {
			// Any certified bound in (abortAbove, d] is contract-legal;
			// return something strictly below the true distance to
			// check that aborted bounds are never used as distances.
			bound := math.Nextafter(abortAbove, math.Inf(1))
			if bound > d {
				bound = d
			}
			return Refinement{Dist: bound, Aborted: true, Rows: 1, Cols: 1}
		}
		return Refinement{Dist: d, Rows: 2, Cols: 3}
	}
}

func randomInstance(rng *rand.Rand, n int) (filter, exact []float64) {
	filter = make([]float64, n)
	exact = make([]float64, n)
	for i := range exact {
		exact[i] = rng.Float64() * 10
		filter[i] = exact[i] * rng.Float64() // lower bound
	}
	return filter, exact
}

// TestKNNBoundedMatchesKNN checks that an aggressively aborting
// refinement yields exactly the plain KNN results, and that the abort
// and shape counters flow into the stats.
func TestKNNBoundedMatchesKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 30 + rng.Intn(100)
		filter, exact := randomInstance(rng, n)
		for _, k := range []int{1, 3, 10} {
			want, _, err := KNN(NewScanRanking(filter), func(i int) float64 { return exact[i] }, k)
			if err != nil {
				t.Fatalf("KNN: %v", err)
			}
			got, stats, err := KNNBounded(NewScanRanking(filter), simulatedRefine(exact), k)
			if err != nil {
				t.Fatalf("KNNBounded: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d results, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d pos %d: got %v, want %v", trial, k, i, got[i], want[i])
				}
			}
			if stats.Refinements == 0 || stats.RefineRows == 0 || stats.RefineCols == 0 {
				t.Fatalf("trial %d k=%d: refinement counters not recorded: %+v", trial, k, stats)
			}
			if stats.RefinesAborted > stats.Refinements {
				t.Fatalf("trial %d k=%d: aborted %d > refinements %d",
					trial, k, stats.RefinesAborted, stats.Refinements)
			}
		}
	}
}

// TestRangeBoundedMatchesRange is the range-query analogue.
func TestRangeBoundedMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 30 + rng.Intn(100)
		filter, exact := randomInstance(rng, n)
		eps := rng.Float64() * 8
		want, _, err := Range(NewScanRanking(filter), func(i int) float64 { return exact[i] }, eps)
		if err != nil {
			t.Fatalf("Range: %v", err)
		}
		got, stats, err := RangeBounded(NewScanRanking(filter), simulatedRefine(exact), eps)
		if err != nil {
			t.Fatalf("RangeBounded: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d pos %d: got %v, want %v", trial, i, got[i], want[i])
			}
		}
		if stats.RefinesAborted > stats.Refinements {
			t.Fatalf("trial %d: aborted %d > refinements %d", trial, stats.RefinesAborted, stats.Refinements)
		}
	}
}

// TestParallelKNNBoundedMatchesSequential runs the parallel bounded
// algorithm against the sequential one with the aborting refinement:
// results must be identical regardless of scheduling.
func TestParallelKNNBoundedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 50 + rng.Intn(150)
		filter, exact := randomInstance(rng, n)
		for _, k := range []int{1, 5, 12} {
			want, _, err := KNNBounded(NewScanRanking(filter), simulatedRefine(exact), k)
			if err != nil {
				t.Fatalf("KNNBounded: %v", err)
			}
			for _, workers := range []int{2, 4, 7} {
				got, stats, err := ParallelKNNBounded(NewScanRanking(filter), simulatedRefine(exact), k, workers)
				if err != nil {
					t.Fatalf("ParallelKNNBounded: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d w=%d: %d results, want %d", trial, k, workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d k=%d w=%d pos %d: got %v, want %v",
							trial, k, workers, i, got[i], want[i])
					}
				}
				if stats.Workers != workers {
					t.Fatalf("trial %d: stats.Workers = %d, want %d", trial, stats.Workers, workers)
				}
			}
		}
	}
}

// TestParallelRangeBoundedMatchesSequential is the range analogue.
func TestParallelRangeBoundedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 50 + rng.Intn(150)
		filter, exact := randomInstance(rng, n)
		eps := rng.Float64() * 8
		want, _, err := RangeBounded(NewScanRanking(filter), simulatedRefine(exact), eps)
		if err != nil {
			t.Fatalf("RangeBounded: %v", err)
		}
		got, _, err := ParallelRangeBounded(NewScanRanking(filter), simulatedRefine(exact), eps, 4)
		if err != nil {
			t.Fatalf("ParallelRangeBounded: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d pos %d: got %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestKNNBoundedNeverAbortsBelowK checks that no abort can happen while
// fewer than k neighbors are known (threshold is +Inf), so the bounded
// algorithm degenerates to plain KNN on small databases.
func TestKNNBoundedNeverAbortsBelowK(t *testing.T) {
	filter := []float64{1, 2, 3}
	exact := []float64{4, 5, 6}
	aborts := 0
	refine := func(i int, abortAbove float64) Refinement {
		if !math.IsInf(abortAbove, 1) && exact[i] > abortAbove {
			aborts++
			return Refinement{Dist: abortAbove + 1, Aborted: true}
		}
		return Refinement{Dist: exact[i]}
	}
	got, _, err := KNNBounded(NewScanRanking(filter), refine, 5)
	if err != nil {
		t.Fatalf("KNNBounded: %v", err)
	}
	if len(got) != 3 || aborts != 0 {
		t.Fatalf("got %d results, %d aborts; want 3 and 0", len(got), aborts)
	}
	wantOrder := []Result{{0, 4}, {1, 5}, {2, 6}}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
		t.Fatalf("results not sorted: %v", got)
	}
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("pos %d: got %v, want %v", i, got[i], wantOrder[i])
		}
	}
}
