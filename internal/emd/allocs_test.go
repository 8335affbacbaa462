//go:build !race

package emd

import (
	"math"
	"testing"
)

// Under -race sync.Pool drops a share of its Puts on purpose, so every
// few solves allocate a fresh solver state, whose empty dual cache
// changes which solves pre-abort; the assertions below only hold in an
// ordinary build.

// TestSolveBoundedNoAllocs pins the kernel's hot path at zero
// allocations per solve once the pooled state exists, for completed and
// for aborted solves, through both the canonical and the lower-bound
// exit.
func TestSolveBoundedNoAllocs(t *testing.T) {
	w := newSolveBoundedWorkload(t, 16)
	for name, solve := range map[string]func(int, float64) float64{"canonical": w.solve, "lower": w.solveLower} {
		for _, thr := range []float64{math.Inf(1), w.median} {
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				solveBoundedSink += solve(i, thr)
				i++
			})
			if allocs != 0 {
				t.Errorf("%s exit, threshold %v: %v allocs per solve, want 0", name, thr, allocs)
			}
		}
	}
}

// TestLowerBoundAbortsLikeDistanceBounded walks the benchmark ring at
// the median threshold, alternating which exit solves a pair first.
// The exits differ only after a solve completes, and an aborted solve
// leaves the pooled state's cached duals as they were, so whenever the
// first call aborts, the second — on the same state — must abort too,
// on the same bits and at the same solved shape.
func TestLowerBoundAbortsLikeDistanceBounded(t *testing.T) {
	for _, d := range []int{8, 16, 32, 64} {
		w := newSolveBoundedWorkload(t, d)
		canonical := func(x, y Histogram) BoundedDistance { return w.dist.DistanceBounded(x, y, w.median) }
		lower := func(x, y Histogram) BoundedDistance { return w.dist.LowerBound(x, y, w.median) }
		aborted := 0
		for i := 0; i < 4*len(w.pairs); i++ {
			p := w.pairs[i%len(w.pairs)]
			first, second := canonical, lower
			if i%2 == 1 {
				first, second = lower, canonical
			}
			a := first(p[0], p[1])
			if !a.Aborted {
				continue
			}
			aborted++
			if b := second(p[0], p[1]); !b.Aborted || math.Float64bits(a.Value) != math.Float64bits(b.Value) || a.Rows != b.Rows || a.Cols != b.Cols {
				t.Fatalf("d=%d solve %d: first exit %+v, second %+v", d, i, a, b)
			}
		}
		if aborted < len(w.pairs) {
			t.Fatalf("d=%d: only %d of %d solves aborted at the median threshold", d, aborted, 4*len(w.pairs))
		}
	}
}
