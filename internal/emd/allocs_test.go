//go:build !race

package emd

import (
	"math"
	"testing"
)

// Under -race sync.Pool drops a share of its Puts on purpose, so every
// few solves allocate a fresh solver state; the assertion only holds in
// an ordinary build.

// TestSolveBoundedNoAllocs pins the kernel's hot path at zero
// allocations per solve once the pooled state exists, for completed and
// for aborted solves.
func TestSolveBoundedNoAllocs(t *testing.T) {
	w := newSolveBoundedWorkload(t, 16)
	for _, thr := range []float64{math.Inf(1), w.median} {
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			solveBoundedSink += w.solve(i, thr)
			i++
		})
		if allocs != 0 {
			t.Errorf("threshold %v: %v allocs per solve, want 0", thr, allocs)
		}
	}
}
