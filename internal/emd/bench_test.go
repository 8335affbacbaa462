package emd

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// solveBoundedWorkload is the input of BenchmarkSolveBounded: a
// compiled distance over LinearCost(d) and a ring of random histogram
// pairs in which no histogram occurs twice, so no two consecutive
// solves share a marginal (the solver's cached duals always come from
// an unrelated problem). median is the median EMD over the pairs.
type solveBoundedWorkload struct {
	dist   *Dist
	pairs  [][2]Histogram
	median float64
}

func newSolveBoundedWorkload(tb testing.TB, d int) solveBoundedWorkload {
	tb.Helper()
	dist, err := NewDist(LinearCost(d))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(d)))
	random := func() Histogram {
		h := make(Histogram, d)
		for i := range h {
			h[i] = rng.Float64()
		}
		return Normalize(h)
	}
	w := solveBoundedWorkload{dist: dist, pairs: make([][2]Histogram, 64)}
	opt := make([]float64, len(w.pairs))
	for i := range w.pairs {
		w.pairs[i] = [2]Histogram{random(), random()}
		opt[i] = dist.Distance(w.pairs[i][0], w.pairs[i][1])
	}
	sort.Float64s(opt)
	w.median = opt[len(opt)/2]
	return w
}

// solve runs the i-th solve of the ring against the given threshold
// (+Inf is what Dist.Distance passes).
func (w solveBoundedWorkload) solve(i int, abortAbove float64) float64 {
	p := w.pairs[i%len(w.pairs)]
	return w.dist.DistanceBounded(p[0], p[1], abortAbove).Value
}

var solveBoundedSink float64

// BenchmarkSolveBounded prices one call into the transport kernel the
// way the engine makes it — through a compiled Dist — at the shapes the
// pipeline solves (reduced 8 and 16, full 32 and 64). "exact" runs
// every solve to optimality (index distance calls, Red-EMD filter
// evaluations); "abort" gives the solver the median optimum as its
// threshold, so about half the solves may stop on a certified bound
// (refinement). It uses only NewDist, Distance and DistanceBounded, so
// the same file measures the commits before it too.
func BenchmarkSolveBounded(b *testing.B) {
	for _, mode := range []string{"exact", "abort"} {
		for _, d := range []int{8, 16, 32, 64} {
			b.Run(fmt.Sprintf("%s/%d", mode, d), func(b *testing.B) {
				w := newSolveBoundedWorkload(b, d)
				thr := math.Inf(1)
				if mode == "abort" {
					thr = w.median
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					solveBoundedSink += w.solve(i, thr)
				}
			})
		}
	}
}

// TestSolveBoundedRingThresholds walks the benchmark's ring with the
// threshold on either side of each pair's optimum: just above, the
// bounded call returns the bits of the unbounded one (the kernel test
// TestBoundedSolveCostsNothingUntilItAborts shows it also makes the same
// pivots); just below, it aborts on a bound that does not overshoot.
func TestSolveBoundedRingThresholds(t *testing.T) {
	for _, d := range []int{8, 16, 32, 64} {
		w := newSolveBoundedWorkload(t, d)
		for i, p := range w.pairs {
			opt := w.dist.Distance(p[0], p[1])
			if r := w.dist.DistanceBounded(p[0], p[1], opt*(1+1e-6)); r.Aborted || math.Float64bits(r.Value) != math.Float64bits(opt) {
				t.Fatalf("d=%d pair %d: threshold just above %v: aborted=%v value %v", d, i, opt, r.Aborted, r.Value)
			}
			below := opt * (1 - 1e-6)
			if r := w.dist.DistanceBounded(p[0], p[1], below); !r.Aborted || !(r.Value > below) || r.Value > opt {
				t.Fatalf("d=%d pair %d: threshold %v just below %v: aborted=%v value %v", d, i, below, opt, r.Aborted, r.Value)
			}
		}
	}
}
