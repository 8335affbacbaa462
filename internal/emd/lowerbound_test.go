package emd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lowerBoundCost draws a d x d ground distance of one of three
// families: 0 the linear bins of the paper's 1-D examples, 1 random
// real costs, 2 tie-heavy small integers (many equal reduced costs,
// hence many alternate optimal bases).
func lowerBoundCost(rng *rand.Rand, kind, d int) CostMatrix {
	if kind == 0 {
		return LinearCost(d)
	}
	c := make(CostMatrix, d)
	for i := range c {
		c[i] = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			v := 10 * rng.Float64()
			if kind == 2 {
				v = float64(rng.Intn(4))
			}
			c[i][j], c[j][i] = v, v
		}
	}
	return c
}

// lowerBoundHist draws a normalized histogram, dense (every bin
// positive) or sparse (about a third of the bins empty).
func lowerBoundHist(rng *rand.Rand, d int, sparse bool) Histogram {
	if sparse {
		return randomHistogram(rng, d)
	}
	h := make(Histogram, d)
	for i := range h {
		h[i] = 0.01 + rng.Float64()
	}
	return normalized(h)
}

// checkLowerBound checks the lower-bound exit on one pair against the
// canonical distance: at +Inf it completes with 0 <= value <= Distance
// and a gap of at most 1e-11·Cmax; at a finite threshold it either
// aborts on a bound above the threshold that does not overshoot the
// distance, or completes with the +Inf value's bits — and a completion
// means the distance does not exceed the threshold by more than the
// abort guard.
func checkLowerBound(dist *Dist, cmax float64, x, y Histogram, thresholds []float64) error {
	exact := dist.Distance(x, y)
	lb := dist.LowerBound(x, y, math.Inf(1))
	if lb.Aborted || lb.Interrupted {
		return fmt.Errorf("+Inf solve aborted=%v interrupted=%v", lb.Aborted, lb.Interrupted)
	}
	if lb.Value < 0 || lb.Value > exact {
		return fmt.Errorf("lower bound %v outside [0, Distance %v]", lb.Value, exact)
	}
	if gap := exact - lb.Value; gap > 1e-11*cmax {
		return fmt.Errorf("lower bound %v is %g below Distance %v, more than 1e-11·Cmax", lb.Value, gap, exact)
	}
	for _, thr := range thresholds {
		r := dist.LowerBound(x, y, thr)
		switch {
		case r.Aborted:
			if !(r.Value > thr) || r.Value > exact {
				return fmt.Errorf("threshold %v: aborted on %v, want in (threshold, Distance %v]", thr, r.Value, exact)
			}
		case math.Float64bits(r.Value) != math.Float64bits(lb.Value):
			return fmt.Errorf("threshold %v: completed with %v, +Inf gave %v", thr, r.Value, lb.Value)
		case exact > thr+2e-9*cmax:
			return fmt.Errorf("threshold %v: completed although Distance %v exceeds it past the guard", thr, exact)
		}
	}
	return nil
}

// TestLowerBoundCertificate is the property battery of the lower-bound
// exit over linear, random and tie-heavy integer costs, dense and sparse
// marginals, d in {8, 16, 32, 64}, at +Inf and at thresholds around the
// optimum. It also checks that the value is a pure function of the
// pair: a second Dist walking the pairs in reverse order, so every
// solve runs on a pooled state with another history, reports the same
// bits.
func TestLowerBoundCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, d := range []int{8, 16, 32, 64} {
		pairs := 1920 / d
		for kind := 0; kind < 3; kind++ {
			for _, sparse := range []bool{false, true} {
				c := lowerBoundCost(rng, kind, d)
				dist, err := NewDist(c)
				if err != nil {
					t.Fatal(err)
				}
				cmax := maxCost(c)
				xs := make([][2]Histogram, pairs)
				got := make([]float64, pairs)
				for i := range xs {
					x, y := lowerBoundHist(rng, d, sparse), lowerBoundHist(rng, d, sparse)
					xs[i] = [2]Histogram{x, y}
					exact := dist.Distance(x, y)
					thrs := []float64{0.5 * exact, exact * (1 - 1e-6), exact, exact * (1 + 1e-6), rng.Float64() * cmax}
					if err := checkLowerBound(dist, cmax, x, y, thrs); err != nil {
						t.Fatalf("d=%d kind=%d sparse=%v pair %d: %v", d, kind, sparse, i, err)
					}
					got[i] = dist.LowerBound(x, y, math.Inf(1)).Value
				}
				ref, err := NewDist(c)
				if err != nil {
					t.Fatal(err)
				}
				for i := pairs - 1; i >= 0; i-- {
					if v := ref.LowerBound(xs[i][0], xs[i][1], math.Inf(1)).Value; math.Float64bits(v) != math.Float64bits(got[i]) {
						t.Fatalf("d=%d kind=%d sparse=%v pair %d: %v on a fresh history, %v on the first", d, kind, sparse, i, v, got[i])
					}
				}
			}
		}
	}
}

// FuzzLowerBound drives checkLowerBound from a seed: shape picks d in
// {8, 16, 32, 64}, the cost family and dense or sparse marginals, and
// frac scales the optimum into a finite threshold (non-finite or
// negative fractions leave only +Inf).
func FuzzLowerBound(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.5)
	f.Add(int64(2), uint8(5), 1.0)
	f.Add(int64(3), uint8(22), 0.999999)
	f.Add(int64(4), uint8(15), 2.0)
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, frac float64) {
		rng := rand.New(rand.NewSource(seed))
		d := []int{8, 16, 32, 64}[shape%4]
		kind := int(shape/4) % 3
		sparse := shape/12%2 == 1
		c := lowerBoundCost(rng, kind, d)
		dist, err := NewDist(c)
		if err != nil {
			t.Fatal(err)
		}
		x, y := lowerBoundHist(rng, d, sparse), lowerBoundHist(rng, d, sparse)
		var thrs []float64
		if frac >= 0 && !math.IsInf(frac, 0) && !math.IsNaN(frac) {
			thrs = append(thrs, frac*dist.Distance(x, y))
		}
		if err := checkLowerBound(dist, maxCost(c), x, y, thrs); err != nil {
			t.Fatalf("d=%d kind=%d sparse=%v: %v", d, kind, sparse, err)
		}
	})
}

func maxCost(c CostMatrix) float64 {
	var m float64
	for _, row := range c {
		for _, v := range row {
			m = max(m, v)
		}
	}
	return m
}
