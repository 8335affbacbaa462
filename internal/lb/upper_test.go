package lb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emdsearch/internal/emd"
)

// TestQuickGreedyUpperBound: the greedy flow cost never underestimates
// the exact EMD.
func TestQuickGreedyUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(10)
		c := make(emd.CostMatrix, d)
		for i := range c {
			c[i] = make([]float64, d)
		}
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				v := rng.Float64() * 6
				c[i][j] = v
				c[j][i] = v
			}
		}
		g, err := NewGreedyUpper(c)
		if err != nil {
			return false
		}
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		exact, err := emd.Distance(x, y, c)
		if err != nil {
			return false
		}
		return g.Distance(x, y) >= exact-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyUpperZeroForIdentical(t *testing.T) {
	c := emd.LinearCost(8)
	g, err := NewGreedyUpper(c)
	if err != nil {
		t.Fatal(err)
	}
	x := emd.Histogram{0.2, 0.1, 0.05, 0.15, 0.1, 0.2, 0.1, 0.1}
	if got := g.Distance(x, x); got > 1e-12 {
		t.Errorf("greedy upper of identical histograms = %g, want 0", got)
	}
}

// TestGreedyUpperExactOnForcedFlow: when the flow is forced the greedy
// flow is the optimal one, so the bound is the exact EMD (4) rounded up
// by no more than its guard.
func TestGreedyUpperExactOnForcedFlow(t *testing.T) {
	c := emd.LinearCost(5)
	g, err := NewGreedyUpper(c)
	if err != nil {
		t.Fatal(err)
	}
	x := emd.Histogram{1, 0, 0, 0, 0}
	y := emd.Histogram{0, 0, 0, 0, 1}
	if got := g.Distance(x, y); got < 4 || got > 4*(1+1e-9) {
		t.Errorf("forced-flow greedy = %v, want in [4, 4·(1+1e-9)]", got)
	}
}

// TestGreedyUpperNeverBelowExact: the greedy bound is an upper bound of
// the exact EMD bit for bit, not just up to a float tolerance — the
// anytime intervals, the breaker-open answer, ids-only range acceptance
// (ub <= eps admits an item unrefined) and ApproxCertificate.UpperK all
// treat it as certified. Before the residue was charged and the total
// rounded up, this failed on 1511, 1014, 377 and 198 of the 4000 pairs
// at d = 4, 8, 16 and 32, by a few ulps to 5e-15 relative.
func TestGreedyUpperNeverBelowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{4, 8, 16, 32} {
		c := emd.LinearCost(d)
		g, err := NewGreedyUpper(c)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := emd.NewDist(c)
		if err != nil {
			t.Fatal(err)
		}
		below := 0
		for trial := 0; trial < 4000; trial++ {
			x, y := randomHistogram(rng, d), randomHistogram(rng, d)
			exact, ub := dist.Distance(x, y), g.Distance(x, y)
			if ub < exact {
				if below == 0 {
					t.Errorf("d=%d: greedy %v below exact %v", d, ub, exact)
				}
				below++
			}
		}
		if below > 0 {
			t.Errorf("d=%d: greedy below the exact EMD on %d of 4000 pairs", d, below)
		}
	}
}

// TestGreedyUpperReasonablyTight: the average over random pairs should
// stay within a factor of 2 of the exact EMD on 1-D linear costs —
// loose enough to be robust, tight enough to catch a broken greedy.
func TestGreedyUpperReasonablyTight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const d = 16
	c := emd.LinearCost(d)
	g, err := NewGreedyUpper(c)
	if err != nil {
		t.Fatal(err)
	}
	var ratioSum float64
	n := 0
	for trial := 0; trial < 40; trial++ {
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		exact, err := emd.Distance(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		if exact < 1e-9 {
			continue
		}
		ratioSum += g.Distance(x, y) / exact
		n++
	}
	avg := ratioSum / float64(n)
	t.Logf("greedy/exact average ratio: %.3f", avg)
	if avg > 2 {
		t.Errorf("greedy upper bound too loose: average ratio %.3f", avg)
	}
	if avg < 1 {
		t.Errorf("average ratio %.3f below 1 — not an upper bound", avg)
	}
}

func TestGreedyUpperClone(t *testing.T) {
	c := emd.LinearCost(6)
	g, err := NewGreedyUpper(c)
	if err != nil {
		t.Fatal(err)
	}
	clone := g.Clone()
	x := emd.Histogram{0.5, 0, 0.2, 0, 0.3, 0}
	y := emd.Histogram{0, 0.5, 0, 0.2, 0, 0.3}
	if a, b := g.Distance(x, y), clone.Distance(x, y); math.Abs(a-b) > 1e-12 {
		t.Errorf("clone disagrees: %g vs %g", a, b)
	}
}

func TestNewGreedyUpperValidation(t *testing.T) {
	if _, err := NewGreedyUpper(emd.CostMatrix{{0, -1}, {1, 0}}); err == nil {
		t.Error("accepted negative cost")
	}
}
