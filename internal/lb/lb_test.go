package lb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
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

// TestQuickIMLowerBound: LB_IM never exceeds the exact EMD, for random
// histograms and random symmetric costs.
func TestQuickIMLowerBound(t *testing.T) {
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
		im, err := NewIM(c)
		if err != nil {
			return false
		}
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		exact, err := emd.Distance(x, y, c)
		if err != nil {
			return false
		}
		return im.Distance(x, y) <= exact+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestIMExactOnForcedFlow(t *testing.T) {
	// With all mass in one bin on each side, every relaxation is forced
	// into the same single flow, so LB_IM equals the EMD.
	c := emd.LinearCost(5)
	im, err := NewIM(c)
	if err != nil {
		t.Fatal(err)
	}
	x := emd.Histogram{0, 1, 0, 0, 0}
	y := emd.Histogram{0, 0, 0, 0, 1}
	exact, _ := emd.Distance(x, y, c)
	if got := im.Distance(x, y); math.Abs(got-exact) > 1e-12 {
		t.Errorf("LB_IM = %g, exact = %g", got, exact)
	}
}

func TestIMTighterThanOneSided(t *testing.T) {
	// max(forward, backward) must dominate each direction separately.
	rng := rand.New(rand.NewSource(6))
	c := emd.LinearCost(8)
	im, err := NewIM(c)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		x := randomHistogram(rng, 8)
		y := randomHistogram(rng, 8)
		both := im.Distance(x, y)
		if fwd := im.forward(x, y); both < fwd-1e-12 {
			t.Fatalf("Distance %g below forward %g", both, fwd)
		}
		if bwd := im.backward(x, y); both < bwd-1e-12 {
			t.Fatalf("Distance %g below backward %g", both, bwd)
		}
	}
}

func TestIMZeroForIdentical(t *testing.T) {
	c := emd.LinearCost(6)
	im, err := NewIM(c)
	if err != nil {
		t.Fatal(err)
	}
	x := emd.Histogram{0.3, 0.1, 0.1, 0.2, 0.2, 0.1}
	if got := im.Distance(x, x); got > 1e-12 {
		t.Errorf("LB_IM(x,x) = %g, want 0", got)
	}
}

func TestIMOnReducedCost(t *testing.T) {
	// Red-IM of the chained pipeline: IM over the optimal reduced cost
	// matrix must lower-bound the reduced EMD, which lower-bounds the
	// full EMD.
	rng := rand.New(rand.NewSource(14))
	const d, dr = 12, 4
	c := emd.CostMatrix(emd.LinearCost(d))
	r, err := core.Adjacent(d, dr)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.NewReducedEMD(c, r, r)
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewIM(red.Cost())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		xr, yr := r.Apply(x), r.Apply(y)
		redIM := im.Distance(xr, yr)
		redEMD := red.DistanceReduced(xr, yr)
		full, err := emd.Distance(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		if redIM > redEMD+1e-9 {
			t.Fatalf("Red-IM %g exceeds Red-EMD %g", redIM, redEMD)
		}
		if redEMD > full+1e-9 {
			t.Fatalf("Red-EMD %g exceeds EMD %g", redEMD, full)
		}
	}
}

func TestIMRectangular(t *testing.T) {
	c := emd.CostMatrix{{0, 2, 4}, {2, 0, 2}}
	im, err := NewIM(c)
	if err != nil {
		t.Fatal(err)
	}
	x := emd.Histogram{0.5, 0.5}
	y := emd.Histogram{0.25, 0.5, 0.25}
	exact, err := emd.Distance(x, y, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := im.Distance(x, y); got > exact+1e-9 {
		t.Errorf("rectangular LB_IM %g exceeds EMD %g", got, exact)
	}
	if rows, cols := im.Dims(); rows != 2 || cols != 3 {
		t.Errorf("Dims = %dx%d, want 2x3", rows, cols)
	}
}

func TestNewIMValidation(t *testing.T) {
	if _, err := NewIM(emd.CostMatrix{{0, -1}, {1, 0}}); err == nil {
		t.Error("accepted negative cost")
	}
	if _, err := NewIM(emd.CostMatrix{}); err == nil {
		t.Error("accepted empty cost")
	}
}

// TestChainOrdering asserts the full filter chain ordering on which the
// multistep completeness proof rests: Red-IM <= Red-EMD <= EMD.
func TestChainOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const d, dr = 16, 4
	pos := emd.GridPositions(4, 4)
	c, err := emd.PositionCost(pos, pos, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Adjacent(d, dr)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.NewReducedEMD(c, r, r)
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewIM(red.Cost())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		full, err := emd.Distance(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		xr, yr := r.Apply(x), r.Apply(y)
		redIM := im.Distance(xr, yr)
		redEMD := red.DistanceReduced(xr, yr)
		if redIM > redEMD+1e-9 || redEMD > full+1e-9 {
			t.Fatalf("chain violated: %g <= %g <= %g expected", redIM, redEMD, full)
		}
	}
}
