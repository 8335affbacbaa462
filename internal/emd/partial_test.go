package emd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emdsearch/internal/vecmath"
)

func TestPartialDistanceEqualMassMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const d = 8
	c := LinearCost(d)
	for trial := 0; trial < 20; trial++ {
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		full, err := Distance(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		partial, err := PartialDistance(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(full-partial) > 1e-9 {
			t.Fatalf("equal-mass partial %g != full %g", partial, full)
		}
	}
}

func TestPartialDistanceDominatedIsZero(t *testing.T) {
	// y fits entirely inside x bin-by-bin: nothing has to move.
	x := Histogram{0.5, 0.3, 0.2}
	y := Histogram{0.2, 0.1, 0.1}
	got, err := PartialDistance(x, y, LinearCost(3))
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-10 {
		t.Errorf("dominated partial EMD = %g, want 0", got)
	}
	// And symmetrically.
	got, err = PartialDistance(y, x, LinearCost(3))
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-10 {
		t.Errorf("reverse dominated partial EMD = %g, want 0", got)
	}
}

func TestPartialDistanceForcedMove(t *testing.T) {
	// x has 2 units at bin 0; y wants 1 unit at bin 2. The matched
	// unit moves distance 2; the surplus unit is free.
	x := Histogram{2, 0, 0}
	y := Histogram{0, 0, 1}
	got, err := PartialDistance(x, y, LinearCost(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-10 {
		t.Errorf("partial EMD = %g, want 2", got)
	}
}

func TestPartialDistanceSymmetryOfRoles(t *testing.T) {
	// For symmetric ground distance, swapping arguments changes which
	// side carries the slack but not the optimum.
	rng := rand.New(rand.NewSource(5))
	const d = 6
	c := LinearCost(d)
	for trial := 0; trial < 20; trial++ {
		x := make(Histogram, d)
		y := make(Histogram, d)
		for i := 0; i < d; i++ {
			x[i] = rng.Float64() * 2
			y[i] = rng.Float64()
		}
		a, err := PartialDistance(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PartialDistance(y, x, c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("partial EMD asymmetric: %g vs %g", a, b)
		}
	}
}

// TestQuickPartialLowerBoundsScaled: the partial EMD is at most the
// EMD between the normalized histograms scaled by the smaller mass
// (matching the smaller mass optimally can only be cheaper than
// following the proportional coupling).
func TestQuickPartialLowerBoundsScaled(t *testing.T) {
	const d = 5
	c := LinearCost(d)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make(Histogram, d)
		y := make(Histogram, d)
		for i := 0; i < d; i++ {
			x[i] = rng.Float64() * 3
			y[i] = rng.Float64()
		}
		massX := vecmath.Sum(x)
		massY := vecmath.Sum(y)
		if massX == 0 || massY == 0 {
			return true
		}
		partial, err := PartialDistance(x, y, c)
		if err != nil {
			return false
		}
		normX, normY := normalized(x), normalized(y)
		full, err := Distance(normX, normY, c)
		if err != nil {
			return false
		}
		return partial <= math.Min(massX, massY)*full+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPenalizedDistance(t *testing.T) {
	x := Histogram{2, 0, 0}
	y := Histogram{0, 0, 1}
	got, err := PenalizedDistance(x, y, LinearCost(3), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Partial 2 plus penalty 0.5 * surplus 1.
	if math.Abs(got-2.5) > 1e-10 {
		t.Errorf("penalized = %g, want 2.5", got)
	}
	if _, err := PenalizedDistance(x, y, LinearCost(3), -1); err == nil {
		t.Error("accepted negative penalty")
	}
	if _, err := PenalizedDistance(x, y, LinearCost(3), math.Inf(1)); err == nil {
		t.Error("accepted infinite penalty")
	}
}

// TestQuickPenalizedMetric: with penalty = max cost, the penalized
// distance satisfies the triangle inequality on random unnormalized
// histograms (it is a metric for penalty >= maxC/2; maxC is safely
// above that).
func TestQuickPenalizedMetric(t *testing.T) {
	const d = 4
	c := LinearCost(d)
	penalty := float64(d - 1)
	gen := func(rng *rand.Rand) Histogram {
		h := make(Histogram, d)
		for i := range h {
			h[i] = rng.Float64() * 2
		}
		h[rng.Intn(d)] += 0.1 // ensure positive mass
		return h
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y, z := gen(rng), gen(rng), gen(rng)
		dxy, err := PenalizedDistance(x, y, c, penalty)
		if err != nil {
			return false
		}
		dxz, err := PenalizedDistance(x, z, c, penalty)
		if err != nil {
			return false
		}
		dzy, err := PenalizedDistance(z, y, c, penalty)
		if err != nil {
			return false
		}
		return dxy <= dxz+dzy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialDistanceValidation(t *testing.T) {
	c := LinearCost(3)
	ok := Histogram{1, 1, 1}
	if _, err := PartialDistance(Histogram{0, 0, 0}, ok, c); err == nil {
		t.Error("accepted zero-mass source")
	}
	if _, err := PartialDistance(ok, Histogram{-1, 2, 1}, c); err == nil {
		t.Error("accepted negative entry")
	}
	if _, err := PartialDistance(ok, Histogram{1, 1}, c); err == nil {
		t.Error("accepted dimension mismatch")
	}
	if _, err := PartialDistance(nil, ok, c); err == nil {
		t.Error("accepted empty histogram")
	}
}
