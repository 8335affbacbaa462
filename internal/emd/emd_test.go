package emd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emdsearch/internal/transport"
	"emdsearch/internal/vecmath"
)

func TestDistancePaperExample(t *testing.T) {
	x := Histogram{0.5, 0, 0.2, 0, 0.3, 0}
	y := Histogram{0, 0.5, 0, 0.2, 0, 0.3}
	z := Histogram{1, 0, 0, 0, 0, 0}
	c := LinearCost(6)

	dxy, err := Distance(x, y, c)
	if err != nil {
		t.Fatal(err)
	}
	dxz, err := Distance(x, z, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dxy-1.0) > 1e-12 {
		t.Errorf("EMD(x,y) = %g, want 1.0", dxy)
	}
	if math.Abs(dxz-1.6) > 1e-12 {
		t.Errorf("EMD(x,z) = %g, want 1.6", dxz)
	}
	// The EMD, unlike L1, ranks y closer to x than z (the paper's
	// motivating observation).
	if dxy >= dxz {
		t.Errorf("EMD ranks z closer than y: %g >= %g", dxy, dxz)
	}
	if l1xy, l1xz := vecmath.L1(x, y), vecmath.L1(x, z); l1xy <= l1xz {
		t.Errorf("expected L1 to misrank in this example: L1(x,y)=%g, L1(x,z)=%g", l1xy, l1xz)
	}
}

func TestDistanceValidation(t *testing.T) {
	c := LinearCost(3)
	ok := Histogram{0.5, 0.25, 0.25}
	cases := []struct {
		name string
		x, y Histogram
		c    CostMatrix
	}{
		{"negative entry", Histogram{-0.5, 1.0, 0.5}, ok, c},
		{"unnormalized", Histogram{1, 1, 1}, ok, c},
		{"empty", Histogram{}, ok, c},
		{"nan", Histogram{math.NaN(), 0.5, 0.5}, ok, c},
		{"dim mismatch", Histogram{0.5, 0.5}, ok, c},
		{"cost mismatch", ok, ok, LinearCost(4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Distance(tc.x, tc.y, tc.c); err == nil {
				t.Fatalf("Distance accepted %s", tc.name)
			}
		})
	}
}

func randomHistogram(rng *rand.Rand, d int) Histogram {
	h := make(Histogram, d)
	for i := range h {
		h[i] = rng.Float64()
		if rng.Intn(3) == 0 {
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

// TestMetricProperties verifies that EMD under a metric ground distance
// is itself a metric: identity, symmetry and triangle inequality.
func TestMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d = 8
	c := LinearCost(d)
	dist, err := NewDist(c)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		z := randomHistogram(rng, d)
		dxy := dist.Distance(x, y)
		dyx := dist.Distance(y, x)
		dxz := dist.Distance(x, z)
		dzy := dist.Distance(z, y)
		if dxy < -1e-12 {
			t.Fatalf("negative distance %g", dxy)
		}
		if math.Abs(dxy-dyx) > 1e-9 {
			t.Fatalf("asymmetric: %g vs %g", dxy, dyx)
		}
		if dxy > dxz+dzy+1e-9 {
			t.Fatalf("triangle violated: %g > %g + %g", dxy, dxz, dzy)
		}
		if dxx := dist.Distance(x, x); dxx > 1e-10 {
			t.Fatalf("EMD(x,x) = %g", dxx)
		}
	}
}

// TestQuickMassConservation is a property test: for random valid
// histogram pairs the optimal flow ships exactly the source mass to
// exactly the target mass.
func TestQuickMassConservation(t *testing.T) {
	const d = 6
	c := LinearCost(d)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		_, flow, err := DistanceWithFlow(x, y, c)
		if err != nil {
			return false
		}
		for i := range flow {
			var row float64
			for _, v := range flow[i] {
				if v < -1e-12 {
					return false
				}
				row += v
			}
			if math.Abs(row-x[i]) > 1e-9 {
				return false
			}
		}
		for j := 0; j < d; j++ {
			var col float64
			for i := range flow {
				col += flow[i][j]
			}
			if math.Abs(col-y[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickL1Relationship: for any ground distance with zero diagonal
// and off-diagonal entries >= m, EMD >= m/2 * L1 does NOT hold in
// general, but EMD <= max(C) always holds for normalized mass. We check
// the sound bound: minC_offdiag * (L1/2) <= EMD <= maxC when x != y.
func TestQuickEMDBounds(t *testing.T) {
	const d = 5
	c := LinearCost(d)
	var maxC float64
	minOff := math.Inf(1)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if c[i][j] > maxC {
				maxC = c[i][j]
			}
			if i != j && c[i][j] < minOff {
				minOff = c[i][j]
			}
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		dist, err := Distance(x, y, c)
		if err != nil {
			return false
		}
		l1 := vecmath.L1(x, y)
		// Mass that must move is L1/2; each moved unit costs between
		// minOff and maxC.
		lower := minOff*l1/2 - 1e-9
		upper := maxC*l1/2 + 1e-9
		return dist >= lower && dist <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearCostProperties(t *testing.T) {
	c := LinearCost(5)
	if !c.IsSymmetric() {
		t.Error("LinearCost not symmetric")
	}
	if !c.IsMetric(1e-12) {
		t.Error("LinearCost not metric")
	}
	if c[0][4] != 4 || c[2][2] != 0 || c[1][3] != 2 {
		t.Errorf("unexpected entries: %v", c)
	}
}

func TestModuloCostProperties(t *testing.T) {
	c := ModuloCost(6)
	if c[0][5] != 1 {
		t.Errorf("ring distance 0-5 = %g, want 1", c[0][5])
	}
	if c[0][3] != 3 {
		t.Errorf("ring distance 0-3 = %g, want 3", c[0][3])
	}
	if !c.IsMetric(1e-12) {
		t.Error("ModuloCost not metric")
	}
}

func TestGridCost(t *testing.T) {
	c, err := GridCost(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 6 || c.Cols() != 6 {
		t.Fatalf("grid cost is %dx%d, want 6x6", c.Rows(), c.Cols())
	}
	// Bin 0 is (0,0), bin 5 is (1,2): distance sqrt(1+4).
	want := math.Sqrt(5)
	if math.Abs(c[0][5]-want) > 1e-12 {
		t.Errorf("c[0][5] = %g, want %g", c[0][5], want)
	}
	if !c.IsMetric(1e-9) {
		t.Error("GridCost not metric")
	}
}

func TestPositionCostErrors(t *testing.T) {
	if _, err := PositionCost(nil, [][]float64{{0}}, 2); err == nil {
		t.Error("accepted empty source")
	}
	if _, err := PositionCost([][]float64{{0, 1}}, [][]float64{{0}}, 2); err == nil {
		t.Error("accepted mismatched coordinate dims")
	}
	if _, err := PositionCost([][]float64{{0}}, [][]float64{{1}}, 0.5); err == nil {
		t.Error("accepted p < 1")
	}
}

func TestThresholdedCost(t *testing.T) {
	c, err := ThresholdedCost(LinearCost(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if c[0][4] != 2 {
		t.Errorf("thresholded c[0][4] = %g, want 2", c[0][4])
	}
	if c[0][1] != 1 {
		t.Errorf("thresholded c[0][1] = %g, want 1", c[0][1])
	}
	if _, err := ThresholdedCost(LinearCost(3), 0); err == nil {
		t.Error("accepted non-positive threshold")
	}
	if !c.IsMetric(1e-12) {
		t.Error("thresholded linear cost should remain a metric")
	}
}

func TestScaleCost(t *testing.T) {
	base := LinearCost(4)
	c2, err := ScaleCost(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := Histogram{1, 0, 0, 0}
	y := Histogram{0, 0, 0, 1}
	d1, _ := Distance(x, y, base)
	d2, _ := Distance(x, y, c2)
	if math.Abs(d2-2*d1) > 1e-12 {
		t.Errorf("scaling cost by 2 gave %g, want %g", d2, 2*d1)
	}
	if _, err := ScaleCost(base, -1); err == nil {
		t.Error("accepted negative scale")
	}
}

func TestRectangularDistance(t *testing.T) {
	// 3-bin source vs 2-bin target with explicit rectangular costs.
	x := Histogram{0.2, 0.3, 0.5}
	y := Histogram{0.6, 0.4}
	c := CostMatrix{{0, 2}, {1, 1}, {2, 0}}
	got, err := Distance(x, y, c)
	if err != nil {
		t.Fatal(err)
	}
	// Best: bin0->t0 (0), bin1->t0 0.3@1? Alternatives: bin1 split.
	// t0 needs 0.6: 0.2 from bin0 @0, 0.3 from bin1 @1, 0.1 from bin2 @2.
	// t1 needs 0.4: 0.4 from bin2 @0. Total = 0.3 + 0.2 = 0.5.
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("rectangular EMD = %g, want 0.5", got)
	}
}

func TestNewDistRejectsBadCost(t *testing.T) {
	if _, err := NewDist(CostMatrix{{0, -1}, {1, 0}}); err == nil {
		t.Error("NewDist accepted negative cost")
	}
	if _, err := NewDist(CostMatrix{{0, 1}, {1}}); err == nil {
		t.Error("NewDist accepted ragged cost")
	}
}

func TestNormalize(t *testing.T) {
	h := Normalize(Histogram{2, 2, 4})
	want := Histogram{0.25, 0.25, 0.5}
	for i := range h {
		if math.Abs(h[i]-want[i]) > 1e-12 {
			t.Fatalf("Normalize = %v, want %v", h, want)
		}
	}
	if err := Validate(h); err != nil {
		t.Fatal(err)
	}
}

// TestDistDistanceWithFlowPooled checks the compiled Dist's flow entry,
// which runs on the Dist's pooled solver: the flow is feasible for the
// operands and prices out at the exact distance, it equals the one-shot
// DistanceWithFlow cell for cell, and it is the caller's own — writing
// into it changes no later answer, whatever the pool served in between.
func TestDistDistanceWithFlowPooled(t *testing.T) {
	const d = 12
	c := LinearCost(d)
	dist, err := NewDist(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		if trial%2 == 0 {
			x[rng.Intn(d)], y[rng.Intn(d)] = 0, 0
			x, y = Normalize(x), Normalize(y)
		}
		got, flow := dist.DistanceWithFlow(x, y)
		wantValue, wantFlow, err := DistanceWithFlow(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		problem := transport.Problem{Supply: x, Demand: y, Cost: c}
		if err := transport.CheckFeasible(problem, flow, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if exact := dist.Distance(x, y); math.Abs(got-exact) > 1e-9 {
			t.Fatalf("trial %d: flow prices out at %v, exact distance %v", trial, got, exact)
		}
		if got != wantValue {
			t.Fatalf("trial %d: pooled value %v, one-shot %v", trial, got, wantValue)
		}
		keep := make([][]float64, d)
		for i := range flow {
			for j := range flow[i] {
				if flow[i][j] != wantFlow[i][j] {
					t.Fatalf("trial %d: flow[%d][%d] pooled %v, one-shot %v", trial, i, j, flow[i][j], wantFlow[i][j])
				}
			}
			keep[i] = append([]float64(nil), flow[i]...)
			for j := range flow[i] {
				flow[i][j] = math.NaN()
			}
		}
		// The pool has one state: these solves reuse the memory the flow
		// above was computed in.
		dist.Distance(y, x)
		_, again := dist.DistanceWithFlow(x, y)
		for i := range again {
			for j := range again[i] {
				if again[i][j] != keep[i][j] {
					t.Fatalf("trial %d: second flow[%d][%d] = %v, first was %v", trial, i, j, again[i][j], keep[i][j])
				}
			}
		}
		if !math.IsNaN(flow[0][0]) {
			t.Fatalf("trial %d: a later solve wrote into a returned flow", trial)
		}
	}
	if n := dist.SSPFallbacks(); n != 0 {
		t.Fatalf("%d SSP fallbacks on 12-bin histograms", n)
	}
}
