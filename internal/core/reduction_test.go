package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emdsearch/internal/emd"
	"emdsearch/internal/vecmath"
)

func TestNewReductionValidation(t *testing.T) {
	cases := []struct {
		name    string
		assign  []int
		reduced int
	}{
		{"empty", nil, 1},
		{"reduced zero", []int{0, 0}, 0},
		{"reduced too large", []int{0, 0}, 3},
		{"out of range", []int{0, 2}, 2},
		{"negative", []int{0, -1}, 2},
		{"uncovered group", []int{0, 0, 0}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewReduction(tc.assign, tc.reduced); err == nil {
				t.Fatalf("NewReduction(%v, %d) succeeded, want error", tc.assign, tc.reduced)
			}
		})
	}
	r, err := NewReduction([]int{0, 1, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.OriginalDims() != 4 || r.ReducedDims() != 2 {
		t.Errorf("dims = %d->%d, want 4->2", r.OriginalDims(), r.ReducedDims())
	}
}

func TestApplyConservesMass(t *testing.T) {
	r, err := NewReduction([]int{0, 0, 1, 1, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := emd.Histogram{0.1, 0.2, 0.3, 0.1, 0.2, 0.1}
	got := r.Apply(x)
	want := emd.Histogram{0.3, 0.4, 0.3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Apply = %v, want %v", got, want)
		}
	}
	if math.Abs(vecmath.Sum(got)-1) > 1e-12 {
		t.Errorf("mass not conserved: %g", vecmath.Sum(got))
	}
}

// TestMatrixMatchesApply: Apply equals x·R for the explicit d x d'
// 0/1 reduction matrix R of Definition 3.
func TestMatrixMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r, err := Random(9, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make(emd.Histogram, 9)
	for i := range x {
		x[i] = rng.Float64()
	}
	vecmath.Normalize(x)
	m := vecmath.NewMatrix(r.OriginalDims(), r.ReducedDims())
	for i, g := range r.Assignment() {
		m[i][g] = 1
	}
	viaMatrix := vecmath.MatVec(x, m)
	viaApply := r.Apply(x)
	for i := range viaApply {
		if math.Abs(viaMatrix[i]-viaApply[i]) > 1e-12 {
			t.Fatalf("matrix %v vs apply %v", viaMatrix, viaApply)
		}
	}
}

func TestReduceCostPaperExample(t *testing.T) {
	// Figure 5 of the paper: 4-dim Manhattan cost, dims {0,1} -> 0 and
	// {2,3} -> 1 yields C' = [[0 2], [2 0]].
	c := emd.CostMatrix{
		{0, 1, 3, 4},
		{1, 0, 2, 3},
		{3, 2, 0, 1},
		{4, 3, 1, 0},
	}
	r, _ := NewReduction([]int{0, 0, 1, 1}, 2)
	got, err := ReduceCost(c, r, r)
	if err != nil {
		t.Fatal(err)
	}
	want := emd.CostMatrix{{0, 2}, {2, 0}}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("ReduceCost = %v, want %v", got, want)
			}
		}
	}
}

func TestReduceCostWorstCaseExample(t *testing.T) {
	// Section 3.2.1 example: x=(0,1,0,0), y=(0,0,1,0), Manhattan cost.
	// EMD = 1; merging {0,1} and {2,3} keeps the minimum inter-group
	// cost 1 (from dim 1 to dim 2), so the reduced EMD is exactly 1.
	c := emd.CostMatrix{
		{0, 1, 2, 3},
		{1, 0, 1, 2},
		{2, 1, 0, 1},
		{3, 2, 1, 0},
	}
	r, _ := NewReduction([]int{0, 0, 1, 1}, 2)
	red, err := NewReducedEMD(c, r, r)
	if err != nil {
		t.Fatal(err)
	}
	x := emd.Histogram{0, 1, 0, 0}
	y := emd.Histogram{0, 0, 1, 0}
	orig, err := emd.Distance(x, y, c)
	if err != nil {
		t.Fatal(err)
	}
	got := red.Distance(x, y)
	if math.Abs(orig-1) > 1e-12 {
		t.Fatalf("original EMD = %g, want 1", orig)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("reduced EMD = %g, want exactly 1 (tight worst case)", got)
	}
}

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

func randomCost(rng *rand.Rand, d int) emd.CostMatrix {
	c := vecmath.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			v := rng.Float64() * 5
			c[i][j] = v
			c[j][i] = v
		}
	}
	return c
}

// TestQuickLowerBound is the property-test form of Theorem 1: for
// random histograms, costs and reductions, the reduced EMD never
// exceeds the original EMD.
func TestQuickLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(8)
		d1 := 1 + rng.Intn(d)
		d2 := 1 + rng.Intn(d)
		c := randomCost(rng, d)
		r1, err := Random(d, d1, rng)
		if err != nil {
			return false
		}
		r2, err := Random(d, d2, rng)
		if err != nil {
			return false
		}
		red, err := NewReducedEMD(c, r1, r2)
		if err != nil {
			return false
		}
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		orig, err := emd.Distance(x, y, c)
		if err != nil {
			return false
		}
		return red.Distance(x, y) <= orig+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMonotony is the property-test form of Theorem 2: raising
// cost entries can only raise the EMD.
func TestQuickMonotony(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(6)
		c1 := randomCost(rng, d)
		c2 := vecmath.CloneMatrix(c1)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				if i != j && rng.Intn(2) == 0 {
					c2[i][j] += rng.Float64()
				}
			}
		}
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		e1, err := emd.Distance(x, y, emd.CostMatrix(c1))
		if err != nil {
			return false
		}
		e2, err := emd.Distance(x, y, emd.CostMatrix(c2))
		if err != nil {
			return false
		}
		return e1 <= e2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimalityWitness is the constructive form of Theorem 3: raising
// any entry of the optimal reduced cost matrix breaks the lower bound
// on the witness pair built from the cheapest inter-group original
// cells.
func TestOptimalityWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		d := 4 + rng.Intn(6)
		dr := 2 + rng.Intn(d-2)
		c := randomCost(rng, d)
		r, err := Random(d, dr, rng)
		if err != nil {
			t.Fatal(err)
		}
		reduced, err := ReduceCost(emd.CostMatrix(c), r, r)
		if err != nil {
			t.Fatal(err)
		}
		groups := r.Groups()
		// Pick a reduced cell (gi, gj), gi != gj, and find the original
		// cell attaining the minimum.
		gi := rng.Intn(dr)
		gj := rng.Intn(dr)
		if gi == gj {
			gj = (gj + 1) % dr
		}
		var i0, j0 int
		best := math.Inf(1)
		for _, i := range groups[gi] {
			for _, j := range groups[gj] {
				if c[i][j] < best {
					best = c[i][j]
					i0, j0 = i, j
				}
			}
		}
		// Witness histograms: all mass at i0 and j0 respectively.
		x := make(emd.Histogram, d)
		y := make(emd.Histogram, d)
		x[i0] = 1
		y[j0] = 1
		orig, err := emd.Distance(x, y, emd.CostMatrix(c))
		if err != nil {
			t.Fatal(err)
		}
		if orig > best+1e-12 {
			t.Fatalf("witness original EMD %g exceeds direct cost %g", orig, best)
		}
		// The reduced EMD with the optimal cost matrix is <= orig.
		redDist, err := emd.NewDist(reduced)
		if err != nil {
			t.Fatal(err)
		}
		lb := redDist.Distance(r.Apply(x), r.Apply(y))
		if lb > orig+1e-9 {
			t.Fatalf("optimal reduced cost broke lower bound: %g > %g", lb, orig)
		}
		// Raising the (gi,gj) entry breaks it whenever the witness pair
		// moves all its mass through that cell.
		bumped := vecmath.CloneMatrix(reduced)
		bumped[gi][gj] += 0.5
		bumpedDist, err := emd.NewDist(emd.CostMatrix(bumped))
		if err != nil {
			t.Fatal(err)
		}
		xb := r.Apply(x)
		yb := r.Apply(y)
		lbBumped := bumpedDist.Distance(xb, yb)
		if lbBumped <= orig+1e-12 {
			// Only a true violation when the reduced problem is forced
			// through (gi,gj); with mass concentrated in those groups
			// it always is.
			t.Fatalf("trial %d: bumped cost %g did not exceed original %g", trial, lbBumped, orig)
		}
	}
}

// TestReducedEMDTightensWithDims checks the intuitive flexibility
// property: keeping more dimensions cannot make an Adjacent reduction
// of a 1-D linear cost looser on average.
func TestReducedEMDTightensWithDims(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const d = 16
	c := emd.CostMatrix(emdLinear(d))
	var prev float64
	for _, dr := range []int{2, 4, 8, 16} {
		r, err := Adjacent(d, dr)
		if err != nil {
			t.Fatal(err)
		}
		red, err := NewReducedEMD(c, r, r)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		rngLocal := rand.New(rand.NewSource(99))
		for trial := 0; trial < 30; trial++ {
			x := randomHistogram(rngLocal, d)
			y := randomHistogram(rngLocal, d)
			total += red.Distance(x, y)
		}
		_ = rng
		if total+1e-9 < prev {
			t.Fatalf("average reduced EMD decreased from %g to %g at d'=%d", prev, total, dr)
		}
		prev = total
	}
}

func emdLinear(d int) [][]float64 {
	c := vecmath.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			c[i][j] = math.Abs(float64(i - j))
		}
	}
	return c
}

func TestIdentityReductionIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const d = 8
	c := emd.CostMatrix(emdLinear(d))
	r := Identity(d)
	red, err := NewReducedEMD(c, r, r)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		orig, err := emd.Distance(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		if got := red.Distance(x, y); math.Abs(got-orig) > 1e-9 {
			t.Fatalf("identity reduction changed EMD: %g vs %g", got, orig)
		}
	}
}

func TestAdjacent(t *testing.T) {
	r, err := Adjacent(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	got := r.Assignment()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Adjacent(10,3) = %v, want %v", got, want)
		}
	}
	if _, err := Adjacent(4, 5); err == nil {
		t.Error("Adjacent accepted reduced > d")
	}
	if _, err := Adjacent(4, 0); err == nil {
		t.Error("Adjacent accepted reduced = 0")
	}
}

func TestRandomReductionCoversAllGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(20)
		dr := 1 + rng.Intn(d)
		r, err := Random(d, dr, rng)
		if err != nil {
			t.Fatal(err)
		}
		groups := r.Groups()
		if len(groups) != dr {
			t.Fatalf("got %d groups, want %d", len(groups), dr)
		}
		for g, members := range groups {
			if len(members) == 0 {
				t.Fatalf("group %d empty in %v", g, r.Assignment())
			}
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	r, _ := NewReduction([]int{0, 1, 1, 0}, 2)
	s := r.Clone()
	if !r.Equal(s) {
		t.Error("clone not equal")
	}
	s.assign[0] = 1
	if r.Equal(s) {
		t.Error("mutated clone still equal")
	}
	if r.Assignment()[0] != 0 {
		t.Error("clone mutation leaked into original")
	}
}

// TestAsymmetricReductionTighter: reducing only the database side
// (R1 = identity) yields a lower bound at least as tight as reducing
// both sides, for the same R2.
func TestAsymmetricReductionTighter(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const d = 12
	c := emd.CostMatrix(emdLinear(d))
	r2, err := Adjacent(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := NewReducedEMD(c, r2, r2)
	if err != nil {
		t.Fatal(err)
	}
	asym, err := NewReducedEMD(c, Identity(d), r2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		orig, err := emd.Distance(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		ds := sym.Distance(x, y)
		da := asym.Distance(x, y)
		if da > orig+1e-9 {
			t.Fatalf("asymmetric bound %g exceeds original %g", da, orig)
		}
		if ds > da+1e-9 {
			t.Fatalf("symmetric bound %g tighter than asymmetric %g", ds, da)
		}
	}
}

func TestCompose(t *testing.T) {
	outer, _ := NewReduction([]int{0, 0, 1, 1, 2, 2}, 3)
	inner, _ := NewReduction([]int{0, 0, 1}, 2)
	composed, err := Compose(outer, inner)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 1, 1}
	got := composed.Assignment()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Compose = %v, want %v", got, want)
		}
	}
	// Applying composed equals applying outer then inner.
	x := emd.Histogram{0.1, 0.1, 0.2, 0.2, 0.2, 0.2}
	direct := composed.Apply(x)
	twoStep := inner.Apply(outer.Apply(x))
	for i := range direct {
		if math.Abs(direct[i]-twoStep[i]) > 1e-12 {
			t.Fatalf("direct %v vs two-step %v", direct, twoStep)
		}
	}
	// Mismatched dimensionalities rejected.
	if _, err := Compose(inner, outer); err == nil {
		t.Error("accepted mismatched composition")
	}
}

// TestComposedCascadeOrdering: for a composed (nested) cascade, the
// coarser optimal reduced EMD lower-bounds the finer one, which
// lower-bounds the exact EMD — the invariant hierarchical filter
// chains rest on.
func TestComposedCascadeOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const d = 16
	c := emd.CostMatrix(emdLinear(d))
	fine, err := Adjacent(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := Adjacent(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Compose(fine, inner)
	if err != nil {
		t.Fatal(err)
	}
	fineEMD, err := NewReducedEMD(c, fine, fine)
	if err != nil {
		t.Fatal(err)
	}
	coarseEMD, err := NewReducedEMD(c, coarse, coarse)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		x := randomHistogram(rng, d)
		y := randomHistogram(rng, d)
		exact, err := emd.Distance(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		cd := coarseEMD.Distance(x, y)
		fd := fineEMD.Distance(x, y)
		if cd > fd+1e-9 || fd > exact+1e-9 {
			t.Fatalf("cascade ordering violated: %g <= %g <= %g expected", cd, fd, exact)
		}
	}
}

func TestAggregateFlows(t *testing.T) {
	f := [][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	}
	r, _ := NewReduction([]int{0, 0, 1}, 2)
	got, err := AggregateFlows(f, r)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{12, 9}, {15, 9}}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("AggregateFlows = %v, want %v", got, want)
			}
		}
	}
	if _, err := AggregateFlows(f[:2], r); err == nil {
		t.Error("accepted wrong flow shape")
	}
}
