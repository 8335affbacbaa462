package flowred

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/vecmath"
)

// AggrFlow returns the flow aggregated from reduced dimension i' to j'
// under reduction r (Eq. 11): the sum of all original flows F[i][j]
// with i assigned to i' and j assigned to j'.
func AggrFlow(f [][]float64, r *core.Reduction, iRed, jRed int) float64 {
	var sum float64
	groups := r.Groups()
	for _, i := range groups[iRed] {
		for _, j := range groups[jRed] {
			sum += f[i][j]
		}
	}
	return sum
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

func randomFlows(rng *rand.Rand, d int) [][]float64 {
	f := vecmath.NewMatrix(d, d)
	for i := range f {
		for j := range f[i] {
			f[i][j] = rng.Float64()
			if rng.Intn(3) == 0 {
				f[i][j] = 0
			}
		}
	}
	return f
}

func randomCost(rng *rand.Rand, d int) emd.CostMatrix {
	c := vecmath.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			v := rng.Float64() * 4
			c[i][j] = v
			c[j][i] = v
		}
	}
	return c
}

// TestEvalMoveMatchesReference is the central consistency check: the
// incremental evaluator must agree with a from-scratch Eq. 12
// computation for arbitrary moves, including moves into empty groups.
func TestEvalMoveMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 4 + rng.Intn(10)
		dr := 2 + rng.Intn(d-1)
		if dr > d {
			dr = d
		}
		flows := randomFlows(rng, d)
		cost := randomCost(rng, d)

		// Random assignment, possibly with empty groups.
		assign := make([]int, d)
		for i := range assign {
			assign[i] = rng.Intn(dr)
		}
		st := newSearchState(flows, cost, append([]int(nil), assign...), dr)

		for trial := 0; trial < 15; trial++ {
			o := rng.Intn(d)
			b := rng.Intn(dr)
			a := st.assign[o]
			if b == a || st.groupSize[a] == 1 {
				continue
			}
			got := st.evalMove(o, b)
			// Reference: apply the move on a copy and recompute.
			refAssign := append([]int(nil), st.assign...)
			refAssign[o] = b
			ref := newSearchState(flows, cost, refAssign, dr)
			if !vecmath.AlmostEqual(got, ref.tight, 1e-9) {
				t.Logf("seed %d: evalMove(%d -> %d) = %.12g, reference %.12g (assign %v)",
					seed, o, b, got, ref.tight, st.assign)
				return false
			}
			// Occasionally commit to explore different states.
			if rng.Intn(2) == 0 {
				st.commit(o, b)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTightnessMatchesAggrFlowFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d, dr := 9, 3
	flows := randomFlows(rng, d)
	cost := randomCost(rng, d)
	r, err := core.Random(d, dr, rng)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := core.ReduceCost(cost, r, r)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 0; i < dr; i++ {
		for j := 0; j < dr; j++ {
			want += AggrFlow(flows, r, i, j) * reduced[i][j]
		}
	}
	got := Tightness(flows, cost, r)
	if !vecmath.AlmostEqual(got, want, 1e-9) {
		t.Fatalf("Tightness = %g, explicit Eq.12 = %g", got, want)
	}
}

func TestAverageFlowsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d = 6
	dist, err := emd.NewDist(emd.LinearCost(d))
	if err != nil {
		t.Fatal(err)
	}
	sample := make([]emd.Histogram, 8)
	for i := range sample {
		sample[i] = randomHistogram(rng, d)
	}
	f, err := AverageFlows(sample, dist)
	if err != nil {
		t.Fatal(err)
	}
	// Non-negative entries and correct total mass: each of the
	// |S|*(|S|-1) ordered pairs contributes total flow 1, normalized
	// by |S|^2.
	var total float64
	for i := range f {
		for j := range f[i] {
			if f[i][j] < 0 {
				t.Fatalf("negative average flow f[%d][%d] = %g", i, j, f[i][j])
			}
			total += f[i][j]
		}
	}
	s := float64(len(sample))
	want := s * (s - 1) / (s * s)
	if !vecmath.AlmostEqual(total, want, 1e-9) {
		t.Errorf("total average flow %g, want %g", total, want)
	}
	// Symmetric ground distance must give a symmetric average flow
	// matrix (each pair accumulated in both orientations).
	for i := range f {
		for j := range f[i] {
			if !vecmath.AlmostEqual(f[i][j], f[j][i], 1e-9) {
				t.Fatalf("average flows asymmetric at (%d,%d): %g vs %g", i, j, f[i][j], f[j][i])
			}
		}
	}
}

func TestAverageFlowsValidation(t *testing.T) {
	dist, _ := emd.NewDist(emd.LinearCost(3))
	if _, err := AverageFlows([]emd.Histogram{{1, 0, 0}}, dist); err == nil {
		t.Error("accepted sample of size 1")
	}
	bad := []emd.Histogram{{1, 0, 0}, {0.5, 0.5}}
	if _, err := AverageFlows(bad, dist); err == nil {
		t.Error("accepted mismatched histogram dimensionality")
	}
}

func TestSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]emd.Histogram, 10)
	for i := range data {
		data[i] = emd.Histogram{float64(i)}
	}
	s := Sample(data, 4, rng)
	if len(s) != 4 {
		t.Fatalf("sample size %d, want 4", len(s))
	}
	seen := map[float64]bool{}
	for _, h := range s {
		if seen[h[0]] {
			t.Fatal("sample drew the same element twice")
		}
		seen[h[0]] = true
	}
	if got := Sample(data, 20, rng); len(got) != 10 {
		t.Errorf("oversized sample returned %d elements, want all 10", len(got))
	}
}

// TestOptimizeImprovesTightness: both optimizers must end at least as
// tight as their starting assignment, and the returned reduction's
// reference tightness must match Stats.Tightness.
func TestOptimizeImprovesTightness(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const d, dr = 12, 4
	flows := randomFlows(rng, d)
	cost := randomCost(rng, d)
	start, err := core.Random(d, dr, rng)
	if err != nil {
		t.Fatal(err)
	}
	startTight := Tightness(flows, cost, start)

	for _, variant := range []string{"mod", "all"} {
		var red *core.Reduction
		var stats *Stats
		if variant == "mod" {
			red, stats, err = OptimizeMod(start.Assignment(), dr, flows, cost, Options{})
		} else {
			red, stats, err = OptimizeAll(start.Assignment(), dr, flows, cost, Options{})
		}
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if stats.Tightness < startTight-1e-9 {
			t.Errorf("%s: tightness %g worse than start %g", variant, stats.Tightness, startTight)
		}
		if ref := Tightness(flows, cost, red); !vecmath.AlmostEqual(ref, stats.Tightness, 1e-9) {
			t.Errorf("%s: reported tightness %g, reference %g", variant, stats.Tightness, ref)
		}
		if red.ReducedDims() != dr {
			t.Errorf("%s: reduced dims %d, want %d", variant, red.ReducedDims(), dr)
		}
	}
}

// TestOptimizeFromBase: starting from the paper's Base solution (all
// dimensions in reduced dimension 0) the search must populate all
// groups and reach positive tightness.
func TestOptimizeFromBase(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const d, dr = 10, 3
	flows := randomFlows(rng, d)
	cost := randomCost(rng, d)

	for _, variant := range []string{"mod", "all"} {
		var red *core.Reduction
		var stats *Stats
		var err error
		if variant == "mod" {
			red, stats, err = OptimizeMod(BaseAssignment(d), dr, flows, cost, Options{})
		} else {
			red, stats, err = OptimizeAll(BaseAssignment(d), dr, flows, cost, Options{})
		}
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		for g, members := range red.Groups() {
			if len(members) == 0 {
				t.Fatalf("%s: group %d empty after optimization", variant, g)
			}
		}
		if stats.Tightness <= 0 {
			t.Errorf("%s: tightness %g, want > 0", variant, stats.Tightness)
		}
	}
}

// TestBothVariantsReachLocalOptima: when either variant terminates, no
// single reassignment may improve the tightness — re-running the other
// variant on the result must make zero moves. This is the invariant
// both Figure 8 and Figure 9 converge to (they may still land in
// different local optima from the same start).
func TestBothVariantsReachLocalOptima(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		d := 8 + rng.Intn(8)
		dr := 2 + rng.Intn(4)
		flows := randomFlows(rng, d)
		cost := randomCost(rng, d)
		start := BaseAssignment(d)

		redAll, aStats, err := OptimizeAll(start, dr, flows, cost, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, afterAll, err := OptimizeMod(redAll.Assignment(), dr, flows, cost, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if afterAll.Moves != 0 || afterAll.Tightness > aStats.Tightness*(1+1e-9) {
			t.Errorf("trial %d: FB-All result not locally optimal: %g -> %g in %d moves",
				trial, aStats.Tightness, afterAll.Tightness, afterAll.Moves)
		}

		redMod, mStats, err := OptimizeMod(start, dr, flows, cost, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, afterMod, err := OptimizeAll(redMod.Assignment(), dr, flows, cost, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if afterMod.Moves != 0 || afterMod.Tightness > mStats.Tightness*(1+1e-9) {
			t.Errorf("trial %d: FB-Mod result not locally optimal: %g -> %g in %d moves",
				trial, mStats.Tightness, afterMod.Tightness, afterMod.Moves)
		}
	}
}

func TestOptimizeValidation(t *testing.T) {
	flows := vecmath.NewMatrix(3, 3)
	cost := emd.CostMatrix(vecmath.NewMatrix(3, 3))
	cases := []struct {
		name    string
		assign  []int
		reduced int
		f       [][]float64
		c       emd.CostMatrix
	}{
		{"empty assign", nil, 1, flows, cost},
		{"bad reduced", []int{0, 0, 0}, 4, flows, cost},
		{"out of range", []int{0, 0, 5}, 2, flows, cost},
		{"flow shape", []int{0, 0, 0}, 1, vecmath.NewMatrix(2, 3), cost},
		{"cost shape", []int{0, 0, 0}, 1, flows, emd.CostMatrix(vecmath.NewMatrix(2, 2))},
		{"negative flow", []int{0, 0, 0}, 1, [][]float64{{0, 0, 0}, {0, -1, 0}, {0, 0, 0}}, cost},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := OptimizeMod(tc.assign, tc.reduced, tc.f, tc.c, Options{}); err == nil {
				t.Fatalf("OptimizeMod accepted %s", tc.name)
			}
			if _, _, err := OptimizeAll(tc.assign, tc.reduced, tc.f, tc.c, Options{}); err == nil {
				t.Fatalf("OptimizeAll accepted %s", tc.name)
			}
		})
	}
}

// TestEndToEndTighterLowerBounds: an FB-optimized reduction must
// produce lower bounds on real EMDs that are, on average, at least as
// tight as a random reduction's — the core promise of Section 3.4.
func TestEndToEndTighterLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const d, dr, nSample, nEval = 12, 4, 12, 20
	cost := emd.CostMatrix(emd.LinearCost(d))
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]emd.Histogram, 40)
	for i := range data {
		data[i] = randomHistogram(rng, d)
	}
	sample := Sample(data, nSample, rng)
	flows, err := AverageFlows(sample, dist)
	if err != nil {
		t.Fatal(err)
	}
	fbRed, _, err := OptimizeAll(BaseAssignment(d), dr, flows, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	randRed, err := core.Random(d, dr, rng)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := core.NewReducedEMD(cost, fbRed, fbRed)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := core.NewReducedEMD(cost, randRed, randRed)
	if err != nil {
		t.Fatal(err)
	}
	var fbSum, rdSum float64
	for trial := 0; trial < nEval; trial++ {
		x := data[rng.Intn(len(data))]
		y := data[rng.Intn(len(data))]
		orig := dist.Distance(x, y)
		fbLB := fb.Distance(x, y)
		rdLB := rd.Distance(x, y)
		if fbLB > orig+1e-9 {
			t.Fatalf("FB lower bound %g exceeds EMD %g", fbLB, orig)
		}
		if rdLB > orig+1e-9 {
			t.Fatalf("random lower bound %g exceeds EMD %g", rdLB, orig)
		}
		fbSum += fbLB
		rdSum += rdLB
	}
	if fbSum < rdSum*0.95 {
		t.Errorf("FB reduction bounds (avg %g) clearly looser than random (avg %g)",
			fbSum/nEval, rdSum/nEval)
	}
}

func TestRepairFillsEmptyGroups(t *testing.T) {
	// Zero flows make every move gain zero tightness, so starting from
	// Base nothing moves and the repair path must fill the groups.
	const d, dr = 6, 3
	flows := vecmath.NewMatrix(d, d)
	cost := randomCost(rand.New(rand.NewSource(3)), d)
	red, stats, err := OptimizeAll(BaseAssignment(d), dr, flows, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Repaired {
		t.Error("expected repair with zero flows")
	}
	for g, members := range red.Groups() {
		if len(members) == 0 {
			t.Fatalf("group %d still empty after repair", g)
		}
	}
}

func TestThresholdStopsSearch(t *testing.T) {
	// An enormous threshold rejects every improvement, so the start
	// assignment must come back unchanged (modulo validity).
	rng := rand.New(rand.NewSource(77))
	const d, dr = 8, 2
	flows := randomFlows(rng, d)
	cost := randomCost(rng, d)
	start, err := core.Random(d, dr, rng)
	if err != nil {
		t.Fatal(err)
	}
	red, stats, err := OptimizeAll(start.Assignment(), dr, flows, cost, Options{Thresh: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moves != 0 {
		t.Errorf("threshold 1e9 still made %d moves", stats.Moves)
	}
	if !red.Equal(start) {
		t.Error("assignment changed despite prohibitive threshold")
	}
}

func TestBaseAssignment(t *testing.T) {
	a := BaseAssignment(5)
	if len(a) != 5 {
		t.Fatalf("length %d, want 5", len(a))
	}
	for i, g := range a {
		if g != 0 {
			t.Fatalf("BaseAssignment[%d] = %d, want 0", i, g)
		}
	}
}

func TestTightnessNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		d := 4 + rng.Intn(8)
		dr := 1 + rng.Intn(d)
		flows := randomFlows(rng, d)
		cost := randomCost(rng, d)
		r, err := core.Random(d, dr, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tight := Tightness(flows, cost, r); tight < 0 || math.IsNaN(tight) || math.IsInf(tight, 0) {
			t.Fatalf("invalid tightness %g", tight)
		}
	}
}

func TestAverageFlowsParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const d = 8
	dist, err := emd.NewDist(emd.LinearCost(d))
	if err != nil {
		t.Fatal(err)
	}
	sample := make([]emd.Histogram, 12)
	for i := range sample {
		sample[i] = randomHistogram(rng, d)
	}
	seq, err := AverageFlows(sample, dist)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AverageFlowsParallel(sample, dist, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		for j := range seq[i] {
			if !vecmath.AlmostEqual(seq[i][j], par[i][j], 1e-9) {
				t.Fatalf("flows differ at (%d,%d): %g vs %g", i, j, seq[i][j], par[i][j])
			}
		}
	}
	// Default worker count path.
	if _, err := AverageFlowsParallel(sample, dist, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := AverageFlowsParallel(sample[:1], dist, 2); err == nil {
		t.Error("accepted sample of size 1")
	}
}

func TestOptimizeEdgeDimensionalities(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const d = 9
	flows := randomFlows(rng, d)
	cost := randomCost(rng, d)

	// d' = 1: the only valid reduction maps everything together;
	// tightness is the diagonal-cell contribution (cost 0) = 0.
	red, stats, err := OptimizeAll(BaseAssignment(d), 1, flows, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if red.ReducedDims() != 1 || stats.Tightness != 0 {
		t.Errorf("d'=1: dims %d tightness %g", red.ReducedDims(), stats.Tightness)
	}

	// d' = d: the identity-like partition is reachable and maximal —
	// every dimension its own group recovers the full Eq. 12 value.
	idAssign := make([]int, d)
	for i := range idAssign {
		idAssign[i] = i
	}
	red, stats, err = OptimizeMod(idAssign, d, flows, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moves != 0 {
		t.Errorf("d'=d: identity start should already be optimal for singleton groups, made %d moves", stats.Moves)
	}
	if red.ReducedDims() != d {
		t.Errorf("d'=d: reduced dims %d", red.ReducedDims())
	}
}
