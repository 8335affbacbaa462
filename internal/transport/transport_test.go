package transport

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// CheckOptimal verifies a simplex solution via strong duality: the
// duals must be feasible (u_i + v_j <= c_ij everywhere up to tol) and
// the dual objective sum_i supply_i*u_i + sum_j demand_j*v_j must match
// the primal objective. A solution passing both checks is provably
// optimal irrespective of how it was computed.
func CheckOptimal(p Problem, sol *Solution, tol float64) error {
	if sol.DualU == nil || sol.DualV == nil {
		return errors.New("transport: solution carries no duals")
	}
	if err := CheckFeasible(p, sol.Flow, tol); err != nil {
		return err
	}
	for i, u := range sol.DualU {
		for j, v := range sol.DualV {
			if u+v > p.Cost[i][j]+tol {
				return fmt.Errorf("transport: infeasible dual u[%d]+v[%d] = %g > cost %g", i, j, u+v, p.Cost[i][j])
			}
		}
	}
	var dual float64
	for i, u := range sol.DualU {
		dual += p.Supply[i] * u
	}
	for j, v := range sol.DualV {
		dual += p.Demand[j] * v
	}
	if math.Abs(dual-sol.Objective) > tol*(1+math.Abs(sol.Objective)) {
		return fmt.Errorf("transport: duality gap: primal %g, dual %g", sol.Objective, dual)
	}
	return nil
}

// randomProblem builds a random balanced transportation instance with
// the given shape. Costs are uniform in [0, 10); masses normalize to 1.
func randomProblem(rng *rand.Rand, m, n int, sparse bool) Problem {
	cost := make([][]float64, m)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = 10 * rng.Float64()
		}
	}
	return randomMarginals(rng, cost, sparse)
}

// randomMarginals draws random marginals of total mass 1 over the given
// cost matrix; with sparse set, about a third of the bins are empty.
func randomMarginals(rng *rand.Rand, cost [][]float64, sparse bool) Problem {
	supply := make([]float64, len(cost))
	demand := make([]float64, len(cost[0]))
	for i := range supply {
		supply[i] = rng.Float64()
		if sparse && rng.Intn(3) == 0 {
			supply[i] = 0
		}
	}
	for j := range demand {
		demand[j] = rng.Float64()
		if sparse && rng.Intn(3) == 0 {
			demand[j] = 0
		}
	}
	normalize(supply)
	normalize(demand)
	return Problem{Supply: supply, Demand: demand, Cost: cost}
}

func normalize(xs []float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		xs[0] = 1
		return
	}
	for i := range xs {
		xs[i] /= sum
	}
}

func manhattanCost(d int) [][]float64 {
	c := make([][]float64, d)
	for i := range c {
		c[i] = make([]float64, d)
		for j := range c[i] {
			c[i][j] = math.Abs(float64(i - j))
		}
	}
	return c
}

func TestValidate(t *testing.T) {
	good := Problem{
		Supply: []float64{0.5, 0.5},
		Demand: []float64{0.25, 0.75},
		Cost:   [][]float64{{0, 1}, {1, 0}},
	}
	if err := Validate(good); err != nil {
		t.Fatalf("Validate(good) = %v, want nil", err)
	}
	cases := []struct {
		name string
		p    Problem
	}{
		{"empty", Problem{}},
		{"negative supply", Problem{Supply: []float64{-1, 2}, Demand: []float64{0.5, 0.5}, Cost: [][]float64{{0, 1}, {1, 0}}}},
		{"negative demand", Problem{Supply: []float64{0.5, 0.5}, Demand: []float64{-0.5, 1.5}, Cost: [][]float64{{0, 1}, {1, 0}}}},
		{"nan cost", Problem{Supply: []float64{0.5, 0.5}, Demand: []float64{0.5, 0.5}, Cost: [][]float64{{0, math.NaN()}, {1, 0}}}},
		{"negative cost", Problem{Supply: []float64{0.5, 0.5}, Demand: []float64{0.5, 0.5}, Cost: [][]float64{{0, -1}, {1, 0}}}},
		{"unbalanced", Problem{Supply: []float64{1, 1}, Demand: []float64{0.5, 0.5}, Cost: [][]float64{{0, 1}, {1, 0}}}},
		{"ragged cost", Problem{Supply: []float64{0.5, 0.5}, Demand: []float64{0.5, 0.5}, Cost: [][]float64{{0, 1}, {1}}}},
		{"short cost", Problem{Supply: []float64{0.5, 0.5}, Demand: []float64{0.5, 0.5}, Cost: [][]float64{{0, 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Validate(tc.p); err == nil {
				t.Fatalf("Validate(%s) = nil, want error", tc.name)
			}
		})
	}
}

func TestSimplexPaperExample(t *testing.T) {
	// Figure 1 of the paper: EMD(x,y) = 1.0 and EMD(x,z) = 1.6 under
	// Manhattan ground distance on 6 bins.
	x := []float64{0.5, 0, 0.2, 0, 0.3, 0}
	y := []float64{0, 0.5, 0, 0.2, 0, 0.3}
	z := []float64{1, 0, 0, 0, 0, 0}
	c := manhattanCost(6)

	sol, err := Solve(Problem{Supply: x, Demand: y, Cost: c})
	if err != nil {
		t.Fatalf("Solve(x,y): %v", err)
	}
	if math.Abs(sol.Objective-1.0) > 1e-12 {
		t.Errorf("EMD(x,y) = %g, want 1.0", sol.Objective)
	}
	sol, err = Solve(Problem{Supply: x, Demand: z, Cost: c})
	if err != nil {
		t.Fatalf("Solve(x,z): %v", err)
	}
	if math.Abs(sol.Objective-1.6) > 1e-12 {
		t.Errorf("EMD(x,z) = %g, want 1.6", sol.Objective)
	}
}

func TestSimplexIdenticalHistograms(t *testing.T) {
	x := []float64{0.25, 0.25, 0.25, 0.25}
	sol, err := Solve(Problem{Supply: x, Demand: x, Cost: manhattanCost(4)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective > 1e-12 {
		t.Errorf("EMD(x,x) = %g, want 0", sol.Objective)
	}
}

func TestSimplexSingleBin(t *testing.T) {
	sol, err := Solve(Problem{
		Supply: []float64{1},
		Demand: []float64{1},
		Cost:   [][]float64{{3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-3) > 1e-12 {
		t.Errorf("objective = %g, want 3", sol.Objective)
	}
}

func TestSimplexRectangular(t *testing.T) {
	// Rectangular instance (d1 != d2), as needed for asymmetric
	// query/database reductions (R1 != R2).
	p := Problem{
		Supply: []float64{0.6, 0.4},
		Demand: []float64{0.3, 0.3, 0.4},
		Cost:   [][]float64{{0, 1, 2}, {2, 1, 0}},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: 0.3 via (0,0)@0, 0.3 via (0,1)@1, 0.4 via (1,2)@0 = 0.3.
	if math.Abs(sol.Objective-0.3) > 1e-12 {
		t.Errorf("objective = %g, want 0.3", sol.Objective)
	}
	if err := CheckOptimal(p, sol, 1e-9); err != nil {
		t.Errorf("CheckOptimal: %v", err)
	}
}

func TestSimplexDegenerateMasses(t *testing.T) {
	// Many zero bins force degenerate pivots.
	p := Problem{
		Supply: []float64{1, 0, 0, 0, 0},
		Demand: []float64{0, 0, 0, 0, 1},
		Cost:   manhattanCost(5),
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-4) > 1e-12 {
		t.Errorf("objective = %g, want 4", sol.Objective)
	}
}

func TestSimplexMatchesSSPRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ m, n int }{
		{2, 2}, {3, 5}, {5, 3}, {8, 8}, {16, 16}, {16, 4}, {1, 7}, {7, 1}, {24, 24},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 25; trial++ {
			sparse := trial%2 == 0
			p := randomProblem(rng, sh.m, sh.n, sparse)
			s1, err := Solve(p)
			if err != nil {
				t.Fatalf("simplex %dx%d trial %d: %v", sh.m, sh.n, trial, err)
			}
			s2, err := solveSSP(p)
			if err != nil {
				t.Fatalf("ssp %dx%d trial %d: %v", sh.m, sh.n, trial, err)
			}
			if diff := math.Abs(s1.Objective - s2.Objective); diff > 1e-8 {
				t.Fatalf("%dx%d trial %d: simplex %.12g vs ssp %.12g (diff %g)",
					sh.m, sh.n, trial, s1.Objective, s2.Objective, diff)
			}
			if err := CheckFeasible(p, s1.Flow, 1e-9); err != nil {
				t.Fatalf("simplex flow infeasible: %v", err)
			}
			if err := CheckFeasible(p, s2.Flow, 1e-9); err != nil {
				t.Fatalf("ssp flow infeasible: %v", err)
			}
			if err := CheckOptimal(p, s1, 1e-8); err != nil {
				t.Fatalf("simplex duality certificate failed: %v", err)
			}
		}
	}
}

func TestNorthwestStartReachesSameOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 6+trial%5, 6+(trial/2)%5, trial%3 == 0)
		a, err := solveFrom(p, Vogel)
		if err != nil {
			t.Fatalf("vogel trial %d: %v", trial, err)
		}
		b, err := solveFrom(p, Northwest)
		if err != nil {
			t.Fatalf("northwest trial %d: %v", trial, err)
		}
		if diff := math.Abs(a.Objective - b.Objective); diff > 1e-9 {
			t.Fatalf("trial %d: vogel %.12g vs northwest %.12g", trial, a.Objective, b.Objective)
		}
	}
}

func TestVogelNeedsFewerPivotsThanNorthwest(t *testing.T) {
	// Not a hard guarantee per instance, but overwhelmingly true in
	// aggregate; this guards the initializer against regressions that
	// would silently destroy its purpose.
	rng := rand.New(rand.NewSource(11))
	var vogel, northwest int
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, 12, 12, false)
		a, err := solveFrom(p, Vogel)
		if err != nil {
			t.Fatal(err)
		}
		b, err := solveFrom(p, Northwest)
		if err != nil {
			t.Fatal(err)
		}
		vogel += a.Iterations
		northwest += b.Iterations
	}
	if vogel >= northwest {
		t.Errorf("vogel start used %d total pivots, northwest %d; expected fewer", vogel, northwest)
	}
}

func TestSolveZeroTotalMass(t *testing.T) {
	p := Problem{
		Supply: []float64{0, 0},
		Demand: []float64{0, 0},
		Cost:   [][]float64{{0, 1}, {1, 0}},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 0 {
		t.Errorf("objective = %g, want 0", sol.Objective)
	}
}

func TestSolutionFlowShape(t *testing.T) {
	p := Problem{
		Supply: []float64{0.5, 0.5},
		Demand: []float64{0.2, 0.3, 0.5},
		Cost:   [][]float64{{1, 2, 3}, {4, 5, 6}},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Flow) != 2 || len(sol.Flow[0]) != 3 {
		t.Errorf("flow shape %dx%d, want 2x3", len(sol.Flow), len(sol.Flow[0]))
	}
}

func TestCheckFeasibleRejectsBadFlow(t *testing.T) {
	p := Problem{
		Supply: []float64{0.5, 0.5},
		Demand: []float64{0.5, 0.5},
		Cost:   [][]float64{{0, 1}, {1, 0}},
	}
	bad := [][]float64{{0.5, 0.2}, {0, 0.5}} // row 0 ships 0.7
	if err := CheckFeasible(p, bad, 1e-9); err == nil {
		t.Fatal("CheckFeasible accepted an infeasible flow")
	}
	neg := [][]float64{{0.6, -0.1}, {-0.1, 0.6}}
	if err := CheckFeasible(p, neg, 1e-9); err == nil {
		t.Fatal("CheckFeasible accepted a negative flow")
	}
}

func TestCheckOptimalRejectsSuboptimal(t *testing.T) {
	p := Problem{
		Supply: []float64{1, 0},
		Demand: []float64{0, 1},
		Cost:   [][]float64{{0, 1}, {1, 0}},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the duals so they no longer certify.
	sol.DualU[0] += 10
	if err := CheckOptimal(p, sol, 1e-9); err == nil {
		t.Fatal("CheckOptimal accepted corrupted duals")
	}
}

func TestSimplexHighlyDegenerateGrid(t *testing.T) {
	// Identical uniform histograms on a large grid: all flow stays on
	// the diagonal; every pivot is degenerate.
	const d = 32
	x := make([]float64, d)
	for i := range x {
		x[i] = 1.0 / d
	}
	sol, err := Solve(Problem{Supply: x, Demand: x, Cost: manhattanCost(d)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective > 1e-10 {
		t.Errorf("objective = %g, want 0", sol.Objective)
	}
}

func TestSSPMassConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 10, 14, true)
		sol, err := solveSSP(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFeasible(p, sol.Flow, 1e-8); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSimplexLargerInstanceAgainstSSP(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance in -short mode")
	}
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 64, 64, false)
	a, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveSSP(p)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(a.Objective - b.Objective); diff > 1e-7 {
		t.Fatalf("simplex %.12g vs ssp %.12g (diff %g)", a.Objective, b.Objective, diff)
	}
}

func TestSolverPooledMatchesUnpooled(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cost := randomProblem(rng, 10, 12, false).Cost
	s, err := NewSolver(cost)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		p := randomMarginals(rng, cost, trial%2 == 0)
		got, err := s.SolveValue(p.Supply, p.Demand)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want.Objective) > 1e-9 {
			t.Fatalf("trial %d: pooled %g vs fresh %g", trial, got, want.Objective)
		}
	}
}

func TestSolverShapeMismatch(t *testing.T) {
	s, err := NewSolver(manhattanCost(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveValue([]float64{1, 0}, []float64{0.5, 0.5}); err == nil {
		t.Error("accepted mismatched shape")
	}
	if _, err := s.SolveFlow([]float64{1, 0}, []float64{0.5, 0.5}); err == nil {
		t.Error("SolveFlow accepted mismatched shape")
	}
	if _, err := NewSolver(nil); err == nil {
		t.Error("accepted empty cost matrix")
	}
	if _, err := NewSolver([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("accepted ragged cost matrix")
	}
	if m, n := s.cc.m, s.cc.n; m != 3 || n != 3 {
		t.Errorf("shape = %d, %d", m, n)
	}
}

func TestSolverConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cost := randomProblem(rng, 8, 8, false).Cost
	s, err := NewSolver(cost)
	if err != nil {
		t.Fatal(err)
	}
	problems := make([]Problem, 16)
	wants := make([]float64, 16)
	for i := range problems {
		problems[i] = randomMarginals(rng, cost, false)
		sol, err := Solve(problems[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = sol.Objective
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (w*7 + rep) % len(problems)
				got, err := s.SolveValue(problems[i].Supply, problems[i].Demand)
				if err != nil {
					errs[w] = err
					return
				}
				if math.Abs(got-wants[i]) > 1e-9 {
					errs[w] = fmt.Errorf("worker %d: problem %d: %g != %g", w, i, got, wants[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRussellStartReachesSameOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 5+trial%6, 5+(trial/3)%6, trial%3 == 0)
		a, err := solveFrom(p, Vogel)
		if err != nil {
			t.Fatalf("vogel trial %d: %v", trial, err)
		}
		b, err := solveFrom(p, Russell)
		if err != nil {
			t.Fatalf("russell trial %d: %v", trial, err)
		}
		if diff := math.Abs(a.Objective - b.Objective); diff > 1e-9 {
			t.Fatalf("trial %d: vogel %.12g vs russell %.12g", trial, a.Objective, b.Objective)
		}
	}
}

func TestRussellBetterStartThanNorthwest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var russell, northwest int
	for trial := 0; trial < 25; trial++ {
		p := randomProblem(rng, 12, 12, false)
		a, err := solveFrom(p, Russell)
		if err != nil {
			t.Fatal(err)
		}
		b, err := solveFrom(p, Northwest)
		if err != nil {
			t.Fatal(err)
		}
		russell += a.Iterations
		northwest += b.Iterations
	}
	if russell >= northwest {
		t.Errorf("russell start used %d total pivots, northwest %d; expected fewer", russell, northwest)
	}
}

// BenchmarkEMDSolvers compares the simplex with the SSP oracle on one
// d = 64 problem over the line ground distance.
func BenchmarkEMDSolvers(b *testing.B) {
	p := randomMarginals(rand.New(rand.NewSource(1)), manhattanCost(64), false)
	for _, s := range []struct {
		name  string
		solve func(Problem) (*Solution, error)
	}{{"simplex", Solve}, {"ssp", solveSSP}} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.solve(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
