package transport

import (
	"math"
	"math/rand"
	"testing"
)

// TestRobustnessAllZeroCosts: any feasible flow is optimal at cost 0.
func TestRobustnessAllZeroCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 10, 10, false)
	for i := range p.Cost {
		for j := range p.Cost[i] {
			p.Cost[i][j] = 0
		}
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 0 {
		t.Errorf("objective = %g, want 0", sol.Objective)
	}
	if err := CheckFeasible(p, sol.Flow, 1e-9); err != nil {
		t.Error(err)
	}
}

// TestRobustnessUniformCosts: with every cost equal to c the objective
// is exactly c (total mass 1 moves at cost c regardless of routing).
func TestRobustnessUniformCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomProblem(rng, 8, 12, true)
	const c = 3.75
	for i := range p.Cost {
		for j := range p.Cost[i] {
			p.Cost[i][j] = c
		}
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-c) > 1e-9 {
		t.Errorf("objective = %g, want %g", sol.Objective, c)
	}
}

// TestRobustnessExtremeMagnitudes: costs spanning 1e-12 .. 1e12 must
// not break the relative tolerances.
func TestRobustnessExtremeMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 8, 8, false)
		scale := math.Pow(10, float64(rng.Intn(25)-12))
		for i := range p.Cost {
			for j := range p.Cost[i] {
				p.Cost[i][j] *= scale
			}
		}
		a, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d (scale %g): %v", trial, scale, err)
		}
		b, err := solveSSP(p)
		if err != nil {
			t.Fatalf("trial %d ssp: %v", trial, err)
		}
		if diff := math.Abs(a.Objective - b.Objective); diff > 1e-8*scale {
			t.Fatalf("trial %d (scale %g): simplex %g vs ssp %g", trial, scale, a.Objective, b.Objective)
		}
		if err := CheckOptimal(p, a, 1e-8*math.Max(1, scale)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestRobustnessTinyMasses: histograms with masses at the float
// resolution edge (1e-15 entries next to ~1 entries).
func TestRobustnessTinyMasses(t *testing.T) {
	supply := []float64{1 - 3e-15, 1e-15, 1e-15, 1e-15}
	demand := []float64{1e-15, 1 - 3e-15, 1e-15, 1e-15}
	p := Problem{Supply: supply, Demand: demand, Cost: manhattanCost(4)}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Essentially all mass moves one step.
	if math.Abs(sol.Objective-1) > 1e-9 {
		t.Errorf("objective = %g, want ~1", sol.Objective)
	}
}

// TestRobustnessManyEqualCosts: ties everywhere stress the
// deterministic pivot selection; the solver must terminate and agree
// with SSP.
func TestRobustnessManyEqualCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 12, 12, true)
		for i := range p.Cost {
			for j := range p.Cost[i] {
				// Costs from a tiny alphabet {0, 1, 2}.
				p.Cost[i][j] = float64(rng.Intn(3))
			}
		}
		a, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, err := solveSSP(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if diff := math.Abs(a.Objective - b.Objective); diff > 1e-9 {
			t.Fatalf("trial %d: %g vs %g", trial, a.Objective, b.Objective)
		}
	}
}

// TestRobustnessSingleActiveCell: one positive supply meeting one
// positive demand across many zero bins.
func TestRobustnessSingleActiveCell(t *testing.T) {
	const d = 20
	supply := make([]float64, d)
	demand := make([]float64, d)
	supply[3] = 1
	demand[17] = 1
	sol, err := Solve(Problem{Supply: supply, Demand: demand, Cost: manhattanCost(d)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-14) > 1e-12 {
		t.Errorf("objective = %g, want 14", sol.Objective)
	}
}

// TestRobustnessDeterministicFlows: the simplex must return
// bit-identical flows for repeated solves of the same instance (the
// FB reduction relies on stable flow matrices).
func TestRobustnessDeterministicFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randomProblem(rng, 10, 10, true)
	a, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flow {
		for j := range a.Flow[i] {
			if a.Flow[i][j] != b.Flow[i][j] {
				t.Fatalf("flows differ at (%d,%d)", i, j)
			}
		}
	}
}
