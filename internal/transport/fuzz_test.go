package transport

import (
	"math"
	"testing"
)

// decodeProblem derives a valid balanced transportation problem from
// raw fuzz bytes: the first two bytes pick the shape (1..8 x 1..8), the
// rest feed supplies, demands and costs as values in [0, 1]. Supplies
// and demands are normalized to total mass 1, mirroring the histogram
// setting of the EMD. Returns ok = false when the bytes cannot yield a
// valid instance (e.g. all-zero masses).
func decodeProblem(data []byte) (Problem, bool) {
	if len(data) < 2 {
		return Problem{}, false
	}
	m := int(data[0])%8 + 1
	n := int(data[1])%8 + 1
	data = data[2:]
	need := m + n + m*n
	if len(data) < need {
		return Problem{}, false
	}
	next := func() float64 {
		v := float64(data[0]) / 255
		data = data[1:]
		return v
	}
	normalize := func(vals []float64) bool {
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if sum < 1e-9 {
			return false
		}
		for i := range vals {
			vals[i] /= sum
		}
		return true
	}
	p := Problem{
		Supply: make([]float64, m),
		Demand: make([]float64, n),
		Cost:   make([][]float64, m),
	}
	for i := range p.Supply {
		p.Supply[i] = next()
	}
	for j := range p.Demand {
		p.Demand[j] = next()
	}
	if !normalize(p.Supply) || !normalize(p.Demand) {
		return Problem{}, false
	}
	for i := range p.Cost {
		p.Cost[i] = make([]float64, n)
		for j := range p.Cost[i] {
			p.Cost[i][j] = next()
		}
	}
	return p, true
}

// FuzzTransportSolve checks the solver's contracts on arbitrary valid
// instances: the flow must be feasible and carry a dual optimality
// certificate, the independent SSP solver must agree on
// the objective, and the objective must be invariant under transposing
// the problem (an LP symmetry no correct solver can break).
func FuzzTransportSolve(f *testing.F) {
	// Structured seeds: 1x1, square with zero diagonal, rectangular,
	// and a degenerate instance with equal masses everywhere.
	f.Add([]byte{0, 0, 128, 128, 64})
	f.Add([]byte{2, 2, 200, 55, 10, 245, 0, 128, 128, 0, 77, 11, 99, 200})
	f.Add([]byte{1, 3, 128, 128, 85, 85, 86, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{3, 3, 64, 64, 64, 64, 64, 64, 64, 64, 0, 1, 2, 1, 0, 1, 2, 1, 0, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeProblem(data)
		if !ok {
			t.Skip()
		}
		if err := Validate(p); err != nil {
			t.Fatalf("decoded problem invalid: %v", err)
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		const tol = 1e-7
		if err := CheckFeasible(p, sol.Flow, tol); err != nil {
			t.Fatalf("infeasible flow: %v", err)
		}
		if err := CheckOptimal(p, sol, tol); err != nil {
			t.Fatalf("simplex solution fails duality certificate: %v", err)
		}
		// Independent solver cross-check.
		ssp, err := solveSSP(p)
		if err != nil {
			t.Fatalf("solveSSP: %v", err)
		}
		if err := CheckFeasible(p, ssp.Flow, tol); err != nil {
			t.Fatalf("infeasible SSP flow: %v", err)
		}
		if math.Abs(sol.Objective-ssp.Objective) > tol*(1+math.Abs(sol.Objective)) {
			t.Fatalf("solver disagreement: simplex %g, ssp %g", sol.Objective, ssp.Objective)
		}
		// Bounded kernel: at +Inf it must run to optimality and agree
		// with the reference solvers; below the optimum it may abort,
		// but only on a sound certificate.
		solver, err := NewSolver(p.Cost)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		full, err := solver.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
		if err != nil {
			t.Fatalf("SolveValueBoundedIntr(+Inf): %v", err)
		}
		if full.Aborted {
			t.Fatalf("aborted with abortAbove = +Inf")
		}
		if math.Abs(full.Value-sol.Objective) > tol*(1+math.Abs(sol.Objective)) {
			t.Fatalf("bounded kernel disagreement: %g vs %g", full.Value, sol.Objective)
		}
		bounded, err := solver.SolveValueBoundedIntr(p.Supply, p.Demand, 0.5*full.Value, nil)
		if err != nil {
			t.Fatalf("SolveValueBoundedIntr(opt/2): %v", err)
		}
		if bounded.Aborted {
			if bounded.Value > full.Value+tol*(1+math.Abs(full.Value)) {
				t.Fatalf("certified bound %g exceeds optimum %g", bounded.Value, full.Value)
			}
			if bounded.Value <= 0.5*full.Value {
				t.Fatalf("aborted with bound %g at or below threshold %g", bounded.Value, 0.5*full.Value)
			}
		} else if bounded.Value != full.Value {
			t.Fatalf("completed bounded solve %v != %v", bounded.Value, full.Value)
		}

		// Transposition symmetry: moving demand to supply over the
		// transposed cost is the same LP.
		tp := Problem{
			Supply: p.Demand,
			Demand: p.Supply,
			Cost:   make([][]float64, len(p.Demand)),
		}
		for j := range tp.Cost {
			tp.Cost[j] = make([]float64, len(p.Supply))
			for i := range tp.Cost[j] {
				tp.Cost[j][i] = p.Cost[i][j]
			}
		}
		tsol, err := Solve(tp)
		if err != nil {
			t.Fatalf("Solve(transposed): %v", err)
		}
		if math.Abs(sol.Objective-tsol.Objective) > tol*(1+math.Abs(sol.Objective)) {
			t.Fatalf("transposition asymmetry: %g vs %g", sol.Objective, tsol.Objective)
		}
	})
}
