// Package transport provides the exact solver for the balanced
// transportation problem, the linear program underlying the Earth
// Mover's Distance (Definition 1 of Wichterich et al., SIGMOD 2008):
//
//	minimize   sum_ij c_ij f_ij
//	subject to f_ij >= 0, sum_j f_ij = supply_i, sum_i f_ij = demand_j
//
// The solver is the transportation simplex: Vogel initialization,
// MODI/u-v dual updates, a spanning-tree basis and deterministic
// pivoting. It terminates by construction. A pivot that moves flow
// strictly lowers the objective, so no basis repeats across one; once
// m+n consecutive pivots move none, pricing switches to Bland's rule
// (smallest-index entering cell, smallest-index leaving cell) until
// the next pivot that does, and Bland's rule cannot cycle. The pivot
// cap that remains is an invariant check: crossing it is a bug and
// returns ErrIterationLimit. Solutions carry the optimal flow matrix,
// which the flow-based reduction heuristics of the paper consume.
package transport

import (
	"errors"
	"fmt"
	"math"
)

// MassTolerance is the maximum allowed relative imbalance between total
// supply and total demand. Histograms in this code base are normalized
// to total mass one, so any real imbalance indicates a caller bug.
const MassTolerance = 1e-6

// Problem is a balanced transportation problem instance. Cost must have
// len(Supply) rows and len(Demand) columns. Supplies and demands must
// be non-negative and (up to MassTolerance) of equal total mass.
type Problem struct {
	Supply []float64
	Demand []float64
	Cost   [][]float64
}

// Solution holds the result of solving a Problem.
type Solution struct {
	// Objective is the minimal total transportation cost.
	Objective float64
	// Flow is the optimal flow matrix (len(Supply) x len(Demand)).
	Flow [][]float64
	// DualU and DualV are optimal dual potentials satisfying
	// DualU[i]+DualV[j] <= Cost[i][j] for all cells. They serve as an
	// optimality certificate via strong duality.
	DualU, DualV []float64
	// Iterations counts simplex pivots.
	Iterations int
}

// ErrIterationLimit is returned (wrapped) when a solve crosses the
// pivot cap. The pivot rule terminates by construction, so this is an
// invariant failure, never an expected outcome.
var ErrIterationLimit = errors.New("transport: iteration limit exceeded")

// Validate checks that p is a well-formed balanced transportation
// problem and returns a descriptive error otherwise.
func Validate(p Problem) error {
	m, n := len(p.Supply), len(p.Demand)
	if m == 0 || n == 0 {
		return fmt.Errorf("transport: empty problem (%d supplies, %d demands)", m, n)
	}
	if len(p.Cost) != m {
		return fmt.Errorf("transport: cost matrix has %d rows, want %d", len(p.Cost), m)
	}
	var sumS, sumD float64
	for i, s := range p.Supply {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("transport: invalid supply[%d] = %g", i, s)
		}
		sumS += s
	}
	for j, d := range p.Demand {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("transport: invalid demand[%d] = %g", j, d)
		}
		sumD += d
	}
	for i, row := range p.Cost {
		if len(row) != n {
			return fmt.Errorf("transport: cost row %d has %d columns, want %d", i, len(row), n)
		}
		for j, c := range row {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("transport: invalid cost[%d][%d] = %g", i, j, c)
			}
		}
	}
	scale := math.Max(sumS, sumD)
	if scale == 0 {
		// Zero total mass: the trivial all-zero flow is optimal, let
		// the solvers handle it.
		return nil
	}
	if math.Abs(sumS-sumD)/scale > MassTolerance {
		return fmt.Errorf("transport: unbalanced problem: total supply %g, total demand %g", sumS, sumD)
	}
	return nil
}

// Solve validates p and solves it with the transportation simplex from
// a Vogel start. The returned solution carries optimal dual potentials.
//
// Every call compiles p.Cost afresh, which costs about as much as the
// solve itself: callers that solve many problems over one cost matrix
// use a Solver.
func Solve(p Problem) (*Solution, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	s, err := NewSolver(p.Cost)
	if err != nil {
		return nil, err
	}
	return s.SolveFlow(p.Supply, p.Demand)
}

// objective computes sum_ij cost_ij * flow_ij.
func objective(cost, flow [][]float64) float64 {
	var total float64
	for i, row := range flow {
		crow := cost[i]
		for j, f := range row {
			if f != 0 {
				total += crow[j] * f
			}
		}
	}
	return total
}

// CheckFeasible verifies that flow satisfies the constraints of p up to
// tol (absolute per row/column). It is exported for use in tests and in
// the library's paranoid verification mode.
func CheckFeasible(p Problem, flow [][]float64, tol float64) error {
	m, n := len(p.Supply), len(p.Demand)
	if len(flow) != m {
		return fmt.Errorf("transport: flow has %d rows, want %d", len(flow), m)
	}
	colSum := make([]float64, n)
	for i, row := range flow {
		if len(row) != n {
			return fmt.Errorf("transport: flow row %d has %d columns, want %d", i, len(row), n)
		}
		var rowSum float64
		for j, f := range row {
			if f < -tol {
				return fmt.Errorf("transport: negative flow[%d][%d] = %g", i, j, f)
			}
			rowSum += f
			colSum[j] += f
		}
		if math.Abs(rowSum-p.Supply[i]) > tol {
			return fmt.Errorf("transport: row %d ships %g, supply is %g", i, rowSum, p.Supply[i])
		}
	}
	for j, cs := range colSum {
		if math.Abs(cs-p.Demand[j]) > tol {
			return fmt.Errorf("transport: column %d receives %g, demand is %g", j, cs, p.Demand[j])
		}
	}
	return nil
}
