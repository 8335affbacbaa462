// Package emd implements the Earth Mover's Distance of Definition 1 in
// Wichterich et al. (SIGMOD 2008): the minimal cost of transforming one
// non-negative, mass-normalized histogram into another under a ground
// distance given as a cost matrix. The package also provides the
// common cost-matrix constructors used by the paper's application
// domains (1-D linear bins, positional Lp distances, image tilings) and
// rectangular EMDs between histograms of different dimensionality, as
// required by asymmetric query/database reductions.
package emd

import (
	"fmt"
	"math"
	"sync/atomic"

	"emdsearch/internal/transport"
	"emdsearch/internal/vecmath"
)

// NormalizationTolerance is the maximum deviation of a histogram's
// total mass from 1 accepted by Validate.
const NormalizationTolerance = 1e-6

// Histogram is a non-negative feature vector of normalized total mass.
// It is a plain slice so that callers can construct and manipulate it
// with ordinary Go code.
type Histogram = []float64

// CostMatrix is the ground distance between histogram bins: Cost[i][j]
// is the cost of moving one unit of mass from bin i to bin j. It may be
// rectangular when source and target histograms have different
// dimensionality (reduced EMD with R1 != R2).
type CostMatrix [][]float64

// Rows returns the number of source bins covered by c.
func (c CostMatrix) Rows() int { return len(c) }

// Cols returns the number of target bins covered by c, 0 for an empty
// matrix.
func (c CostMatrix) Cols() int {
	if len(c) == 0 {
		return 0
	}
	return len(c[0])
}

// Validate checks that c is rectangular with non-negative finite
// entries.
func (c CostMatrix) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("emd: empty cost matrix")
	}
	n := len(c[0])
	for i, row := range c {
		if len(row) != n {
			return fmt.Errorf("emd: cost row %d has %d columns, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("emd: invalid cost[%d][%d] = %g", i, j, v)
			}
		}
	}
	return nil
}

// IsSymmetric reports whether c is square with c[i][j] == c[j][i].
func (c CostMatrix) IsSymmetric() bool {
	if c.Rows() != c.Cols() {
		return false
	}
	for i := range c {
		for j := i + 1; j < len(c); j++ {
			if c[i][j] != c[j][i] {
				return false
			}
		}
	}
	return true
}

// IsMetric reports whether square c has a zero diagonal, is symmetric
// and satisfies the triangle inequality up to tol. The EMD is itself a
// metric exactly when its ground distance is one.
func (c CostMatrix) IsMetric(tol float64) bool {
	d := c.Rows()
	if d != c.Cols() {
		return false
	}
	for i := 0; i < d; i++ {
		if c[i][i] > tol {
			return false
		}
		for j := 0; j < d; j++ {
			if math.Abs(c[i][j]-c[j][i]) > tol {
				return false
			}
			for k := 0; k < d; k++ {
				if c[i][j] > c[i][k]+c[k][j]+tol {
					return false
				}
			}
		}
	}
	return true
}

// Validate checks that h is a valid EMD operand: non-negative entries
// of total mass 1 up to NormalizationTolerance.
func Validate(h Histogram) error {
	if len(h) == 0 {
		return fmt.Errorf("emd: empty histogram")
	}
	for i, v := range h {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("emd: invalid histogram entry [%d] = %g", i, v)
		}
	}
	if mass := vecmath.Sum(h); math.Abs(mass-1) > NormalizationTolerance {
		return fmt.Errorf("emd: histogram mass %g, want 1", mass)
	}
	return nil
}

// Normalize returns a normalized copy of h (total mass one). It panics
// if h has no positive mass.
func Normalize(h Histogram) Histogram {
	return vecmath.Normalize(vecmath.Clone(h))
}

// Distance computes the Earth Mover's Distance between x and y under
// the ground distance c. The cost matrix must have len(x) rows and
// len(y) columns. Histograms are validated on every call; use a
// precompiled Dist for query loops.
func Distance(x, y Histogram, c CostMatrix) (float64, error) {
	sol, err := solve(x, y, c)
	if err != nil {
		return 0, err
	}
	return sol.Objective, nil
}

// DistanceWithFlow computes the EMD and additionally returns the
// optimal flow matrix F with F[i][j] the mass moved from bin i of x to
// bin j of y. The flow-based reduction heuristics consume these flows.
func DistanceWithFlow(x, y Histogram, c CostMatrix) (float64, [][]float64, error) {
	sol, err := solve(x, y, c)
	if err != nil {
		return 0, nil, err
	}
	return sol.Objective, sol.Flow, nil
}

func solve(x, y Histogram, c CostMatrix) (*transport.Solution, error) {
	if err := Validate(x); err != nil {
		return nil, fmt.Errorf("emd: source: %w", err)
	}
	if err := Validate(y); err != nil {
		return nil, fmt.Errorf("emd: target: %w", err)
	}
	if c.Rows() != len(x) || c.Cols() != len(y) {
		return nil, fmt.Errorf("emd: cost matrix is %dx%d, histograms are %d and %d dimensional",
			c.Rows(), c.Cols(), len(x), len(y))
	}
	return transport.Solve(transport.Problem{Supply: x, Demand: y, Cost: c})
}

// Dist is a compiled EMD for a fixed cost matrix. It validates and
// compiles the cost matrix once (see transport.Solver) and pools the
// solver working state, making Distance allocation-free on the hot
// path. Dist is safe for concurrent use.
type Dist struct {
	cost   CostMatrix
	solver *transport.Solver
}

// NewDist validates c once and returns a compiled distance function.
func NewDist(c CostMatrix) (*Dist, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	solver, err := transport.NewSolver(c)
	if err != nil {
		return nil, err
	}
	return &Dist{cost: c, solver: solver}, nil
}

// Cost returns the ground-distance matrix of d.
func (d *Dist) Cost() CostMatrix { return d.cost }

// Dims returns the expected source and target dimensionality.
func (d *Dist) Dims() (rows, cols int) { return d.cost.Rows(), d.cost.Cols() }

// SSPFallbacks returns how many computations of d exceeded the simplex
// pivot budget and were answered by the (slow, allocating) SSP solver
// instead. Nonzero values mean the fallback is not dead code on this
// workload.
func (d *Dist) SSPFallbacks() int64 { return d.solver.SSPFallbacks() }

// Distance computes the EMD between x and y. The histograms are
// trusted to be valid operands (non-negative, normalized) and are not
// re-validated; this is the fast path for inner loops — no allocation
// beyond the pooled solver state, and zero-mass bins stripped before
// solving. Use DistanceValidated when the operands are not under the
// caller's control.
func (d *Dist) Distance(x, y Histogram) float64 {
	res, err := d.solver.SolveValueBounded(x, y, math.Inf(1))
	if err != nil {
		panic(fmt.Sprintf("emd: solver failed on trusted input: %v", err))
	}
	return res.Value
}

// BoundedDistance is the outcome of a threshold-aware EMD computation;
// see transport.BoundedResult for the field semantics (Value is the
// exact EMD, or a certified lower bound on it when Aborted).
type BoundedDistance = transport.BoundedResult

// DistanceBounded computes the EMD between x and y, abandoning the
// solve as soon as a certified lower bound on the distance exceeds
// abortAbove. This is the refinement kernel of threshold-aware k-NN
// and range search: the certified bound guarantees an aborted
// candidate's true distance lies above the live pruning threshold, so
// discarding it cannot change results. With abortAbove = +Inf it
// behaves exactly like Distance. Operands are trusted, as in Distance.
func (d *Dist) DistanceBounded(x, y Histogram, abortAbove float64) BoundedDistance {
	res, err := d.solver.SolveValueBounded(x, y, abortAbove)
	if err != nil {
		panic(fmt.Sprintf("emd: solver failed on trusted input: %v", err))
	}
	return res
}

// DistanceBoundedIntr is DistanceBounded with a cooperative interrupt
// flag polled inside the simplex pivot loop: once intr is set the
// solve stops within one pivot's worth of work and the result carries
// Interrupted=true with Value a certified lower bound on the true EMD
// (weak duality). This is how a query deadline cuts short even a
// single large refinement. A nil intr is byte-identical to
// DistanceBounded. Operands are trusted, as in Distance.
func (d *Dist) DistanceBoundedIntr(x, y Histogram, abortAbove float64, intr *atomic.Bool) BoundedDistance {
	res, err := d.solver.SolveValueBoundedIntr(x, y, abortAbove, intr)
	if err != nil {
		panic(fmt.Sprintf("emd: solver failed on trusted input: %v", err))
	}
	return res
}

// DistanceValidated computes the EMD between x and y after validating
// both histograms, with the legacy unbounded kernel: full dense shape,
// run to optimality. Its value is bit-identical to Distance's — the
// solvers share the canonical objective — at the cost of per-call
// validation and no sparsity savings. It exists
// for callers with untrusted operands and as the comparison baseline
// for benchmarking the bounded kernel.
func (d *Dist) DistanceValidated(x, y Histogram) (float64, error) {
	if err := Validate(x); err != nil {
		return 0, fmt.Errorf("emd: source: %w", err)
	}
	if err := Validate(y); err != nil {
		return 0, fmt.Errorf("emd: target: %w", err)
	}
	return d.solver.SolveValue(x, y)
}

// DistanceWithFlow computes the EMD and the optimal flow matrix on the
// compiled solver of d. Operands are trusted, as in Distance; the
// returned flow is the caller's own.
func (d *Dist) DistanceWithFlow(x, y Histogram) (float64, [][]float64) {
	sol, err := d.solver.SolveFlow(x, y)
	if err != nil {
		panic(fmt.Sprintf("emd: solver failed on trusted input: %v", err))
	}
	return sol.Objective, sol.Flow
}
