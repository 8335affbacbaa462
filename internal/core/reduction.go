// Package core implements the paper's primary contribution: flexible
// dimensionality reduction for the Earth Mover's Distance
// (Wichterich et al., SIGMOD 2008, Section 3).
//
// A combining reduction (Definition 3) assigns each of d original
// dimensions to exactly one of d' reduced dimensions; applying it to a
// histogram sums the mass of each group, preserving total mass. The
// optimal reduced cost matrix (Definition 5) takes the minimum original
// cost between two groups, which Theorems 1-3 of the paper prove to be
// the greatest lower bound achievable for the given reductions. The
// reduced EMD is again an EMD, so it can be chained with further EMD
// lower bounds (Section 4).
package core

import (
	"fmt"
	"math"

	"emdsearch/internal/emd"
	"emdsearch/internal/vecmath"
)

// Reduction is a combining dimensionality reduction R in the set
// \Re_{d,d'} of Definition 3, stored compactly as an assignment from
// original to reduced dimensions rather than as a 0/1 matrix.
type Reduction struct {
	assign  []int // original dimension -> reduced dimension
	reduced int   // d'
}

// NewReduction builds a combining reduction from the given assignment.
// assign[i] is the reduced dimension of original dimension i; values
// must lie in [0, reduced) and every reduced dimension must receive at
// least one original dimension (restriction (8) of Definition 3).
func NewReduction(assign []int, reduced int) (*Reduction, error) {
	if len(assign) == 0 {
		return nil, fmt.Errorf("core: empty assignment")
	}
	if reduced < 1 || reduced > len(assign) {
		return nil, fmt.Errorf("core: reduced dimensionality %d out of range [1, %d]", reduced, len(assign))
	}
	seen := make([]bool, reduced)
	for i, r := range assign {
		if r < 0 || r >= reduced {
			return nil, fmt.Errorf("core: assign[%d] = %d out of range [0, %d)", i, r, reduced)
		}
		seen[r] = true
	}
	for r, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("core: reduced dimension %d receives no original dimension", r)
		}
	}
	return &Reduction{assign: append([]int(nil), assign...), reduced: reduced}, nil
}

// OriginalDims returns d, the original dimensionality.
func (r *Reduction) OriginalDims() int { return len(r.assign) }

// ReducedDims returns d', the reduced dimensionality.
func (r *Reduction) ReducedDims() int { return r.reduced }

// Assignment returns a copy of the assignment vector.
func (r *Reduction) Assignment() []int {
	return append([]int(nil), r.assign...)
}

// Groups returns, for each reduced dimension, the original dimensions
// assigned to it (the sets {i | r_{ii'} = 1}).
func (r *Reduction) Groups() [][]int {
	groups := make([][]int, r.reduced)
	for i, g := range r.assign {
		groups[g] = append(groups[g], i)
	}
	return groups
}

// Apply reduces histogram x to d' dimensions: x' = x * R. Mass is
// conserved exactly (each original dimension contributes to exactly one
// reduced dimension).
func (r *Reduction) Apply(x emd.Histogram) emd.Histogram {
	if len(x) != len(r.assign) {
		panic(fmt.Sprintf("core: Apply on %d-dimensional histogram, reduction expects %d", len(x), len(r.assign)))
	}
	out := make(emd.Histogram, r.reduced)
	for i, v := range x {
		out[r.assign[i]] += v
	}
	return out
}

// Equal reports whether r and s describe the same reduction.
func (r *Reduction) Equal(s *Reduction) bool {
	if r.reduced != s.reduced || len(r.assign) != len(s.assign) {
		return false
	}
	for i, g := range r.assign {
		if s.assign[i] != g {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of r.
func (r *Reduction) Clone() *Reduction {
	return &Reduction{assign: append([]int(nil), r.assign...), reduced: r.reduced}
}

// ReduceCost computes the optimal reduced cost matrix of Definition 5
// for source reduction r1 and target reduction r2 applied to the
// original cost matrix c:
//
//	c'_{i'j'} = min{ c_ij | r1 assigns i to i', r2 assigns j to j' }
//
// By Theorem 1 the resulting reduced EMD lower-bounds the original EMD
// and by Theorem 3 no entry can be increased without losing that
// property.
func ReduceCost(c emd.CostMatrix, r1, r2 *Reduction) (emd.CostMatrix, error) {
	if c.Rows() != r1.OriginalDims() {
		return nil, fmt.Errorf("core: cost matrix has %d rows, source reduction expects %d", c.Rows(), r1.OriginalDims())
	}
	if c.Cols() != r2.OriginalDims() {
		return nil, fmt.Errorf("core: cost matrix has %d columns, target reduction expects %d", c.Cols(), r2.OriginalDims())
	}
	out := vecmath.NewMatrix(r1.ReducedDims(), r2.ReducedDims())
	for i := range out {
		for j := range out[i] {
			out[i][j] = math.Inf(1)
		}
	}
	for i, gi := range r1.assign {
		row := c[i]
		orow := out[gi]
		for j, cij := range row {
			gj := r2.assign[j]
			if cij < orow[gj] {
				orow[gj] = cij
			}
		}
	}
	return out, nil
}

// ReducedEMD bundles a pair of reductions with their optimal reduced
// cost matrix (Definition 4). Its Distance lower-bounds the original
// EMD for all valid histogram pairs.
//
// A reduced EMD is only ever a filter, so every method evaluates
// through the kernel's lower-bound exit (emd.Dist.LowerBound): the
// value is a certified lower bound on the reduced EMD, at most
// ~1e-10·Cmax' below it, which lower-bounds the original EMD all the
// more. It is not the canonical reduced EMD; nothing reports it.
type ReducedEMD struct {
	r1, r2 *Reduction
	dist   *emd.Dist
}

// NewReducedEMD precomputes the reduced EMD for source reduction r1 and
// target reduction r2 under original ground distance c. Pass the same
// reduction twice for the symmetric case the paper focuses on.
func NewReducedEMD(c emd.CostMatrix, r1, r2 *Reduction) (*ReducedEMD, error) {
	reduced, err := ReduceCost(c, r1, r2)
	if err != nil {
		return nil, err
	}
	dist, err := emd.NewDist(reduced)
	if err != nil {
		return nil, fmt.Errorf("core: reduced cost matrix invalid: %w", err)
	}
	return &ReducedEMD{r1: r1, r2: r2, dist: dist}, nil
}

// Source returns the query-side reduction R1.
func (re *ReducedEMD) Source() *Reduction { return re.r1 }

// Cost returns the optimal reduced cost matrix C'.
func (re *ReducedEMD) Cost() emd.CostMatrix { return re.dist.Cost() }

// Distance computes EMD_{C'}(x*R1, y*R2) from original-dimensional
// histograms.
func (re *ReducedEMD) Distance(x, y emd.Histogram) float64 {
	return re.DistanceReduced(re.r1.Apply(x), re.r2.Apply(y))
}

// DistanceReduced computes the reduced EMD from already-reduced
// histograms, the fast path when reduced database vectors are
// precomputed.
func (re *ReducedEMD) DistanceReduced(xr, yr emd.Histogram) float64 {
	return re.dist.LowerBound(xr, yr, math.Inf(1)).Value
}

// DistanceReducedBounded is the threshold-aware form of DistanceReduced
// for a filter stage that knows the query's live pruning threshold: the
// solve stops as soon as a certified lower bound on the reduced EMD
// exceeds abortAbove (see emd.Dist.DistanceBounded). The reduced EMD
// lower-bounds the original one, so an aborted Value does too. A
// completed Value is bit-identical to DistanceReduced's.
func (re *ReducedEMD) DistanceReducedBounded(xr, yr emd.Histogram, abortAbove float64) emd.BoundedDistance {
	return re.dist.LowerBound(xr, yr, abortAbove)
}
