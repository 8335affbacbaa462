package core

import (
	"fmt"
	"math"

	"emdsearch/internal/emd"
	"emdsearch/internal/vecmath"
)

// UpperCost computes the max-based counterpart of Definition 5:
//
//	c″_{i'j'} = max{ c_ij | r1 assigns i to i', r2 assigns j to j' }
//
// The reduced EMD under c″ *upper*-bounds the original EMD: any
// feasible reduced flow F' expands — by splitting each F'_{i'j'}
// proportionally to the source masses within group i' and the target
// masses within group j' — into a feasible original flow whose cost is
// at most sum F'_{i'j'}·c″_{i'j'}; minimizing over F' keeps the
// inequality. Upper bounds enable approximate search with guarantees
// and extra pruning in exact search (a candidate whose lower bound
// exceeds the current k-th upper bound can be discarded unrefined).
func UpperCost(c emd.CostMatrix, r1, r2 *Reduction) (emd.CostMatrix, error) {
	if c.Rows() != r1.OriginalDims() {
		return nil, fmt.Errorf("core: cost matrix has %d rows, source reduction expects %d", c.Rows(), r1.OriginalDims())
	}
	if c.Cols() != r2.OriginalDims() {
		return nil, fmt.Errorf("core: cost matrix has %d columns, target reduction expects %d", c.Cols(), r2.OriginalDims())
	}
	out := vecmath.NewMatrix(r1.ReducedDims(), r2.ReducedDims())
	for i := range out {
		for j := range out[i] {
			out[i][j] = math.Inf(-1)
		}
	}
	for i, gi := range r1.assign {
		row := c[i]
		orow := out[gi]
		for j, cij := range row {
			gj := r2.assign[j]
			if cij > orow[gj] {
				orow[gj] = cij
			}
		}
	}
	return out, nil
}

// ReducedEMDUpper bundles a pair of reductions with the max-based
// reduced cost matrix; its Distance upper-bounds the original EMD.
type ReducedEMDUpper struct {
	r1, r2 *Reduction
	dist   *emd.Dist
}

// NewReducedEMDUpper precomputes the upper-bounding reduced EMD.
func NewReducedEMDUpper(c emd.CostMatrix, r1, r2 *Reduction) (*ReducedEMDUpper, error) {
	upper, err := UpperCost(c, r1, r2)
	if err != nil {
		return nil, err
	}
	dist, err := emd.NewDist(upper)
	if err != nil {
		return nil, fmt.Errorf("core: upper reduced cost matrix invalid: %w", err)
	}
	return &ReducedEMDUpper{r1: r1, r2: r2, dist: dist}, nil
}

// Cost returns the max-based reduced cost matrix C″.
func (ru *ReducedEMDUpper) Cost() emd.CostMatrix { return ru.dist.Cost() }

// SSPFallbacks reports the SSP fallbacks of the underlying compiled
// EMD; see emd.Dist.SSPFallbacks.
func (ru *ReducedEMDUpper) SSPFallbacks() int64 { return ru.dist.SSPFallbacks() }

// Distance computes the upper bound EMD_{C″}(x·R1, y·R2) from
// original-dimensional histograms.
func (ru *ReducedEMDUpper) Distance(x, y emd.Histogram) float64 {
	return ru.dist.Distance(ru.r1.Apply(x), ru.r2.Apply(y))
}

// DistanceReduced computes the upper bound from already-reduced
// histograms.
func (ru *ReducedEMDUpper) DistanceReduced(xr, yr emd.Histogram) float64 {
	return ru.dist.Distance(xr, yr)
}

// Envelope couples the optimal lower bound and the max-based upper
// bound for one reduction pair, giving per-pair interval estimates
// [Lower, Upper] of the exact EMD from reduced data alone.
type Envelope struct {
	Lower *ReducedEMD
	Upper *ReducedEMDUpper
}

// NewEnvelope builds both bounds for the given reductions.
func NewEnvelope(c emd.CostMatrix, r1, r2 *Reduction) (*Envelope, error) {
	lower, err := NewReducedEMD(c, r1, r2)
	if err != nil {
		return nil, err
	}
	upper, err := NewReducedEMDUpper(c, r1, r2)
	if err != nil {
		return nil, err
	}
	return &Envelope{Lower: lower, Upper: upper}, nil
}

// Bounds returns the interval [lo, hi] containing EMD_C(x, y),
// computed from reduced representations only.
func (e *Envelope) Bounds(x, y emd.Histogram) (lo, hi float64) {
	return e.Lower.Distance(x, y), e.Upper.Distance(x, y)
}
