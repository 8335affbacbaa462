package lb

import (
	"emdsearch/internal/emd"
)

// GreedyUpper computes cheap upper bounds of the EMD by constructing a
// feasible (not necessarily optimal) transportation flow greedily: for
// each source bin in turn, mass is shipped to the cheapest target bins
// with remaining capacity. Any feasible flow's cost dominates the
// optimum, so the result is a guaranteed upper bound, typically within
// a few tens of percent of the exact EMD at ~1/100th of its cost
// (O(d^2) versus the simplex's empirically cubic behavior).
//
// Together with a reduced-EMD lower bound this forms the practical
// envelope for certified approximate search (Engine.ApproxKNN): the
// reduced EMD brackets from below, the greedy flow from above.
type GreedyUpper struct {
	cost     emd.CostMatrix
	rowOrder [][]int32
	// scratch capacity buffer reused across calls; Distance is not
	// safe for concurrent use on one instance — clone per goroutine.
	remaining []float64
}

// NewGreedyUpper validates c (square or rectangular) and precomputes
// the per-row cheapest-target orders.
func NewGreedyUpper(c emd.CostMatrix) (*GreedyUpper, error) {
	im, err := NewIM(c) // reuse validation and row-order construction
	if err != nil {
		return nil, err
	}
	return &GreedyUpper{
		cost:      c,
		rowOrder:  im.rowOrder,
		remaining: make([]float64, c.Cols()),
	}, nil
}

// Clone returns an independent instance sharing the immutable
// precomputed orders, for concurrent use.
func (g *GreedyUpper) Clone() *GreedyUpper {
	return &GreedyUpper{
		cost:      g.cost,
		rowOrder:  g.rowOrder,
		remaining: make([]float64, g.cost.Cols()),
	}
}

// greedyGuard is the relative margin Distance rounds its total up by:
// the flow cost is a float sum of at most m+n-1 non-negative products,
// whose rounding error stays below (m+n)·2^-53 of the total — far
// inside the guard for any shape the engine solves.
const greedyGuard = 1e-12

// Distance returns the cost of the greedy feasible flow from x to y —
// an upper bound of EMD_C(x, y), rounded up so that it never falls
// below the exact EMD by float error. Histograms are trusted to be
// valid operands of equal total mass.
func (g *GreedyUpper) Distance(x, y emd.Histogram) float64 {
	copy(g.remaining, y)
	var total float64
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		need := xi
		row := g.cost[i]
		order := g.rowOrder[i]
		for _, j := range order {
			cap := g.remaining[j]
			if cap == 0 {
				continue
			}
			if cap >= need {
				total += need * row[j]
				g.remaining[j] = cap - need
				need = 0
				break
			}
			total += cap * row[j]
			g.remaining[j] = 0
			need -= cap
		}
		// Float normalization can leave a residue of a few ulps that
		// no column has room for. Dropping it would undercut the
		// optimum, so it is charged at the row's largest cost, which
		// bounds wherever it would have gone.
		if need > 0 {
			total += need * row[order[len(order)-1]]
		}
	}
	return total * (1 + greedyGuard)
}
