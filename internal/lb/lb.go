// Package lb provides the classic bounds of the Earth Mover's Distance
// that the paper chains with its dimensionality reduction (Section 4,
// Figure 10):
//
//   - IM, the independent-minimization lower bound LB_IM of Assent et
//     al. ([1] in the paper): the transportation LP relaxed so that
//     each source bin routes its mass to the cheapest target bins
//     independently, subject only to the individual target capacities.
//     Because every feasible EMD flow satisfies the relaxed
//     constraints, the relaxed optimum never exceeds the EMD. The bound
//     works on any cost matrix — in particular on the *reduced* cost
//     matrix of a combining reduction, which yields the Red-IM filter
//     of the paper's chained pipeline.
//
//   - GreedyUpper, the cost of a greedily built feasible flow: an upper
//     bound of the EMD, the other side of the approximate-search
//     envelope.
package lb

import (
	"sort"

	"emdsearch/internal/emd"
)

// IM is the independent-minimization lower bound LB_IM, precompiled for
// one cost matrix. It evaluates both relaxation directions (dropping
// the target coupling and dropping the source coupling) and returns the
// larger, still lower-bounding value.
type IM struct {
	cost emd.CostMatrix
	// rowOrder[i] lists target bins in ascending cost from source i;
	// colOrder[j] lists source bins in ascending cost toward target j.
	rowOrder [][]int32
	colOrder [][]int32
}

// NewIM validates c and precomputes the sorted cost orders. The
// precomputation is O(d1*d2*log d), done once per cost matrix.
func NewIM(c emd.CostMatrix) (*IM, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rows, cols := c.Rows(), c.Cols()
	im := &IM{
		cost:     c,
		rowOrder: make([][]int32, rows),
		colOrder: make([][]int32, cols),
	}
	for i := 0; i < rows; i++ {
		order := make([]int32, cols)
		for j := range order {
			order[j] = int32(j)
		}
		row := c[i]
		sort.Slice(order, func(a, b int) bool { return row[order[a]] < row[order[b]] })
		im.rowOrder[i] = order
	}
	for j := 0; j < cols; j++ {
		order := make([]int32, rows)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool { return c[order[a]][j] < c[order[b]][j] })
		im.colOrder[j] = order
	}
	return im, nil
}

// Dims returns the source and target dimensionality of the compiled
// cost matrix.
func (im *IM) Dims() (rows, cols int) { return im.cost.Rows(), im.cost.Cols() }

// Cost returns the compiled cost matrix. It is shared, not copied: the
// columnar scan kernels replicate the scalar walk bit-for-bit and must
// read the very same values. Callers must not mutate it.
func (im *IM) Cost() emd.CostMatrix { return im.cost }

// RowOrders returns, for each source bin i, the target bins in
// ascending cost order — the exact walk order of the forward
// relaxation. Shared and read-only, like Cost.
func (im *IM) RowOrders() [][]int32 { return im.rowOrder }

// ColOrders returns, for each target bin j, the source bins in
// ascending cost order — the exact walk order of the backward
// relaxation. Shared and read-only, like Cost.
func (im *IM) ColOrders() [][]int32 { return im.colOrder }

// Distance returns max(forward, backward) of the two one-sided
// relaxations; both are lower bounds of EMD_C(x, y), hence so is the
// maximum.
func (im *IM) Distance(x, y emd.Histogram) float64 {
	fwd := im.forward(x, y)
	bwd := im.backward(x, y)
	if bwd > fwd {
		return bwd
	}
	return fwd
}

// forward relaxes the target constraints to per-source capacities:
// every source bin i ships x_i to the cheapest targets, each target j
// accepting at most y_j *per source*.
func (im *IM) forward(x, y emd.Histogram) float64 {
	var total float64
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		remaining := xi
		row := im.cost[i]
		for _, j := range im.rowOrder[i] {
			cap := y[j]
			if cap == 0 {
				continue
			}
			if cap >= remaining {
				total += remaining * row[j]
				remaining = 0
				break
			}
			total += cap * row[j]
			remaining -= cap
		}
		// Numerical residue (masses sum to one on both sides) is
		// dropped; it can only make the bound smaller, never invalid.
	}
	return total
}

// backward relaxes the source constraints symmetrically.
func (im *IM) backward(x, y emd.Histogram) float64 {
	var total float64
	for j, yj := range y {
		if yj == 0 {
			continue
		}
		remaining := yj
		for _, i := range im.colOrder[j] {
			cap := x[i]
			if cap == 0 {
				continue
			}
			if cap >= remaining {
				total += remaining * im.cost[i][j]
				remaining = 0
				break
			}
			total += cap * im.cost[i][j]
			remaining -= cap
		}
	}
	return total
}
