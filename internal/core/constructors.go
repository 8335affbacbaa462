package core

import (
	"fmt"
	"math/rand"

	"emdsearch/internal/vecmath"
)

// Identity returns the reduction that keeps all d dimensions (d' = d).
// Useful as the query-side reduction R1 when only the database side is
// reduced (Section 3.2 of the paper).
func Identity(d int) *Reduction {
	assign := make([]int, d)
	for i := range assign {
		assign[i] = i
	}
	r, err := NewReduction(assign, d)
	if err != nil {
		panic(err) // cannot happen for d >= 1
	}
	return r
}

// Adjacent returns the reduction that merges contiguous runs of
// original dimensions into d' blocks of near-equal size. For 1-D
// ordered feature spaces this generalizes the fixed factor-4
// neighboring-bin merging of the prior grid-tiling approach ([14] in
// the paper) to arbitrary d'.
func Adjacent(d, reduced int) (*Reduction, error) {
	if reduced < 1 || reduced > d {
		return nil, fmt.Errorf("core: Adjacent(%d, %d): reduced dimensionality out of range", d, reduced)
	}
	assign := make([]int, d)
	// Distribute d dimensions over `reduced` blocks, the first d%reduced
	// blocks one element larger.
	base := d / reduced
	extra := d % reduced
	idx := 0
	for b := 0; b < reduced; b++ {
		size := base
		if b < extra {
			size++
		}
		for k := 0; k < size; k++ {
			assign[idx] = b
			idx++
		}
	}
	return NewReduction(assign, reduced)
}

// Random returns a uniformly random combining reduction from d to
// reduced dimensions. The first `reduced` original dimensions are
// spread over distinct groups to guarantee restriction (8); the rest
// are assigned uniformly. Random reductions are the paper-agnostic
// baseline the experiments compare against.
func Random(d, reduced int, rng *rand.Rand) (*Reduction, error) {
	if reduced < 1 || reduced > d {
		return nil, fmt.Errorf("core: Random(%d, %d): reduced dimensionality out of range", d, reduced)
	}
	assign := make([]int, d)
	// A random permutation seeds each group once.
	perm := rng.Perm(d)
	for g := 0; g < reduced; g++ {
		assign[perm[g]] = g
	}
	for _, i := range perm[reduced:] {
		assign[i] = rng.Intn(reduced)
	}
	return NewReduction(assign, reduced)
}

// Compose chains two combining reductions: outer reduces d to m, inner
// reduces m to k; the result reduces d to k directly, assigning each
// original dimension to inner's group of its outer group. Composition
// is how hierarchical filter cascades are built (generalizing the
// fixed factor-4 hierarchy of [14]): because the composed reduction's
// groups are unions of the outer reduction's groups, the composed
// (coarser) optimal reduced EMD lower-bounds the outer (finer) one,
// which makes cascades of any depth valid filter chains.
func Compose(outer, inner *Reduction) (*Reduction, error) {
	if inner.OriginalDims() != outer.ReducedDims() {
		return nil, fmt.Errorf("core: Compose: inner expects %d dimensions, outer produces %d",
			inner.OriginalDims(), outer.ReducedDims())
	}
	assign := make([]int, outer.OriginalDims())
	for i, g := range outer.assign {
		assign[i] = inner.assign[g]
	}
	return NewReduction(assign, inner.ReducedDims())
}

// AggregateFlows reduces a d x d flow matrix to r.ReducedDims() x
// r.ReducedDims() by summing within group pairs — the flow-matrix
// counterpart of applying r to histograms. Used to reuse one sample
// flow collection across every level of a hierarchical cascade.
func AggregateFlows(f [][]float64, r *Reduction) ([][]float64, error) {
	d := r.OriginalDims()
	if len(f) != d {
		return nil, fmt.Errorf("core: AggregateFlows: flow matrix has %d rows, reduction expects %d", len(f), d)
	}
	k := r.ReducedDims()
	out := vecmath.NewMatrix(k, k)
	for i, row := range f {
		if len(row) != d {
			return nil, fmt.Errorf("core: AggregateFlows: flow row %d has %d columns, want %d", i, len(row), d)
		}
		gi := r.assign[i]
		orow := out[gi]
		for j, v := range row {
			orow[r.assign[j]] += v
		}
	}
	return out, nil
}
