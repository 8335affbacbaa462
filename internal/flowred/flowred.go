// Package flowred implements the flow-based dimensionality reduction of
// Section 3.4 in Wichterich et al. (SIGMOD 2008). The approach is
// data-dependent: it computes full-dimensional EMDs over a sample of
// the database, aggregates the optimal flow matrices into an average
// flow matrix F^S, and then local-searches a combining reduction matrix
// that maximizes the expected lower-bound tightness
//
//	sum_{i',j'} aggrFlow(F^S, R, i', j') * c'_{i'j'}     (Eq. 12)
//
// where c' is the optimal reduced cost matrix of Definition 5. Two
// search variants are provided, exactly following the paper's
// pseudo-code: FB-Mod (Figure 8) applies the first improving
// reassignment per original dimension in a round-robin sweep; FB-All
// (Figure 9) evaluates all (dimension, target) reassignments and
// applies only the single best one per iteration.
package flowred

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
)

// Options tunes the FB local search.
type Options struct {
	// Thresh is the relative improvement threshold of the paper's
	// pseudo-code: a reassignment is accepted only if it improves the
	// expected tightness by more than Thresh * currentTightness.
	// Zero means the default of 1e-9.
	Thresh float64
	// MaxEvaluations caps the total number of candidate evaluations as
	// a safety net against pathological non-convergence. Zero means
	// the default of 50_000_000.
	MaxEvaluations int
}

func (o Options) withDefaults() Options {
	if o.Thresh == 0 {
		o.Thresh = 1e-9
	}
	if o.MaxEvaluations == 0 {
		o.MaxEvaluations = 50_000_000
	}
	return o
}

// Stats reports what a reduction optimization did.
type Stats struct {
	// Tightness is the final value of Eq. 12 for the returned
	// reduction.
	Tightness float64
	// Evaluations counts candidate reassignment evaluations.
	Evaluations int
	// Moves counts committed reassignments.
	Moves int
	// Repaired reports whether empty reduced dimensions had to be
	// filled after the search to satisfy restriction (8).
	Repaired bool
}

// Sample draws n distinct histograms from data uniformly at random.
// If n >= len(data) the full data set is returned (copied).
func Sample(data []emd.Histogram, n int, rng *rand.Rand) []emd.Histogram {
	if n >= len(data) {
		out := make([]emd.Histogram, len(data))
		copy(out, data)
		return out
	}
	perm := rng.Perm(len(data))
	out := make([]emd.Histogram, n)
	for i := 0; i < n; i++ {
		out[i] = data[perm[i]]
	}
	return out
}

// AverageFlows computes the average flow matrix F^S over all ordered
// pairs of distinct sample histograms (step 2 of Figure 6). For a
// symmetric ground distance the optimal flow of (y,x) is the transpose
// of that of (x,y), so each unordered pair is solved once and both
// orientations are accumulated. The result is normalized by |S|^2 as
// in the paper; the normalization only scales Eq. 12 and does not
// affect which reduction maximizes it.
func AverageFlows(sample []emd.Histogram, dist *emd.Dist) ([][]float64, error) {
	return AverageFlowsParallel(sample, dist, 1)
}

// addFlows adds the optimal flow of (x, y) to acc, and that of (y, x):
// as its transpose when the ground distance is symmetric, by a second
// solve otherwise.
func addFlows(acc [][]float64, dist *emd.Dist, x, y emd.Histogram, symmetric bool) error {
	_, flow, err := dist.DistanceWithFlow(x, y)
	if err != nil {
		return err
	}
	for i, row := range flow {
		for j, f := range row {
			acc[i][j] += f
			if symmetric {
				acc[j][i] += f
			}
		}
	}
	if symmetric {
		return nil
	}
	_, back, err := dist.DistanceWithFlow(y, x)
	if err != nil {
		return err
	}
	for i, row := range back {
		for j, f := range row {
			acc[i][j] += f
		}
	}
	return nil
}

// Tightness is the reference implementation of the paper's calcTight
// (Figure 7, without the temporary reassignment): the expected
// lower-bound tightness of reduction r given average flows f and
// original cost matrix c. It is O(d^2); the optimizers use an
// incremental evaluator that is verified against this function in the
// tests.
func Tightness(f [][]float64, c emd.CostMatrix, r *core.Reduction) float64 {
	st := newSearchState(f, c, r.Assignment(), r.ReducedDims())
	return st.tight
}

// BaseAssignment returns the paper's "Base" initial solution: every
// original dimension assigned to reduced dimension 0, the remaining
// reduced dimensions empty. It intentionally violates restriction (8);
// the optimizers treat empty reduced dimensions as zero-contribution
// groups and fill them during the search.
func BaseAssignment(d int) []int {
	return make([]int, d)
}

// OptimizeMod runs the FB-Mod local search of Figure 8 starting from
// the given assignment (length d, values in [0, reduced)). Empty
// reduced dimensions are permitted in the start assignment. The
// returned reduction always satisfies restriction (8); if the search
// converged with empty reduced dimensions they are repaired
// deterministically and Stats.Repaired is set.
func OptimizeMod(assign []int, reduced int, f [][]float64, c emd.CostMatrix, opts Options) (*core.Reduction, *Stats, error) {
	st, err := validateSearchInput(assign, reduced, f, c)
	if err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	stats := &Stats{}

	d := len(assign)
	dim := 0
	sinceChange := 0
	for sinceChange < d && stats.Evaluations < opts.MaxEvaluations {
		improved := false
		threshold := math.Abs(st.tight) * opts.Thresh
		for to := 0; to < reduced; to++ {
			if to == st.assign[dim] || st.groupSize[st.assign[dim]] == 1 {
				continue
			}
			stats.Evaluations++
			if newTight := st.evalMove(dim, to); newTight-st.tight > threshold {
				st.commit(dim, to)
				stats.Moves++
				improved = true
				break
			}
		}
		if improved {
			sinceChange = 0
		} else {
			sinceChange++
		}
		dim = (dim + 1) % d
	}
	return finishSearch(st, stats)
}

// OptimizeAll runs the FB-All local search of Figure 9: in every
// iteration all (dimension, target) reassignments are evaluated and
// only the single best improving one is applied, until no reassignment
// improves the expected tightness by more than the threshold.
func OptimizeAll(assign []int, reduced int, f [][]float64, c emd.CostMatrix, opts Options) (*core.Reduction, *Stats, error) {
	st, err := validateSearchInput(assign, reduced, f, c)
	if err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	stats := &Stats{}

	d := len(assign)
	for stats.Evaluations < opts.MaxEvaluations {
		threshold := math.Abs(st.tight) * opts.Thresh
		bestGain := threshold
		bestDim, bestTo := -1, -1
		for dim := 0; dim < d; dim++ {
			from := st.assign[dim]
			if st.groupSize[from] == 1 {
				continue
			}
			for to := 0; to < reduced; to++ {
				if to == from {
					continue
				}
				stats.Evaluations++
				if gain := st.evalMove(dim, to) - st.tight; gain > bestGain {
					bestGain = gain
					bestDim, bestTo = dim, to
				}
			}
		}
		if bestDim < 0 {
			break
		}
		st.commit(bestDim, bestTo)
		stats.Moves++
	}
	return finishSearch(st, stats)
}

func validateSearchInput(assign []int, reduced int, f [][]float64, c emd.CostMatrix) (*searchState, error) {
	d := len(assign)
	if d == 0 {
		return nil, fmt.Errorf("flowred: empty assignment")
	}
	if reduced < 1 || reduced > d {
		return nil, fmt.Errorf("flowred: reduced dimensionality %d out of range [1, %d]", reduced, d)
	}
	for i, g := range assign {
		if g < 0 || g >= reduced {
			return nil, fmt.Errorf("flowred: assign[%d] = %d out of range [0, %d)", i, g, reduced)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Rows() != d || c.Cols() != d {
		return nil, fmt.Errorf("flowred: cost matrix is %dx%d, want %dx%d", c.Rows(), c.Cols(), d, d)
	}
	if len(f) != d {
		return nil, fmt.Errorf("flowred: flow matrix has %d rows, want %d", len(f), d)
	}
	for i, row := range f {
		if len(row) != d {
			return nil, fmt.Errorf("flowred: flow row %d has %d columns, want %d", i, len(row), d)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("flowred: invalid flow[%d][%d] = %g", i, j, v)
			}
		}
	}
	return newSearchState(f, c, append([]int(nil), assign...), reduced), nil
}

// finishSearch repairs empty reduced dimensions if necessary and
// packages the result.
func finishSearch(st *searchState, stats *Stats) (*core.Reduction, *Stats, error) {
	for g := 0; g < st.dr; g++ {
		if st.groupSize[g] > 0 {
			continue
		}
		stats.Repaired = true
		// Move one dimension out of the currently largest group; pick
		// the member whose flows couple least with the rest of its
		// group so the donation costs as little tightness as possible.
		largest := 0
		for h := 1; h < st.dr; h++ {
			if st.groupSize[h] > st.groupSize[largest] {
				largest = h
			}
		}
		if st.groupSize[largest] < 2 {
			return nil, nil, fmt.Errorf("flowred: cannot repair empty reduced dimension %d", g)
		}
		bestDim, bestTight := -1, math.Inf(-1)
		for dim := 0; dim < st.d; dim++ {
			if st.assign[dim] != largest {
				continue
			}
			if t := st.evalMove(dim, g); t > bestTight {
				bestTight = t
				bestDim = dim
			}
		}
		st.commit(bestDim, g)
		stats.Moves++
	}
	stats.Tightness = st.tight
	red, err := core.NewReduction(st.assign, st.dr)
	if err != nil {
		return nil, nil, fmt.Errorf("flowred: internal error: %w", err)
	}
	return red, stats, nil
}

// AverageFlowsParallel is AverageFlows fanned out over `workers`
// goroutines (0 means GOMAXPROCS). Flow collection is the dominant
// preprocessing cost of the flow-based reductions (|S|^2/2 exact EMD
// solves), and the pairs are independent, so it parallelizes
// perfectly. The result is identical to AverageFlows up to float
// summation order (bit for bit with one worker); the accumulation per
// worker keeps that non-determinism to one final reduction. A solver
// failure on any pair is returned as an error.
func AverageFlowsParallel(sample []emd.Histogram, dist *emd.Dist, workers int) ([][]float64, error) {
	if len(sample) < 2 {
		return nil, fmt.Errorf("flowred: sample of size %d, need at least 2", len(sample))
	}
	rows, cols := dist.Dims()
	if rows != cols {
		return nil, fmt.Errorf("flowred: ground distance is %dx%d, want square", rows, cols)
	}
	d := rows
	for k, h := range sample {
		if len(h) != d {
			return nil, fmt.Errorf("flowred: sample histogram %d has %d dimensions, want %d", k, len(h), d)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	symmetric := dist.Cost().IsSymmetric()

	type pair struct{ a, b int }
	pairs := make(chan pair)
	partials := make([][][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([][]float64, d)
			backing := make([]float64, d*d)
			for i := range local {
				local[i] = backing[i*d : (i+1)*d]
			}
			for p := range pairs {
				if errs[w] == nil {
					errs[w] = addFlows(local, dist, sample[p.a], sample[p.b], symmetric)
				}
			}
			partials[w] = local
		}()
	}
	for a := 0; a < len(sample); a++ {
		for b := a + 1; b < len(sample); b++ {
			pairs <- pair{a, b}
		}
	}
	close(pairs)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("flowred: sample flows: %w", err)
	}

	f := make([][]float64, d)
	backing := make([]float64, d*d)
	for i := range f {
		f[i] = backing[i*d : (i+1)*d]
	}
	norm := 1 / float64(len(sample)*len(sample))
	for _, local := range partials {
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				f[i][j] += local[i][j] * norm
			}
		}
	}
	return f, nil
}
