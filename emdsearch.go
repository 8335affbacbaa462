// Package emdsearch is an efficient Earth Mover's Distance similarity
// search library for multimedia feature histograms, implementing the
// flexible dimensionality-reduction filter framework of Wichterich,
// Assent, Kranen and Seidl: "Efficient EMD-based Similarity Search in
// Multimedia Databases via Flexible Dimensionality Reduction"
// (SIGMOD 2008).
//
// The library provides:
//
//   - An exact EMD over arbitrary non-negative ground-distance
//     matrices (transportation simplex with an independent
//     min-cost-flow cross-check), including rectangular instances.
//   - Combining dimensionality reductions for the EMD with the
//     provably optimal reduced cost matrix, constructed by k-medoids
//     clustering of the ground distance or by data-dependent
//     flow-based local search (FB-Mod / FB-All), flexible in the
//     number of reduced dimensions.
//   - Lossless multistep k-NN and range query processing (KNOP) with
//     chained lower-bounding filters (dual potentials -> Red-EMD ->
//     EMD):
//     exact results, a fraction of the full-dimensional EMD
//     computations.
//
// Quick start:
//
//	cost := emdsearch.LinearCost(64)
//	eng, _ := emdsearch.NewEngine(cost, emdsearch.Options{ReducedDims: 8})
//	for _, h := range histograms {
//	    eng.Add("", h)
//	}
//	eng.Build()
//	results, stats, _ := eng.KNN(query, 10)
//
// The internal packages expose the individual building blocks
// (internal/emd, internal/core, internal/flowred, internal/search, …)
// for code living inside this module; the root package is the stable
// public surface.
package emdsearch

import (
	"emdsearch/internal/emd"
	"emdsearch/internal/search"
)

// Histogram is a non-negative feature vector of total mass 1.
type Histogram = emd.Histogram

// CostMatrix is a ground-distance matrix; entry [i][j] is the cost of
// moving one unit of mass from bin i to bin j.
type CostMatrix = emd.CostMatrix

// Result is one query answer: database index and exact EMD.
type Result = search.Result

// QueryStats reports the filter and refinement effort of one query.
type QueryStats = search.QueryStats

// EMD computes the exact Earth Mover's Distance between two normalized
// histograms under the given ground distance. The cost matrix may be
// rectangular (len(x) rows, len(y) columns). The value is the one
// Engine.Distance and Result.Dist report for the same pair, bit for bit.
func EMD(x, y Histogram, cost CostMatrix) (float64, error) {
	return emd.Distance(x, y, cost)
}

// EMDWithFlow additionally returns the optimal flow matrix; the
// distance is EMD's.
func EMDWithFlow(x, y Histogram, cost CostMatrix) (float64, [][]float64, error) {
	return emd.DistanceWithFlow(x, y, cost)
}

// Normalize returns a total-mass-1 copy of h, or an error when the mass
// of h is not positive and finite.
func Normalize(h Histogram) (Histogram, error) { return emd.Normalize(h) }

// LinearCost is the |i-j| ground distance between 1-D ordered bins.
func LinearCost(d int) CostMatrix { return emd.LinearCost(d) }

// ModuloCost is the circular ground distance for ring-ordered bins
// (e.g. hue histograms).
func ModuloCost(d int) CostMatrix { return emd.ModuloCost(d) }

// GridCost is the Lp ground distance over the centers of a rows x cols
// tiling (row-major bins).
func GridCost(rows, cols int, p float64) (CostMatrix, error) {
	return emd.GridCost(rows, cols, p)
}

// PositionCost is the Lp ground distance between explicit bin
// positions in feature space.
func PositionCost(source, target [][]float64, p float64) (CostMatrix, error) {
	return emd.PositionCost(source, target, p)
}
