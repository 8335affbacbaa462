// Package pca implements the PCA-based reduction ablation the paper
// reports having tried (Section 3.2): a general linear dimensionality
// reduction (Definition 2) derived from principal components, amended
// by an extra dimension to preserve total mass. The paper found it to
// give "very poor retrieval efficiency due to the concessions that had
// to be made for the reduced cost matrix in order to guarantee the
// lower-bounding property"; this package reproduces both the
// construction and that finding (see the Fig20 experiment).
//
// Construction. Raw PCA loadings are signed, so x·R would not be a
// valid histogram. We therefore derive a *row-stochastic* soft
// assignment: original dimension i distributes its mass over the
// reduced dimensions proportionally to the absolute loadings of the
// top d'-1 principal components, with a fixed share routed to an extra
// mass-preserving residual dimension. For any non-negative
// row-stochastic R the reduced EMD under the cost matrix
//
//	c'_{i'j'} = min{ c_ij | r1_{ii'} > 0 and r2_{jj'} > 0 }
//
// lower-bounds the original EMD: the soft-split flow
// f'_{i'j'} = sum_ij f_ij r_{ii'} r_{jj'} is feasible for the reduced
// problem and costs no more than the original flow. This generalizes
// Theorem 1 from 0/1 to stochastic reduction matrices. Because PCA
// loadings have near-global support, almost every (i',j') pair
// supports almost every (i,j) pair, which drives c' toward the global
// minimum cost — the structural reason the bound is so loose.
package pca

import (
	"fmt"
	"math"

	"emdsearch/internal/emd"
	"emdsearch/internal/vecmath"
)

// SupportEpsilon is the weight below which a soft-assignment entry is
// treated as zero when computing the reduced cost matrix.
const SupportEpsilon = 1e-9

// SoftReduction is a non-negative, row-stochastic linear reduction
// together with the lower-bounding reduced cost matrix and a compiled
// reduced EMD.
type SoftReduction struct {
	r    [][]float64 // d x d', rows sum to 1
	dist *emd.Dist
}

// New builds a PCA-based soft reduction to `reduced` dimensions from a
// sample of database histograms (used to estimate the covariance) and
// the original ground distance. residualShare in (0,1) is the mass
// share routed to the extra mass-preserving dimension; the paper-style
// default is obtained with 0.1.
func New(sample []emd.Histogram, cost emd.CostMatrix, reduced int, residualShare float64) (*SoftReduction, error) {
	if len(sample) < 2 {
		return nil, fmt.Errorf("pca: need at least 2 sample histograms, got %d", len(sample))
	}
	d := len(sample[0])
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	if cost.Rows() != d || cost.Cols() != d {
		return nil, fmt.Errorf("pca: cost matrix is %dx%d, histograms are %d-dimensional", cost.Rows(), cost.Cols(), d)
	}
	if reduced < 2 || reduced > d {
		return nil, fmt.Errorf("pca: reduced dimensionality %d out of range [2, %d]", reduced, d)
	}
	if residualShare <= 0 || residualShare >= 1 {
		return nil, fmt.Errorf("pca: residual share %g out of range (0, 1)", residualShare)
	}

	obs := make([][]float64, len(sample))
	for i, h := range sample {
		if len(h) != d {
			return nil, fmt.Errorf("pca: sample histogram %d has %d dimensions, want %d", i, len(h), d)
		}
		obs[i] = h
	}
	cov, err := vecmath.Covariance(obs)
	if err != nil {
		return nil, err
	}
	_, vectors, err := vecmath.JacobiEigen(cov)
	if err != nil {
		return nil, err
	}

	components := reduced - 1 // the last reduced dimension is the residual
	r := vecmath.NewMatrix(d, reduced)
	for i := 0; i < d; i++ {
		var rowMax float64
		for k := 0; k < components; k++ {
			r[i][k] = math.Abs(vectors[k][i])
			if r[i][k] > rowMax {
				rowMax = r[i][k]
			}
		}
		// Sparsify: PCA loadings are dense, and with full support every
		// reduced cost entry collapses to the global minimum (zero).
		// Dropping weights below a fraction of the row maximum is the
		// best-effort concession that keeps the ablation non-degenerate
		// while preserving the lower bound (the support can only
		// shrink, so the min-cost entries can only grow).
		var sum float64
		for k := 0; k < components; k++ {
			if r[i][k] < 0.5*rowMax {
				r[i][k] = 0
			}
			sum += r[i][k]
		}
		if sum < SupportEpsilon {
			// Dimension not represented in the leading components:
			// all its mass goes to the residual dimension.
			r[i][reduced-1] = 1
			continue
		}
		for k := 0; k < components; k++ {
			r[i][k] = r[i][k] / sum * (1 - residualShare)
		}
		r[i][reduced-1] = residualShare
	}

	redCost, err := reduceCostSoft(cost, r, r)
	if err != nil {
		return nil, err
	}
	dist, err := emd.NewDist(redCost)
	if err != nil {
		return nil, err
	}
	return &SoftReduction{r: r, dist: dist}, nil
}

// reduceCostSoft computes the lower-bounding reduced cost matrix for
// two non-negative reduction matrices: the minimum original cost over
// the support of each reduced pair.
func reduceCostSoft(cost emd.CostMatrix, r1, r2 [][]float64) (emd.CostMatrix, error) {
	d1 := len(r1[0])
	d2 := len(r2[0])
	out := vecmath.NewMatrix(d1, d2)
	for a := range out {
		for b := range out[a] {
			out[a][b] = math.Inf(1)
		}
	}
	for i := range r1 {
		for j := range r2 {
			cij := cost[i][j]
			for a := 0; a < d1; a++ {
				if r1[i][a] <= SupportEpsilon {
					continue
				}
				row := out[a]
				for b := 0; b < d2; b++ {
					if r2[j][b] <= SupportEpsilon {
						continue
					}
					if cij < row[b] {
						row[b] = cij
					}
				}
			}
		}
	}
	// Reduced dimensions with empty support can only carry zero mass;
	// zero cost keeps the matrix valid without affecting distances.
	for a := range out {
		for b := range out[a] {
			if math.IsInf(out[a][b], 1) {
				out[a][b] = 0
			}
		}
	}
	reduced := emd.CostMatrix(out)
	if err := reduced.Validate(); err != nil {
		return nil, err
	}
	return reduced, nil
}

// ReducedDims returns d'.
func (s *SoftReduction) ReducedDims() int { return len(s.r[0]) }

// Cost returns the lower-bounding reduced cost matrix.
func (s *SoftReduction) Cost() emd.CostMatrix { return s.dist.Cost() }

// Apply reduces a histogram: x' = x · R. Mass is preserved because the
// rows of R are stochastic.
func (s *SoftReduction) Apply(x emd.Histogram) emd.Histogram {
	return vecmath.MatVec(x, s.r)
}

// Distance computes the lower-bounding reduced EMD between two
// original-dimensional histograms.
func (s *SoftReduction) Distance(x, y emd.Histogram) float64 {
	return s.dist.Distance(s.Apply(x), s.Apply(y))
}

// DistanceReduced computes the reduced EMD from already-reduced
// vectors.
func (s *SoftReduction) DistanceReduced(xr, yr emd.Histogram) float64 {
	return s.dist.Distance(xr, yr)
}
