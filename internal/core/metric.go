package core

import (
	"math"

	"emdsearch/internal/emd"
	"emdsearch/internal/vecmath"
)

// MetricClosure returns the largest ground-distance matrix m <= c
// (entrywise) that satisfies the metric axioms: the shortest-path
// closure of min(c_ij, c_ji) with a zeroed diagonal, computed by
// Floyd–Warshall. When c already satisfies the axioms the closure is a
// fixpoint: m == c entrywise and changed is false.
//
// EMD is monotone in its ground distance, so EMD_m <= EMD_c, and EMD_m
// is a true pseudometric. Every column of the closure of the full cost
// matrix is a feasible dual potential; the potential level
// (lb.Potentials) is built from them. The optimal reduced cost matrix
// of Definition 5 takes group-wise *minima* of the original costs,
// which preserves the lower-bounding property but not the triangle
// inequality: c'(A,B) can exceed c'(A,C) + c'(C,B) when the minimizing
// dimension pairs differ.
func MetricClosure(c emd.CostMatrix) (emd.CostMatrix, bool) {
	n := c.Rows()
	m := vecmath.NewMatrix(n, n)
	changed := false
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := c[i][j]
			if c[j][i] < v {
				v = c[j][i]
			}
			if i == j {
				v = 0
			}
			m[i][j] = v
			if v != c[i][j] {
				changed = true
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			mik := m[i][k]
			if math.IsInf(mik, 1) {
				continue
			}
			row := m[i]
			krow := m[k]
			for j := 0; j < n; j++ {
				if via := mik + krow[j]; via < row[j] {
					row[j] = via
					changed = true
				}
			}
		}
	}
	return emd.CostMatrix(m), changed
}
