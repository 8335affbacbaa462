// Package vecmath provides small dense vector and matrix helpers used
// throughout the emdsearch library: compensated summation, norms and
// a Jacobi eigendecomposition for the PCA
// ablation study. All functions operate on plain []float64 and
// [][]float64 values so that callers stay free of wrapper types.
package vecmath

import (
	"fmt"
	"math"
)

// Sum returns the sum of xs using Kahan compensated summation, which
// keeps histogram mass checks stable even for long vectors.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// L1 returns the Manhattan distance between a and b.
func L1(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: L1 length mismatch %d != %d", len(a), len(b)))
	}
	var sum float64
	for i, x := range a {
		sum += math.Abs(x - b[i])
	}
	return sum
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: L2 length mismatch %d != %d", len(a), len(b)))
	}
	var sum float64
	for i, x := range a {
		d := x - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Lp returns the Minkowski distance of order p between a and b.
// p must be >= 1 for Lp to be a metric; the function does not enforce
// this so callers can experiment with fractional norms.
func Lp(a, b []float64, p float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Lp length mismatch %d != %d", len(a), len(b)))
	}
	if p == 1 {
		return L1(a, b)
	}
	if p == 2 {
		return L2(a, b)
	}
	var sum float64
	for i, x := range a {
		sum += math.Pow(math.Abs(x-b[i]), p)
	}
	return math.Pow(sum, 1/p)
}

// Scale multiplies every element of xs by s in place and returns xs.
func Scale(xs []float64, s float64) []float64 {
	for i := range xs {
		xs[i] *= s
	}
	return xs
}

// Normalize scales xs in place so that its elements sum to one and
// returns xs. It panics if the sum is not positive, because a histogram
// of zero total mass has no normalized form.
func Normalize(xs []float64) []float64 {
	sum := Sum(xs)
	if sum <= 0 {
		panic("vecmath: Normalize requires positive total mass")
	}
	return Scale(xs, 1/sum)
}

// Clone returns a copy of xs.
func Clone(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	return out
}

// CloneMatrix returns a deep copy of m.
func CloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = Clone(row)
	}
	return out
}

// NewMatrix allocates a rows x cols matrix backed by a single
// contiguous slice, which keeps solver inner loops cache friendly.
func NewMatrix(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// MatVec returns x * M for a row vector x and matrix M (len(x) rows,
// cols columns). This is the orientation used by reduction matrices
// (Definition 2 of the paper: x' = x · R).
func MatVec(x []float64, m [][]float64) []float64 {
	if len(x) != len(m) {
		panic(fmt.Sprintf("vecmath: MatVec dimension mismatch %d != %d", len(x), len(m)))
	}
	if len(m) == 0 {
		return nil
	}
	out := make([]float64, len(m[0]))
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m[i]
		for j, r := range row {
			out[j] += xi * r
		}
	}
	return out
}

// AlmostEqual reports whether a and b differ by at most tol in absolute
// terms or by at most tol relative to the larger magnitude. It is the
// single comparison primitive used by the solvers and tests.
func AlmostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
