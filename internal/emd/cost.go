package emd

import (
	"fmt"
	"math"

	"emdsearch/internal/vecmath"
)

// LinearCost returns the d x d ground distance |i-j| between 1-D bins,
// the Manhattan cost matrix of Figure 1 in the paper. It models ordered
// scalar features such as intensity levels or spectral bands.
func LinearCost(d int) CostMatrix {
	c := vecmath.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			c[i][j] = math.Abs(float64(i - j))
		}
	}
	return c
}

// ModuloCost returns the d x d circular ground distance
// min(|i-j|, d-|i-j|) between 1-D bins arranged on a ring, as used for
// hue histograms where bin d-1 neighbors bin 0.
func ModuloCost(d int) CostMatrix {
	c := vecmath.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			diff := math.Abs(float64(i - j))
			c[i][j] = math.Min(diff, float64(d)-diff)
		}
	}
	return c
}

// PositionCost returns the ground distance between bins located at the
// given positions in feature space, measured with the Minkowski norm of
// order p (p >= 1). This covers color-space and tile-center ground
// distances. Positions of source and target may differ in count but
// must share one coordinate dimensionality.
func PositionCost(source, target [][]float64, p float64) (CostMatrix, error) {
	if len(source) == 0 || len(target) == 0 {
		return nil, fmt.Errorf("emd: PositionCost requires non-empty position sets")
	}
	dim := len(source[0])
	for i, pos := range source {
		if len(pos) != dim {
			return nil, fmt.Errorf("emd: source position %d has %d coordinates, want %d", i, len(pos), dim)
		}
	}
	for j, pos := range target {
		if len(pos) != dim {
			return nil, fmt.Errorf("emd: target position %d has %d coordinates, want %d", j, len(pos), dim)
		}
	}
	if p < 1 {
		return nil, fmt.Errorf("emd: PositionCost requires p >= 1, got %g", p)
	}
	c := vecmath.NewMatrix(len(source), len(target))
	for i, a := range source {
		for j, b := range target {
			c[i][j] = vecmath.Lp(a, b, p)
		}
	}
	return c, nil
}

// GridPositions returns the centers of a rows x cols tiling, row-major,
// as 2-D positions. Together with PositionCost it yields the tiled
// image ground distances of the paper's bioinformatics scenario
// (e.g. a 12x8 tiling producing 96 bins).
func GridPositions(rows, cols int) [][]float64 {
	out := make([][]float64, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out = append(out, []float64{float64(r), float64(c)})
		}
	}
	return out
}

// GridCost is a convenience wrapper building the Lp ground distance
// over a rows x cols tiling.
func GridCost(rows, cols int, p float64) (CostMatrix, error) {
	pos := GridPositions(rows, cols)
	return PositionCost(pos, pos, p)
}

// ScaleCost returns a copy of c with every entry multiplied by s >= 0.
// By EMD monotony (Theorem 2), scaling the ground distance scales every
// EMD value by the same factor.
func ScaleCost(c CostMatrix, s float64) (CostMatrix, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("emd: invalid scale %g", s)
	}
	out := vecmath.NewMatrix(c.Rows(), c.Cols())
	for i, row := range c {
		for j, v := range row {
			out[i][j] = v * s
		}
	}
	return out, nil
}
