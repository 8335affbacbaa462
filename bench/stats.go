package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is set by a handful of outliers
// and does not repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of v (0 < p <
// 100). It refuses, with an error, a percentile that has fewer than
// minBeyond samples on its far side (above it for p >= 50, below it
// for p < 50).
func percentile(v []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0,100)", p)
	}
	n := len(v)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if p < 50 {
		beyond = rank - 1
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, n, beyond, minBeyond)
	}
	return s[rank-1], nil
}

// median is the nearest-rank median without the sample-count refusal,
// for repeated measurements of one quantity (set-up times, recoveries)
// where a handful of repeats is all there is.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// pairedMedian is the median of a[i]-b[i]: the self time of a layer
// whose span is a[i] and whose next-deeper replay of the same op is
// b[i]. Pairing cancels the op-to-op variation that dwarfs the
// difference when two medians are subtracted instead.
func pairedMedian(a, b []float64) (float64, error) {
	d, err := pairedDiffs(a, b)
	if err != nil {
		return 0, err
	}
	return percentile(d, 50)
}

// pairedDiffs returns a[i]-b[i].
func pairedDiffs(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("paired difference of %d and %d samples", len(a), len(b))
	}
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d, nil
}

// quartileSpread is (Q3-Q1)/median with Python's
// statistics.quantiles(v, n=4) ("exclusive") quartiles — the spread
// the acceptance driver computes over repeated runs.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0 (a layer that did no work has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
