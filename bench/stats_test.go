package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{200, 50, 100}, {200, 95, 190}, {1000, 99, 990}, {21, 50, 11}, {1000, 5, 50},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
}

// A percentile with fewer than ten samples beyond it is set by a few
// outliers; it must be refused, not reported.
func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{199, 95}, {19, 50}, {999, 99}, {0, 50}, {100, 5},
	} {
		if got, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d samples = %g, want a refusal", c.p, c.n, got)
		}
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("p%g accepted", p)
		}
	}
}

func TestPairedMedian(t *testing.T) {
	// b varies a hundredfold from op to op; a is b plus 1..21. The
	// difference of medians would be dominated by b; the paired median
	// is the median of the differences.
	var a, b []float64
	for i := 0; i < 21; i++ {
		b = append(b, float64(1+i*100))
		a = append(a, b[i]+float64(i+1))
	}
	got, err := pairedMedian(a, b)
	if err != nil || got != 11 {
		t.Errorf("paired median = %g, %v; want 11", got, err)
	}
	if _, err := pairedMedian(a, b[:20]); err == nil {
		t.Error("unequal lengths accepted")
	}
	if _, err := pairedMedian(a[:5], b[:5]); err == nil {
		t.Error("5 pairs accepted: the median has too few samples beyond it")
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// which the acceptance driver uses.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	if got, want := quartileSpread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want %g", got, want)
	}
	// statistics.quantiles([10, 12, 11, 30], n=4) == [10.25, 11.5, 25.5]
	if got, want := quartileSpread([]float64{10, 12, 11, 30}), (25.5-10.25)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("one run has no spread")
	}
}
