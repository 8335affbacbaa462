package lb

import (
	"testing"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
)

// decodeHistogramPair derives two valid d-dimensional histograms and a
// reduced dimensionality from raw fuzz bytes. Returns ok = false when
// the bytes cannot yield valid histograms (too short, zero mass).
func decodeHistogramPair(data []byte) (x, y emd.Histogram, d, dr int, ok bool) {
	if len(data) < 2 {
		return nil, nil, 0, 0, false
	}
	d = int(data[0])%9 + 4 // 4..12
	dr = int(data[1])%d + 1
	data = data[2:]
	if len(data) < 2*d {
		return nil, nil, 0, 0, false
	}
	decode := func(raw []byte) (emd.Histogram, bool) {
		h := make(emd.Histogram, len(raw))
		var sum float64
		for i, b := range raw {
			h[i] = float64(b)
			sum += h[i]
		}
		if sum < 1e-9 {
			return nil, false
		}
		for i := range h {
			h[i] /= sum
		}
		return h, true
	}
	x, okx := decode(data[:d])
	y, oky := decode(data[d : 2*d])
	return x, y, d, dr, okx && oky
}

// FuzzEMDLowerBounds checks the ordering every filter stage of the
// engine's chained pipeline relies on, for arbitrary histogram pairs
// under the linear ground distance:
//
//	Red-IM <= Red-EMD <= exact EMD <= GreedyUpper
//
// and additionally that the full-dimensional IM bound lower-bounds the
// exact EMD. A violation anywhere would break the
// lossless completeness guarantee of the multistep algorithm.
func FuzzEMDLowerBounds(f *testing.F) {
	f.Add([]byte{0, 0, 255, 0, 0, 0, 0, 0, 0, 255})
	f.Add([]byte{4, 2, 10, 20, 30, 40, 50, 60, 70, 80, 80, 70, 60, 50, 40, 30, 20, 10})
	f.Add([]byte{8, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 200, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, d, dr, ok := decodeHistogramPair(data)
		if !ok {
			t.Skip()
		}
		cost := emd.LinearCost(d)
		exact, err := emd.Distance(x, y, cost)
		if err != nil {
			t.Fatalf("exact EMD: %v", err)
		}
		tol := 1e-9 * (1 + exact)

		im, err := NewIM(cost)
		if err != nil {
			t.Fatal(err)
		}
		if got := im.Distance(x, y); got > exact+tol {
			t.Fatalf("IM %g exceeds exact EMD %g", got, exact)
		}

		red, err := core.Adjacent(d, dr)
		if err != nil {
			t.Fatal(err)
		}
		redEMD, err := core.NewReducedEMD(cost, red, red)
		if err != nil {
			t.Fatal(err)
		}
		xr, yr := red.Apply(x), red.Apply(y)
		redDist := redEMD.DistanceReduced(xr, yr)
		if redDist > exact+tol {
			t.Fatalf("reduced EMD %g exceeds exact EMD %g (d=%d, d'=%d)", redDist, exact, d, dr)
		}

		redIM, err := NewIM(redEMD.Cost())
		if err != nil {
			t.Fatal(err)
		}
		if got := redIM.Distance(xr, yr); got > redDist+tol {
			t.Fatalf("Red-IM %g exceeds Red-EMD %g", got, redDist)
		}

		upper, err := NewGreedyUpper(cost)
		if err != nil {
			t.Fatal(err)
		}
		if got := upper.Distance(x, y); got < exact-tol {
			t.Fatalf("greedy upper bound %g below exact EMD %g", got, exact)
		}
	})
}
