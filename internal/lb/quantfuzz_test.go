// The quantized-filter soundness battery. The quantized columnar
// scanner lives in internal/colscan (which imports this package), so
// these tests sit in the external lb_test package: same corpus
// directory, no import cycle.
package lb_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"emdsearch/internal/colscan"
	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/lb"
)

// decodeQuantCase derives a query, a small item set, a reduced
// dimensionality, and a block size from raw fuzz bytes. ok is false
// when the bytes cannot yield valid normalized histograms (too short,
// zero mass).
func decodeQuantCase(data []byte) (q emd.Histogram, items []emd.Histogram, d, dr, block int, ok bool) {
	if len(data) < 4 {
		return nil, nil, 0, 0, 0, false
	}
	d = int(data[0])%9 + 4  // 4..12
	dr = int(data[1])%d + 1 // 1..d
	n := int(data[2])%6 + 1 // 1..6 items
	block = int(data[3])%7 + 1
	data = data[4:]
	if len(data) < (n+1)*d {
		return nil, nil, 0, 0, 0, false
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
	q, ok = decode(data[:d])
	if !ok {
		return nil, nil, 0, 0, 0, false
	}
	for i := 0; i < n; i++ {
		h, hok := decode(data[(i+1)*d : (i+2)*d])
		if !hok {
			return nil, nil, 0, 0, 0, false
		}
		items = append(items, h)
	}
	return q, items, d, dr, block, true
}

// maxEntry is the largest ground-distance entry — the Cmax the
// quantization margin is calibrated against.
func maxEntry(c emd.CostMatrix) float64 {
	var m float64
	for _, row := range c {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// checkQuantChain asserts, for one query against one item set, the
// ordering of the quantized scanner's bound under the paper's chain:
//
//	0 <= quantized-Red-IM <= Red-IM <= Red-EMD <= exact EMD
func checkQuantChain(t *testing.T, q emd.Histogram, items []emd.Histogram, d, dr, block int) {
	t.Helper()
	cost := emd.LinearCost(d)
	red, err := core.Adjacent(d, dr)
	if err != nil {
		t.Fatal(err)
	}
	redEMD, err := core.NewReducedEMD(cost, red, red)
	if err != nil {
		t.Fatal(err)
	}
	im, err := lb.NewIM(redEMD.Cost())
	if err != nil {
		t.Fatal(err)
	}
	reduced := make([]emd.Histogram, len(items))
	for i, h := range items {
		reduced[i] = red.Apply(h)
	}
	cols, err := colscan.Build(len(items), dr, block, func(i int, dst []float64) {
		copy(dst, reduced[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	qz, err := colscan.Quantize(cols, maxEntry(redEMD.Cost()))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := colscan.NewQuantScanner(im, qz)
	if err != nil {
		t.Fatal(err)
	}
	qr := red.Apply(q)
	out := make([]float64, len(items))
	if got := sc.ScanAll(qr, out); got != len(items) {
		t.Fatalf("ScanAll scanned %d of %d items", got, len(items))
	}
	for i, h := range items {
		exact, err := emd.Distance(q, h, cost)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-9 * (1 + exact)
		redDist := redEMD.DistanceReduced(qr, reduced[i])
		imDist := im.Distance(qr, reduced[i])
		qd := out[i]
		if qd < 0 {
			t.Fatalf("item %d: quantized bound %g < 0 (d=%d d'=%d block=%d)", i, qd, d, dr, block)
		}
		if qd > imDist+tol {
			t.Fatalf("item %d: quantized bound %g exceeds Red-IM %g (d=%d d'=%d block=%d)", i, qd, imDist, d, dr, block)
		}
		if imDist > redDist+tol {
			t.Fatalf("item %d: Red-IM %g exceeds Red-EMD %g", i, imDist, redDist)
		}
		if redDist > exact+tol {
			t.Fatalf("item %d: Red-EMD %g exceeds exact EMD %g", i, redDist, exact)
		}
	}
}

// FuzzQuantizedLowerBound fuzzes the full certified chain
// quantized-Red-IM <= Red-IM <= Red-EMD <= EMD over arbitrary
// histogram sets, reduced dimensionalities, and block geometries. A
// violation of the first inequality is exactly the failure mode the
// quantization margin exists to rule out: a filter stage on this bound would
// overshoot a true distance and silently drop a correct answer.
func FuzzQuantizedLowerBound(f *testing.F) {
	// Single item, spike query vs spike item at the far bin.
	f.Add([]byte{0, 0, 0, 0, 255, 0, 0, 0, 0, 0, 0, 255})
	// Near-uniform pair, d' = 2.
	f.Add([]byte{4, 2, 0, 1, 10, 20, 30, 40, 50, 60, 70, 80, 80, 70, 60, 50, 40, 30, 20, 10})
	// Sparse histograms with many zero bins, several items (d=8, n=3).
	f.Add([]byte{4, 3, 2, 4,
		1, 1, 1, 1, 1, 1, 1, 1,
		200, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 200, 0, 0, 0, 1,
		0, 255, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, items, d, dr, block, ok := decodeQuantCase(data)
		if !ok {
			t.Skip()
		}
		checkQuantChain(t, q, items, d, dr, block)
	})
}

// quantShape generates one random normalized histogram of a given
// shape class: near-uniform, sparse (most bins zero), or single-spike
// with trace mass elsewhere. These are the distributions where
// floor-quantization error concentrates differently — uniform spreads
// it over every bin, spikes push whole blocks to extreme scales.
func quantShape(rng *rand.Rand, d, shape int) emd.Histogram {
	h := make(emd.Histogram, d)
	switch shape % 3 {
	case 0: // near-uniform
		for i := range h {
			h[i] = 1 + 0.1*rng.Float64()
		}
	case 1: // sparse: ~2 live bins
		h[rng.Intn(d)] = rng.Float64() + 0.1
		h[rng.Intn(d)] += rng.Float64() + 0.1
	default: // single spike plus trace mass
		for i := range h {
			h[i] = 1e-6 * rng.Float64()
		}
		h[rng.Intn(d)] = 1
	}
	var sum float64
	for _, v := range h {
		sum += v
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

// quantCase is a randomly generated chain-check instance; its
// Generate method makes it a testing/quick value.
type quantCase struct {
	q     emd.Histogram
	items []emd.Histogram
	d     int
	dr    int
	block int
}

func (quantCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	d := rng.Intn(9) + 4
	c := quantCase{
		d:     d,
		dr:    rng.Intn(d) + 1,
		block: rng.Intn(7) + 1,
		q:     quantShape(rng, d, rng.Intn(3)),
	}
	n := rng.Intn(6) + 1
	for i := 0; i < n; i++ {
		c.items = append(c.items, quantShape(rng, d, rng.Intn(3)))
	}
	return reflect.ValueOf(c)
}

// TestQuickQuantizedChain is the testing/quick form of the fuzz
// property: many random shape-stratified instances per run, checked in
// ordinary `go test` (the fuzzer only replays its corpus there).
func TestQuickQuantizedChain(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(137)),
	}
	if err := quick.Check(func(c quantCase) bool {
		checkQuantChain(t, c.q, c.items, c.d, c.dr, c.block)
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
