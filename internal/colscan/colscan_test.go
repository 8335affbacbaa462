package colscan

import (
	"math"
	"math/rand"
	"testing"

	"emdsearch/internal/emd"
	"emdsearch/internal/lb"
)

// randCost builds a random symmetric cost matrix with zero diagonal —
// the shape of every reduced cost matrix the engine produces.
func randCost(d int, rng *rand.Rand) emd.CostMatrix {
	c := make(emd.CostMatrix, d)
	for i := range c {
		c[i] = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			v := rng.Float64() * 10
			c[i][j] = v
			c[j][i] = v
		}
	}
	return c
}

// randHist draws a normalized histogram; shape picks the mass
// distribution: 0 near-uniform, 1 sparse, 2 single spike.
func randHist(d int, shape int, rng *rand.Rand) emd.Histogram {
	h := make(emd.Histogram, d)
	switch shape {
	case 0:
		for i := range h {
			h[i] = 0.5 + rng.Float64()
		}
	case 1:
		for i := range h {
			if rng.Intn(3) == 0 {
				h[i] = rng.Float64()
			}
		}
		h[rng.Intn(d)] += 0.1 // never all-zero
	default:
		h[rng.Intn(d)] = 1
		return h
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

// buildFixture returns a compiled IM bound, the per-item vectors, and
// the columnar layout of the same data.
func buildFixture(t *testing.T, n, d, block int, rng *rand.Rand) (*lb.IM, []emd.Histogram, *Columns) {
	t.Helper()
	cost := randCost(d, rng)
	im, err := lb.NewIM(cost)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]emd.Histogram, n)
	for i := range vecs {
		vecs[i] = randHist(d, i%3, rng)
	}
	cols, err := Build(n, d, block, func(i int, dst []float64) { copy(dst, vecs[i]) })
	if err != nil {
		t.Fatal(err)
	}
	return im, vecs, cols
}

func TestColumnsGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, vecs, cols := buildFixture(t, 101, 7, 16, rng)
	if cols.Len() != 101 || cols.Dims() != 7 || cols.BlockSize() != 16 {
		t.Fatalf("geometry = (%d,%d,%d)", cols.Len(), cols.Dims(), cols.BlockSize())
	}
	if got, want := cols.Blocks(), 7; got != want {
		t.Fatalf("Blocks() = %d, want %d", got, want)
	}
	if lo, hi := cols.BlockBounds(6); lo != 96 || hi != 101 {
		t.Fatalf("last block bounds = [%d,%d)", lo, hi)
	}
	dst := make([]float64, 7)
	for i, v := range vecs {
		got := cols.Gather(i, dst)
		for j := range v {
			if math.Float64bits(got[j]) != math.Float64bits(v[j]) {
				t.Fatalf("item %d dim %d: %v != %v", i, j, got[j], v[j])
			}
		}
	}
}

func TestColumnsBuildRejectsBadGeometry(t *testing.T) {
	fill := func(int, []float64) {}
	if _, err := Build(-1, 4, 0, fill); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := Build(4, 0, 0, fill); err == nil {
		t.Error("zero dims accepted")
	}
	c, err := Build(0, 3, 0, fill)
	if err != nil {
		t.Fatalf("empty layout rejected: %v", err)
	}
	if c.Blocks() != 0 {
		t.Errorf("empty layout has %d blocks", c.Blocks())
	}
}

func TestScanGatherMatchesPerItem(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, vecs, cols := buildFixture(t, 77, 5, 8, rng)
	out := make([]float64, 77)
	n := cols.ScanGather(out, func(i int, row []float64) float64 {
		s := 0.0
		for j, v := range row {
			s += v * float64(j+1)
		}
		return s
	})
	if n != 77 {
		t.Fatalf("evaluated %d items, want 77", n)
	}
	for i, v := range vecs {
		want := 0.0
		for j, x := range v {
			want += x * float64(j+1)
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("item %d: %v != %v", i, out[i], want)
		}
	}
}

// TestIMScannerBitIdentical is the keystone of the columnar refactor:
// for every block size — including degenerate 1 and a non-divisor of
// n — the batched kernel and the per-item DistanceAt must reproduce
// the scalar lb.IM bound bit-for-bit.
func TestIMScannerBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, block := range []int{1, 3, 16, 256} {
		for _, d := range []int{2, 5, 8} {
			im, vecs, cols := buildFixture(t, 123, d, block, rng)
			sc, err := NewIMScanner(im, cols)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, len(vecs))
			for qi := 0; qi < 5; qi++ {
				q := randHist(d, qi%3, rng)
				if n := sc.ScanAll(q, out); n != len(vecs) {
					t.Fatalf("ScanAll evaluated %d of %d", n, len(vecs))
				}
				for i, v := range vecs {
					want := im.Distance(q, v)
					if math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("block=%d d=%d item %d: kernel %v != scalar %v", block, d, i, out[i], want)
					}
					if got := sc.DistanceAt(q, i); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("block=%d d=%d item %d: DistanceAt %v != scalar %v", block, d, i, got, want)
					}
				}
			}
		}
	}
}

func TestIMScannerRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im, _, _ := buildFixture(t, 10, 6, 0, rng)
	_, _, cols := buildFixture(t, 10, 4, 0, rng)
	if _, err := NewIMScanner(im, cols); err == nil {
		t.Error("dimensionality mismatch accepted")
	}
}

// TestQuantizeFloorAndMargins checks the two pillars of the certified
// quantization: every dequantized value is <= its source value, and
// every block margin covers the forward bound's worst-case error.
func TestQuantizeFloorAndMargins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, vecs, cols := buildFixture(t, 200, 8, 32, rng)
	qz, err := Quantize(cols, 10)
	if err != nil {
		t.Fatal(err)
	}
	if qz.Len() != 200 || qz.Dims() != 8 || qz.BlockSize() != 32 || qz.costMax != 10 {
		t.Fatalf("geometry = (%d,%d,%d,%g)", qz.Len(), qz.Dims(), qz.BlockSize(), qz.costMax)
	}
	for b, margin := range qz.margins {
		if margin < 0 || math.IsNaN(margin) {
			t.Fatalf("block %d margin %g", b, margin)
		}
		if s := qz.scales[b]; s < 0 {
			t.Fatalf("block %d scale %g", b, s)
		}
	}
	for i, v := range vecs {
		b := i / 32
		scale := qz.scales[b]
		var resid float64
		for j := range v {
			deq := float64(qz.cols[j][i]) * scale
			if deq > v[j] {
				t.Fatalf("item %d dim %d: dequantized %v > true %v", i, j, deq, v[j])
			}
			resid += v[j] - deq
		}
		// The margin must dominate Cmax * (d'+1) * resid — the tangent
		// evaluation's certified budget (the block residual maximum is
		// >= this item's residual).
		want := 10 * 9 * resid
		if qz.margins[b] < want {
			t.Fatalf("item %d: margin %g below required %g", i, qz.margins[b], want)
		}
	}
}

// TestQuantScannerSound asserts the soundness contract on random
// data: every emitted value is <= the true Red-IM bound (up to the
// usual relative float tolerance), and ScanAll agrees with
// DistanceAt exactly.
func TestQuantScannerSound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, block := range []int{1, 7, 64} {
		im, vecs, cols := buildFixture(t, 150, 8, block, rng)
		cmax := 0.0
		for _, row := range im.Cost() {
			for _, c := range row {
				if c > cmax {
					cmax = c
				}
			}
		}
		qz, err := Quantize(cols, cmax)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewQuantScanner(im, qz)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(vecs))
		for qi := 0; qi < 5; qi++ {
			q := randHist(8, qi%3, rng)
			sc.ScanAll(q, out)
			for i, v := range vecs {
				exact := im.Distance(q, v)
				tol := 1e-9 * (1 + exact)
				if out[i] > exact+tol {
					t.Fatalf("block=%d item %d: quantized %v > Red-IM %v", block, i, out[i], exact)
				}
				if out[i] < 0 {
					t.Fatalf("block=%d item %d: negative bound %v", block, i, out[i])
				}
				if got := sc.DistanceAt(q, i); math.Float64bits(got) != math.Float64bits(out[i]) {
					t.Fatalf("block=%d item %d: DistanceAt %v != ScanAll %v", block, i, got, out[i])
				}
			}
		}
	}
}

func TestQuantizeRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, _, cols := buildFixture(t, 10, 4, 0, rng)
	if _, err := Quantize(cols, math.NaN()); err == nil {
		t.Error("NaN cost maximum accepted")
	}
	if _, err := Quantize(cols, -1); err == nil {
		t.Error("negative cost maximum accepted")
	}
	bad, err := Build(3, 2, 0, func(i int, dst []float64) { dst[0], dst[1] = -0.5, 1.5 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(bad, 1); err == nil {
		t.Error("negative column value accepted")
	}
}

// Benchmarks: per-item scalar scan vs the batched float kernel vs the
// quantized kernel, same data. Run with -bench=Scan to compare.
func benchFixture(b *testing.B, n, d, block int) (*lb.IM, []emd.Histogram, *Columns, emd.Histogram) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	cost := randCost(d, rng)
	im, err := lb.NewIM(cost)
	if err != nil {
		b.Fatal(err)
	}
	vecs := make([]emd.Histogram, n)
	for i := range vecs {
		vecs[i] = randHist(d, i%3, rng)
	}
	cols, err := Build(n, d, block, func(i int, dst []float64) { copy(dst, vecs[i]) })
	if err != nil {
		b.Fatal(err)
	}
	return im, vecs, cols, randHist(d, 0, rng)
}

func BenchmarkScanScalar(b *testing.B) {
	im, vecs, _, q := benchFixture(b, 4096, 8, 256)
	out := make([]float64, len(vecs))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, v := range vecs {
			out[i] = im.Distance(q, v)
		}
	}
	b.ReportMetric(float64(len(vecs)), "items/op")
}

func BenchmarkScanColumnar(b *testing.B) {
	im, vecs, cols, q := benchFixture(b, 4096, 8, 256)
	sc, err := NewIMScanner(im, cols)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(vecs))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		sc.ScanAll(q, out)
	}
	b.ReportMetric(float64(len(vecs)), "items/op")
}

func BenchmarkScanQuantized(b *testing.B) {
	im, vecs, cols, q := benchFixture(b, 4096, 8, 256)
	qz, err := Quantize(cols, 10)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := NewQuantScanner(im, qz)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(vecs))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		sc.ScanAll(q, out)
	}
	b.ReportMetric(float64(len(vecs)), "items/op")
}
