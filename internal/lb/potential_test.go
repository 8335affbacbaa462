package lb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emdsearch/internal/emd"
)

// potentialKey projects both operands and returns their key.
func potentialKey(p *Potentials, x, y emd.Histogram) float64 {
	return p.Key(p.Project(nil, x), p.Project(nil, y))
}

// decodePotentialCase derives a square cost matrix — any non-negative
// entries: asymmetric, non-metric and with a non-zero diagonal alike —
// and two histograms whose masses sit anywhere in the band
// emd.Validate accepts, edges included, from raw fuzz bytes.
func decodePotentialCase(data []byte) (cost emd.CostMatrix, x, y emd.Histogram, ok bool) {
	if len(data) < 3 {
		return nil, nil, nil, false
	}
	d := int(data[0])%9 + 2 // 2..10
	// Mass factors 1 + s·τ for s in {-1, -1/2, 0, 1/2, 1}, shrunk by
	// a hair so that rounding keeps them inside the band.
	factor := func(b byte) float64 {
		return 1 + (float64(int(b)%5)-2)/2*emd.NormalizationTolerance*(1-1e-9)
	}
	fx, fy := factor(data[1]), factor(data[2])
	data = data[3:]
	if len(data) < d*d+2*d {
		return nil, nil, nil, false
	}
	cost = make(emd.CostMatrix, d)
	for i := range cost {
		cost[i] = make([]float64, d)
		for j := range cost[i] {
			cost[i][j] = float64(data[i*d+j]) / 7
		}
	}
	data = data[d*d:]
	hist := func(raw []byte, f float64) (emd.Histogram, bool) {
		h := make(emd.Histogram, d)
		var sum float64
		for i, b := range raw {
			h[i] = float64(b)
			sum += h[i]
		}
		if sum == 0 {
			return nil, false
		}
		for i := range h {
			h[i] = h[i] / sum * f
		}
		return h, emd.Validate(h) == nil
	}
	x, okx := hist(data[:d], fx)
	y, oky := hist(data[d:2*d], fy)
	return cost, x, y, okx && oky
}

// FuzzPotentialLowerBound: the potential key never exceeds the exact
// EMD the engine's solver reports (the trusted Dist path refinement
// uses), over arbitrary square costs and masses at the edges of the
// normalization tolerance. Exceeding it would let the first level of
// the filter chain dismiss a true neighbor.
func FuzzPotentialLowerBound(f *testing.F) {
	// data[0] = d − 2, data[1] and data[2] pick the mass factors, then
	// d·d cost bytes and 2·d histogram bytes.
	f.Add([]byte{0, 0, 4, 0, 7, 7, 0, 1, 0, 0, 1})
	f.Add([]byte{1, 4, 0, 9, 1, 200, 1, 0, 1, 200, 1, 9, 200, 0, 0, 0, 0, 200})
	f.Add([]byte{4, 1, 3,
		0, 1, 2, 3, 4, 5, 1, 0, 1, 2, 3, 4, 2, 1, 0, 1, 2, 3,
		3, 2, 1, 0, 1, 2, 4, 3, 2, 1, 0, 1, 5, 4, 3, 2, 1, 0,
		255, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 255})
	f.Add([]byte{6, 0, 4,
		130, 183, 14, 238, 127, 26, 80, 57, 190, 240, 126, 194, 52, 127, 6, 110,
		208, 143, 93, 199, 81, 36, 71, 227, 64, 67, 0, 2, 107, 110, 84, 85,
		148, 160, 101, 104, 93, 100, 196, 152, 11, 184, 212, 84, 74, 135, 33, 169,
		154, 1, 173, 33, 158, 181, 156, 246, 161, 94, 246, 241, 90, 29, 131, 11,
		200, 100, 50, 25, 12, 6, 3, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		cost, x, y, ok := decodePotentialCase(data)
		if !ok {
			t.Skip()
		}
		p, err := NewPotentials(cost, 8)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := emd.NewDist(cost)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]emd.Histogram{{x, y}, {y, x}} {
			exact := dist.Distance(pair[0], pair[1])
			if key := potentialKey(p, pair[0], pair[1]); key > exact {
				t.Fatalf("potential key %.17g exceeds exact EMD %.17g (cost %v, x %v, y %v)",
					key, exact, cost, pair[0], pair[1])
			}
		}
	})
}

// scaledLine is the 1-D linear ground distance on d bins times scale:
// the potential of the pivot at bin 0 is then the transport cost
// itself, so one-directional moves tie the key with the exact EMD.
func scaledLine(d int, scale float64) emd.CostMatrix {
	cost := emd.LinearCost(d)
	for i := range cost {
		for j := range cost[i] {
			cost[i][j] *= scale
		}
	}
	return cost
}

// withMargin returns a copy of p whose key subtracts margin instead.
func withMargin(p *Potentials, margin float64) *Potentials {
	q := *p
	q.margin = margin
	return &q
}

// smaxOf returns the largest potential value, max|f|.
func smaxOf(p *Potentials) float64 {
	var smax float64
	for _, f := range p.f {
		for _, v := range f {
			smax = max(smax, v)
		}
	}
	return smax
}

// checkTieSet checks that key(p) stays at or below the exact EMD on
// every pair, and that key(bare) exceeds it on at least one — the set
// is adversarial for the margin p has and bare lacks.
func checkTieSet(t *testing.T, name string, p, bare *Potentials, dist *emd.Dist, pairs [][2]emd.Histogram) {
	t.Helper()
	var over int
	for _, pr := range pairs {
		for _, h := range pr {
			if err := emd.Validate(h); err != nil {
				t.Fatal(err)
			}
		}
		exact := dist.Distance(pr[0], pr[1])
		if key := potentialKey(p, pr[0], pr[1]); key > exact {
			t.Fatalf("%s: key %.17g exceeds exact EMD %.17g on %v → %v", name, key, exact, pr[0], pr[1])
		}
		if potentialKey(bare, pr[0], pr[1]) > exact {
			over++
		}
	}
	if over == 0 {
		t.Fatalf("%s: no pair where the key without the margin exceeds the exact EMD; the set is not adversarial", name)
	}
}

// TestPotentialMarginAdversarialTies runs the key over two tie sets,
// one per part of the margin, on which the key without that part
// exceeds the exact EMD:
//
//   - unit-mass splits moving one way along a scaled line: the key ties
//     the exact EMD in exact arithmetic, and float rounding lands it
//     above on many pairs. The rounding part alone keeps it below.
//   - point masses at opposite edges of the normalization tolerance:
//     the solver absorbs the imbalance at no cost, the projections see
//     it in full. Only the imbalance part covers it.
//
// Dropping either part of the margin fails here.
func TestPotentialMarginAdversarialTies(t *testing.T) {
	const d = 16
	rng := rand.New(rand.NewSource(1))
	for _, scale := range []float64{0.1, 1.0 / 3, 1.1} {
		cost := scaledLine(d, scale)
		p, err := NewPotentials(cost, 8)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := emd.NewDist(cost)
		if err != nil {
			t.Fatal(err)
		}
		smax := smaxOf(p)
		rounding := withMargin(p, roundingMargin(d, smax))

		var splits [][2]emd.Histogram
		for len(splits) < 2000 {
			a, b := rng.Intn(d-1), rng.Intn(d-1)
			if a == b {
				continue
			}
			w := rng.Float64()
			x, y := make(emd.Histogram, d), make(emd.Histogram, d)
			x[a], x[a+1] = w, 1-w
			y[b], y[b+1] = w, 1-w
			splits = append(splits, [2]emd.Histogram{x, y})
		}
		name := fmt.Sprintf("scale %g, balanced splits", scale)
		checkTieSet(t, name, rounding, withMargin(p, 0), dist, splits)
		checkTieSet(t, name, p, withMargin(p, 0), dist, splits)

		var edges [][2]emd.Histogram
		hi, lo := 1+emd.NormalizationTolerance*(1-1e-9), 1-emd.NormalizationTolerance*(1-1e-9)
		for a := 0; a < d; a++ {
			x, y := make(emd.Histogram, d), make(emd.Histogram, d)
			x[a], y[a] = hi, lo
			edges = append(edges, [2]emd.Histogram{x, y})
		}
		checkTieSet(t, fmt.Sprintf("scale %g, mass edges", scale), p, rounding, dist, edges)
	}
}

// TestPotentialsScanMatchesKey: the eager column scan and the per-item
// Key agree bit for bit, the contract of FilterStage.ScanAll.
func TestPotentialsScanMatchesKey(t *testing.T) {
	const d, n = 12, 50
	rng := rand.New(rand.NewSource(3))
	cost := emd.LinearCost(d)
	p, err := NewPotentials(cost, 8)
	if err != nil {
		t.Fatal(err)
	}
	randHist := func() emd.Histogram {
		h := make(emd.Histogram, d)
		var sum float64
		for i := range h {
			h[i] = rng.Float64()
			sum += h[i]
		}
		for i := range h {
			h[i] /= sum
		}
		return h
	}
	var col []float64
	items := make([]emd.Histogram, n)
	for i := range items {
		items[i] = randHist()
		col = p.Project(col, items[i])
	}
	qp := p.Project(nil, randHist())
	out := make([]float64, n)
	if got := p.Scan(qp, col, out); got != n {
		t.Fatalf("Scan evaluated %d items, want %d", got, n)
	}
	for i := range items {
		if want := p.Key(qp, p.Project(nil, items[i])); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("item %d: Scan %v, Key %v", i, out[i], want)
		}
	}
}

// TestNewPotentialsPivots: on a line the potentials are eight distinct
// pivot columns with no antipodal pair (the two ends give one key);
// bins at distance 0 collapse to one potential; bad input is rejected.
func TestNewPotentialsPivots(t *testing.T) {
	p, err := NewPotentials(emd.LinearCost(32), 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 8 {
		t.Fatalf("%d potentials on a 32-bin line, want 8", p.Len())
	}
	for a, fa := range p.f {
		for _, fb := range p.f[:a] {
			sum := fa[0] + fb[0]
			antipodal := true
			for i := range fa {
				antipodal = antipodal && fa[i]+fb[i] == sum
			}
			if antipodal {
				t.Fatalf("antipodal pivots kept: %v and %v", fa, fb)
			}
		}
	}
	zero := emd.CostMatrix{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	if p, err := NewPotentials(zero, 8); err != nil || p.Len() != 1 {
		t.Fatalf("all-zero cost: %v potentials, err %v; want 1", p, err)
	}
	if _, err := NewPotentials(emd.CostMatrix{{0, 1}}, 8); err == nil {
		t.Fatal("non-square cost accepted")
	}
	if _, err := NewPotentials(emd.LinearCost(4), 0); err == nil {
		t.Fatal("zero potentials accepted")
	}
}
