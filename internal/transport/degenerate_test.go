package transport_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"emdsearch/internal/data"
	"emdsearch/internal/emd"
	"emdsearch/internal/transport"
)

// batteryCase is one cost matrix of the degenerate battery with the
// histogram pairs solved over it.
type batteryCase struct {
	name  string
	cost  [][]float64
	pairs [][2][]float64
}

// degenerateCases builds the battery: point-mass histograms over costs
// with many ties, which make most pivots degenerate, and item pairs of
// the repository's six corpora.
func degenerateCases(t *testing.T) []batteryCase {
	rng := rand.New(rand.NewSource(44))
	var cases []batteryCase
	for _, d := range []int{4, 8, 16, 32, 64} {
		rand123 := make([][]float64, d)
		ones := make([][]float64, d)
		for i := range rand123 {
			rand123[i], ones[i] = make([]float64, d), make([]float64, d)
			for j := range rand123[i] {
				rand123[i][j], ones[i][j] = float64(1+rng.Intn(3)), 1
			}
		}
		for _, c := range []struct {
			name string
			cost [][]float64
		}{
			{"line", emd.LinearCost(d)},
			{"modulo", emd.ModuloCost(d)},
			{"ones", ones},
			{"rand123", rand123},
		} {
			bc := batteryCase{name: fmt.Sprintf("%s/d=%d", c.name, d), cost: c.cost}
			for k1 := 1; k1 <= 4; k1++ {
				for k2 := 1; k2 <= 4; k2++ {
					for rep := 0; rep < 4; rep++ {
						bc.pairs = append(bc.pairs, [2][]float64{pointMasses(rng, d, k1), pointMasses(rng, d, k2)})
					}
				}
			}
			cases = append(cases, bc)
		}
	}
	for _, c := range []struct {
		name string
		n    int
		gen  func(n int) (*data.Dataset, error)
	}{
		{"retina", 16, func(n int) (*data.Dataset, error) { return data.Retina(n, 1) }},
		{"irma", 6, func(n int) (*data.Dataset, error) { return data.IRMA(n, 1) }},
		{"color", 40, func(n int) (*data.Dataset, error) { return data.ColorImages(n, 1) }},
		{"music", 40, func(n int) (*data.Dataset, error) { return data.MusicSpectra(n, 32, 1) }},
		{"words", 40, func(n int) (*data.Dataset, error) { return data.Words(n, 64, 1) }},
		{"gaussian", 24, func(n int) (*data.Dataset, error) { return data.GaussianMixtures(n, 64, 3, 1) }},
	} {
		ds, err := c.gen(c.n)
		if err != nil {
			t.Fatal(err)
		}
		bc := batteryCase{name: fmt.Sprintf("%s/d=%d", c.name, ds.Dim), cost: ds.Cost}
		for i := range ds.Items {
			for j := i + 1; j < len(ds.Items); j++ {
				bc.pairs = append(bc.pairs, [2][]float64{ds.Items[i].Vector, ds.Items[j].Vector})
			}
		}
		cases = append(cases, bc)
	}
	return cases
}

// pointMasses returns a d-bin histogram with equal mass on k distinct
// random bins.
func pointMasses(rng *rand.Rand, d, k int) []float64 {
	h := make([]float64, d)
	for _, b := range rng.Perm(d)[:k] {
		h[b] = 1 / float64(k)
	}
	return h
}

// TestDegenerateBattery solves every battery pair twice: with the
// production pivot rule, and with Bland's rule forced from the first
// pivot, which the production rule reaches only after m+n degenerate
// pivots in a row. A pair with an empty bin is solved on both the dense
// and the stripped path, which then differ. No solve may hit its pivot
// cap, and the canonical values of all solves of a pair must be
// bit-equal: polish pins the value whatever path the pivots took.
//
// Bland's rule makes slow progress: forced from the first pivot it
// needs up to 270,724 pivots on a modulo d = 64 pair of this battery
// (10x the production cap) and 82,287 on an IRMA pair (above it). The
// forced pass therefore runs under ten times the production cap; the
// production rule runs under the production cap. The log reports per
// case the largest pivot count of each rule and how often the
// production rule's degenerate-streak switch to Bland's rule engaged.
func TestDegenerateBattery(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine battery, too slow under the race detector")
	}
	for _, c := range degenerateCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s, err := transport.NewSolver(c.cost)
			if err != nil {
				t.Fatal(err)
			}
			forcedCap := 10 * 200 * (len(c.cost) + len(c.cost[0]) + 10)
			var maxPivots, maxForced, switches int
			for k, p := range c.pairs {
				paths := []bool{true}
				if slices.Contains(p[0], 0) || slices.Contains(p[1], 0) {
					paths = append(paths, false)
				}
				want := math.NaN()
				for _, dense := range paths {
					for _, forced := range []bool{false, true} {
						maxIter := 0
						if forced {
							maxIter = forcedCap
						}
						v, st, err := s.SolveWithStats(p[0], p[1], dense, forced, maxIter)
						if err != nil {
							t.Fatalf("pair %d (dense=%v, forced Bland=%v): %v", k, dense, forced, err)
						}
						if forced {
							maxForced = max(maxForced, st.Pivots)
						} else {
							maxPivots = max(maxPivots, st.Pivots)
							switches += st.BlandSwitches
						}
						if math.IsNaN(want) {
							want = v
						} else if math.Float64bits(v) != math.Float64bits(want) {
							t.Errorf("pair %d (dense=%v, forced Bland=%v): value %v, want %v bit for bit", k, dense, forced, v, want)
						}
					}
				}
			}
			t.Logf("%d pairs: production rule at most %d pivots with %d switches to Bland's rule; forced Bland at most %d pivots",
				len(c.pairs), maxPivots, switches, maxForced)
		})
	}
}
