package data

import (
	"math"
	"testing"

	"emdsearch/internal/emd"
)

type generator struct {
	name string
	gen  func(n int, seed int64) (*Dataset, error)
	dim  int
}

func generators() []generator {
	return []generator{
		{"retina", Retina, RetinaDim},
		{"irma", IRMA, IRMADim},
		{"color", ColorImages, ColorDim},
		{"music", func(n int, seed int64) (*Dataset, error) { return MusicSpectra(n, 48, seed) }, 48},
		{"words", func(n int, seed int64) (*Dataset, error) { return Words(n, 64, seed) }, 64},
	}
}

func TestGeneratorsProduceValidHistograms(t *testing.T) {
	for _, g := range generators() {
		t.Run(g.name, func(t *testing.T) {
			ds, err := g.gen(30, 7)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Dim != g.dim {
				t.Fatalf("dim = %d, want %d", ds.Dim, g.dim)
			}
			if len(ds.Items) != 30 {
				t.Fatalf("items = %d, want 30", len(ds.Items))
			}
			if ds.Cost.Rows() != g.dim || ds.Cost.Cols() != g.dim {
				t.Fatalf("cost matrix %dx%d", ds.Cost.Rows(), ds.Cost.Cols())
			}
			if err := ds.Cost.Validate(); err != nil {
				t.Fatalf("cost matrix invalid: %v", err)
			}
			if !ds.Cost.IsSymmetric() {
				t.Error("cost matrix not symmetric")
			}
			for i, item := range ds.Items {
				if err := emd.Validate(item.Vector); err != nil {
					t.Fatalf("item %d: %v", i, err)
				}
				if item.Label == "" {
					t.Fatalf("item %d has no label", i)
				}
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range generators() {
		t.Run(g.name, func(t *testing.T) {
			a, err := g.gen(10, 42)
			if err != nil {
				t.Fatal(err)
			}
			b, err := g.gen(10, 42)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Items {
				if a.Items[i].Label != b.Items[i].Label {
					t.Fatalf("labels differ at %d", i)
				}
				for j := range a.Items[i].Vector {
					if a.Items[i].Vector[j] != b.Items[i].Vector[j] {
						t.Fatalf("vectors differ at item %d bin %d", i, j)
					}
				}
			}
		})
	}
}

func TestGeneratorsSeedSensitivity(t *testing.T) {
	for _, g := range generators() {
		t.Run(g.name, func(t *testing.T) {
			a, _ := g.gen(5, 1)
			b, _ := g.gen(5, 2)
			same := true
			for i := range a.Items {
				for j := range a.Items[i].Vector {
					if a.Items[i].Vector[j] != b.Items[i].Vector[j] {
						same = false
					}
				}
			}
			if same {
				t.Error("different seeds produced identical data")
			}
		})
	}
}

func TestGeneratorsRejectBadArgs(t *testing.T) {
	if _, err := Retina(0, 1); err == nil {
		t.Error("Retina accepted n=0")
	}
	if _, err := IRMA(-1, 1); err == nil {
		t.Error("IRMA accepted n<0")
	}
	if _, err := ColorImages(0, 1); err == nil {
		t.Error("ColorImages accepted n=0")
	}
	if _, err := MusicSpectra(5, 4, 1); err == nil {
		t.Error("MusicSpectra accepted tiny d")
	}
	if _, err := Words(5, 4, 1); err == nil {
		t.Error("Words accepted tiny vocabulary")
	}
}

// TestClassStructure verifies the property the flow-based reduction
// relies on: same-class objects are, on average, closer under the EMD
// than cross-class objects. The averages need the EMD only to ~1e-10,
// so they sum the kernel's lower-bound exit, which skips the polish
// that dominates an exact solve at IRMA's 199 bins.
func TestClassStructure(t *testing.T) {
	for _, g := range generators() {
		t.Run(g.name, func(t *testing.T) {
			ds, err := g.gen(24, 11)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := emd.NewDist(ds.Cost)
			if err != nil {
				t.Fatal(err)
			}
			var intra, inter float64
			var nIntra, nInter int
			for i := 0; i < len(ds.Items); i++ {
				for j := i + 1; j < len(ds.Items); j++ {
					d := dist.LowerBound(ds.Items[i].Vector, ds.Items[j].Vector, math.Inf(1)).Value
					if ds.Items[i].Label == ds.Items[j].Label {
						intra += d
						nIntra++
					} else {
						inter += d
						nInter++
					}
				}
			}
			if nIntra == 0 || nInter == 0 {
				t.Skip("degenerate class split in small sample")
			}
			intra /= float64(nIntra)
			inter /= float64(nInter)
			if intra >= inter {
				t.Errorf("no class structure: intra %.4f >= inter %.4f", intra, inter)
			}
		})
	}
}

func TestSplit(t *testing.T) {
	ds, err := MusicSpectra(20, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	dbPart, queries, err := ds.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbPart) != 15 || len(queries) != 5 {
		t.Fatalf("split sizes %d/%d, want 15/5", len(dbPart), len(queries))
	}
	if _, _, err := ds.Split(20); err == nil {
		t.Error("accepted nQueries >= n")
	}
	if _, _, err := ds.Split(0); err == nil {
		t.Error("accepted nQueries = 0")
	}
}

func TestIRMAGrayLevelSpread(t *testing.T) {
	// Radiography histograms must use a reasonable part of the gray
	// range, not collapse into a couple of bins.
	ds, err := IRMA(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range ds.Items {
		active := 0
		for _, v := range item.Vector {
			if v > 1e-6 {
				active++
			}
		}
		if active < 10 {
			t.Errorf("item %d uses only %d gray levels", i, active)
		}
	}
}

func TestRetinaTilingMassSpread(t *testing.T) {
	ds, err := Retina(10, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range ds.Items {
		// The vignette guarantees mass in central tiles; no single tile
		// may hold almost everything.
		max := 0.0
		for _, v := range item.Vector {
			if v > max {
				max = v
			}
		}
		if max > 0.5 {
			t.Errorf("item %d concentrates %.2f mass in one tile", i, max)
		}
	}
}

func TestZipfRankDistribution(t *testing.T) {
	ds, err := Words(60, 32, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate mass should be heavy on low token indices within each
	// topic (Zipf) — check the aggregate is not uniform.
	agg := make([]float64, 32)
	for _, item := range ds.Items {
		for j, v := range item.Vector {
			agg[j] += v
		}
	}
	var first, last float64
	for j := 0; j < 8; j++ {
		first += agg[j]
	}
	for j := 24; j < 32; j++ {
		last += agg[j]
	}
	if first <= last {
		t.Errorf("no Zipf head: first-octile mass %.3f <= last-octile %.3f", first, last)
	}
	if math.IsNaN(first) || math.IsNaN(last) {
		t.Fatal("NaN in aggregate")
	}
}

func TestGaussianMixtures(t *testing.T) {
	ds, err := GaussianMixtures(40, 32, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim != 32 || len(ds.Items) != 40 {
		t.Fatalf("dim %d items %d", ds.Dim, len(ds.Items))
	}
	for i, item := range ds.Items {
		if err := emd.Validate(item.Vector); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	// Determinism and argument validation.
	a, _ := GaussianMixtures(5, 16, 2, 9)
	b, _ := GaussianMixtures(5, 16, 2, 9)
	for i := range a.Items {
		for j := range a.Items[i].Vector {
			if a.Items[i].Vector[j] != b.Items[i].Vector[j] {
				t.Fatal("not deterministic")
			}
		}
	}
	if _, err := GaussianMixtures(0, 16, 2, 1); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := GaussianMixtures(5, 16, 10, 1); err == nil {
		t.Error("accepted modes > d/2")
	}
}
