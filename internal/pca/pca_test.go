package pca

import (
	"math"
	"math/rand"
	"testing"

	"emdsearch/internal/core"
	"emdsearch/internal/data"
	"emdsearch/internal/emd"
	"emdsearch/internal/flowred"
	"emdsearch/internal/vecmath"
)

func sampleData(t *testing.T, n int) (*data.Dataset, []emd.Histogram) {
	t.Helper()
	ds, err := data.MusicSpectra(n, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ds, ds.Histograms()
}

func TestNewValidation(t *testing.T) {
	ds, hs := sampleData(t, 10)
	if _, err := New(hs[:1], ds.Cost, 4, 0.1); err == nil {
		t.Error("accepted single-histogram sample")
	}
	if _, err := New(hs, ds.Cost, 1, 0.1); err == nil {
		t.Error("accepted reduced dim 1")
	}
	if _, err := New(hs, ds.Cost, 25, 0.1); err == nil {
		t.Error("accepted reduced > d")
	}
	if _, err := New(hs, ds.Cost, 4, 0); err == nil {
		t.Error("accepted residual share 0")
	}
	if _, err := New(hs, ds.Cost, 4, 1); err == nil {
		t.Error("accepted residual share 1")
	}
	if _, err := New(hs, emd.LinearCost(7), 4, 0.1); err == nil {
		t.Error("accepted mismatched cost matrix")
	}
}

func TestRowStochastic(t *testing.T) {
	ds, hs := sampleData(t, 20)
	s, err := New(hs, ds.Cost, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range s.r {
		var sum float64
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative reduction weight at row %d: %v", i, row)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestApplyPreservesMass(t *testing.T) {
	ds, hs := sampleData(t, 20)
	s, err := New(hs, ds.Cost, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs[:5] {
		xr := s.Apply(h)
		if len(xr) != 5 {
			t.Fatalf("reduced length %d, want 5", len(xr))
		}
		if math.Abs(vecmath.Sum(xr)-1) > 1e-9 {
			t.Fatalf("mass not preserved: %g", vecmath.Sum(xr))
		}
		for j, v := range xr {
			if v < -1e-12 {
				t.Fatalf("negative reduced mass at %d: %g", j, v)
			}
		}
	}
}

// TestLowerBound: the PCA soft reduction must never overestimate the
// exact EMD — the property the cost-matrix concession buys.
func TestLowerBound(t *testing.T) {
	ds, hs := sampleData(t, 40)
	dist, err := emd.NewDist(ds.Cost)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(hs[:20], ds.Cost, 6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		x := hs[rng.Intn(len(hs))]
		y := hs[rng.Intn(len(hs))]
		exact := dist.Distance(x, y)
		if lbv := s.Distance(x, y); lbv > exact+1e-9 {
			t.Fatalf("PCA bound %g exceeds EMD %g", lbv, exact)
		}
	}
}

// TestPCAMuchLooserThanCombining reproduces the paper's Section 3.2
// observation: the PCA reduction's lower bound is drastically looser
// than a combining reduction of the same dimensionality.
func TestPCAMuchLooserThanCombining(t *testing.T) {
	ds, hs := sampleData(t, 60)
	dist, err := emd.NewDist(ds.Cost)
	if err != nil {
		t.Fatal(err)
	}
	const dr = 6
	pcaRed, err := New(hs[:30], ds.Cost, dr, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Combining reduction via FB-All from the same sample.
	flows, err := flowred.AverageFlows(hs[:16], dist)
	if err != nil {
		t.Fatal(err)
	}
	fbAssign, _, err := flowred.OptimizeAll(flowred.BaseAssignment(ds.Dim), dr, flows, ds.Cost, flowred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := core.NewReducedEMD(ds.Cost, fbAssign, fbAssign)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	var pcaSum, fbSum, exactSum float64
	for trial := 0; trial < 25; trial++ {
		x := hs[rng.Intn(len(hs))]
		y := hs[rng.Intn(len(hs))]
		exact := dist.Distance(x, y)
		if exact < 1e-9 {
			continue
		}
		pcaSum += pcaRed.Distance(x, y)
		fbSum += fb.Distance(x, y)
		exactSum += exact
	}
	if exactSum == 0 {
		t.Skip("all sampled pairs identical")
	}
	pcaRatio := pcaSum / exactSum
	fbRatio := fbSum / exactSum
	t.Logf("tightness ratio: PCA %.4f, FB combining %.4f", pcaRatio, fbRatio)
	if pcaRatio >= fbRatio {
		t.Errorf("PCA bound (%.4f) not looser than combining bound (%.4f); paper finding not reproduced",
			pcaRatio, fbRatio)
	}
}

func TestReducedDimsAndCost(t *testing.T) {
	ds, hs := sampleData(t, 15)
	s, err := New(hs, ds.Cost, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if s.ReducedDims() != 4 {
		t.Errorf("ReducedDims = %d, want 4", s.ReducedDims())
	}
	c := s.Cost()
	if c.Rows() != 4 || c.Cols() != 4 {
		t.Errorf("reduced cost %dx%d, want 4x4", c.Rows(), c.Cols())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("reduced cost invalid: %v", err)
	}
}

func TestDistanceReducedMatchesDistance(t *testing.T) {
	ds, hs := sampleData(t, 15)
	s, err := New(hs, ds.Cost, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	x, y := hs[0], hs[1]
	full := s.Distance(x, y)
	viaReduced := s.DistanceReduced(s.Apply(x), s.Apply(y))
	if math.Abs(full-viaReduced) > 1e-9 {
		t.Errorf("Distance %g != DistanceReduced %g", full, viaReduced)
	}
}
