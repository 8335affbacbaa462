package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSumCompensated(t *testing.T) {
	// Kahan summation keeps a long sum of small values exact enough.
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = 0.1
	}
	if got := Sum(xs); math.Abs(got-100000) > 1e-6 {
		t.Errorf("Sum = %.12f, want 100000", got)
	}
	if Sum(nil) != 0 {
		t.Error("Sum(nil) != 0")
	}
}

func TestNorms(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := L1(a, b); got != 7 {
		t.Errorf("L1 = %g, want 7", got)
	}
	if got := L2(a, b); got != 5 {
		t.Errorf("L2 = %g, want 5", got)
	}
	if got := Lp(a, b, 1); got != 7 {
		t.Errorf("Lp(1) = %g, want 7", got)
	}
	if got := Lp(a, b, 2); math.Abs(got-5) > 1e-12 {
		t.Errorf("Lp(2) = %g, want 5", got)
	}
	if got := Lp(a, b, 3); math.Abs(got-math.Pow(27+64, 1.0/3)) > 1e-12 {
		t.Errorf("Lp(3) = %g", got)
	}
}

func TestQuickLpTriangle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		for _, p := range []float64{1, 2, 3} {
			if Lp(a, b, p) > Lp(a, c, p)+Lp(c, b, p)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{2, 2, 4}
	Normalize(xs)
	if math.Abs(Sum(xs)-1) > 1e-12 || xs[2] != 0.5 {
		t.Errorf("Normalize = %v", xs)
	}
	defer func() {
		if recover() == nil {
			t.Error("Normalize of zero mass did not panic")
		}
	}()
	Normalize([]float64{0, 0})
}

func TestMatVec(t *testing.T) {
	m := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	got := MatVec([]float64{2, 3, 4}, m)
	if got[0] != 6 || got[1] != 7 {
		t.Errorf("MatVec = %v, want [6 7]", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2}
	b := Clone(a)
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone shares backing array")
	}
	m := [][]float64{{1, 2}, {3, 4}}
	mc := CloneMatrix(m)
	mc[0][0] = 9
	if m[0][0] != 1 {
		t.Error("CloneMatrix shares backing array")
	}
}

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 2)
	if len(m) != 3 || len(m[1]) != 2 {
		t.Fatalf("NewMatrix shape %dx%d", len(m), len(m[0]))
	}
	m[2][1] = 7
	if m[2][1] != 7 || m[0][0] != 0 {
		t.Error("NewMatrix storage broken")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1+1e-12, 1e-9) {
		t.Error("tiny absolute difference rejected")
	}
	if !AlmostEqual(1e12, 1e12*(1+1e-10), 1e-9) {
		t.Error("tiny relative difference rejected")
	}
	if AlmostEqual(1, 2, 1e-9) {
		t.Error("large difference accepted")
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a := [][]float64{{3, 0}, {0, 1}}
	vals, vecs, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Errorf("eigenvalues %v, want [3 1]", vals)
	}
	if math.Abs(math.Abs(vecs[0][0])-1) > 1e-9 {
		t.Errorf("first eigenvector %v", vecs[0])
	}
}

func TestJacobiEigenKnown(t *testing.T) {
	// Symmetric 2x2 with eigenvalues 3 and 1.
	a := [][]float64{{2, 1}, {1, 2}}
	vals, vecs, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues %v, want [3 1]", vals)
	}
	// A v = lambda v for each pair.
	for k := 0; k < 2; k++ {
		for i := 0; i < 2; i++ {
			av := a[i][0]*vecs[k][0] + a[i][1]*vecs[k][1]
			if math.Abs(av-vals[k]*vecs[k][i]) > 1e-9 {
				t.Errorf("A v != lambda v for pair %d", k)
			}
		}
	}
}

func TestJacobiEigenRandomReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 8
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i][j] = v
			a[j][i] = v
		}
	}
	vals, vecs, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct A = sum_k lambda_k v_k v_k^T.
	recon := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				recon[i][j] += vals[k] * vecs[k][i] * vecs[k][j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(recon[i][j]-a[i][j]) > 1e-8 {
				t.Fatalf("reconstruction error at (%d,%d): %g vs %g", i, j, recon[i][j], a[i][j])
			}
		}
	}
	// Eigenvalues sorted descending.
	for k := 1; k < n; k++ {
		if vals[k] > vals[k-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
}

func TestJacobiEigenRejectsAsymmetric(t *testing.T) {
	if _, _, err := JacobiEigen([][]float64{{1, 2}, {3, 1}}); err == nil {
		t.Error("accepted asymmetric matrix")
	}
	if _, _, err := JacobiEigen([][]float64{{1, 2}}); err == nil {
		t.Error("accepted non-square matrix")
	}
}

func TestCovariance(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	cov, err := Covariance(rows)
	if err != nil {
		t.Fatal(err)
	}
	// Both variables have variance 4, covariance 4.
	if math.Abs(cov[0][0]-4) > 1e-12 || math.Abs(cov[0][1]-4) > 1e-12 || math.Abs(cov[1][1]-4) > 1e-12 {
		t.Errorf("Covariance = %v", cov)
	}
	if _, err := Covariance([][]float64{{1}}); err == nil {
		t.Error("accepted single observation")
	}
	if _, err := Covariance([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("accepted ragged observations")
	}
}

func TestScale(t *testing.T) {
	xs := []float64{1, 2}
	Scale(xs, 3)
	if xs[0] != 3 || xs[1] != 6 {
		t.Errorf("Scale = %v", xs)
	}
}
