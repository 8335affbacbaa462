package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"emdsearch/internal/emd"
)

// minLinkageCounterexample builds the canonical triangle-inequality
// violation of the Definition 5 reduced cost: four 1-D bins at
// positions 0, 1, 10, 11 grouped as A = {0}, B = {10}, C = {1, 11}.
// Min-linkage gives c'(A,C) = 1, c'(C,B) = 1 but c'(A,B) = 10.
func minLinkageCounterexample(t *testing.T) emd.CostMatrix {
	t.Helper()
	pos := [][]float64{{0}, {1}, {10}, {11}}
	c, err := emd.PositionCost(pos, pos, 1)
	if err != nil {
		t.Fatalf("PositionCost: %v", err)
	}
	// bins 0,1,10,11 -> groups A=0, C=2, B=1, C=2
	r, err := NewReduction([]int{0, 2, 1, 2}, 3)
	if err != nil {
		t.Fatalf("NewReduction: %v", err)
	}
	reduced, err := ReduceCost(c, r, r)
	if err != nil {
		t.Fatalf("ReduceCost: %v", err)
	}
	return reduced
}

func TestMinLinkageViolatesTriangle(t *testing.T) {
	reduced := minLinkageCounterexample(t)
	if got := reduced[0][2]; got != 1 {
		t.Fatalf("c'(A,C) = %g, want 1", got)
	}
	if got := reduced[2][1]; got != 1 {
		t.Fatalf("c'(C,B) = %g, want 1", got)
	}
	if got := reduced[0][1]; got != 10 {
		t.Fatalf("c'(A,B) = %g, want 10", got)
	}
	if reduced.IsMetric(0) {
		t.Fatal("IsMetric accepted a matrix violating the triangle inequality")
	}
}

func TestMetricClosureRepairsCounterexample(t *testing.T) {
	reduced := minLinkageCounterexample(t)
	closed, changed := MetricClosure(reduced)
	if !changed {
		t.Fatal("MetricClosure reported no change on a non-metric input")
	}
	if !closed.IsMetric(0) {
		t.Fatal("closure is not a pseudometric")
	}
	for i := range closed {
		for j := range closed[i] {
			if closed[i][j] > reduced[i][j] {
				t.Fatalf("closure[%d][%d] = %g exceeds input %g", i, j, closed[i][j], reduced[i][j])
			}
		}
	}
	// The A-B shortcut goes through C: 1 + 1 = 2.
	if got := closed[0][1]; got != 2 {
		t.Fatalf("closure(A,B) = %g, want 2", got)
	}
}

func TestMetricClosureFixpointOnMetricInput(t *testing.T) {
	c := emd.LinearCost(6)
	closed, changed := MetricClosure(c)
	if changed {
		t.Fatal("MetricClosure changed an already-metric matrix")
	}
	for i := range closed {
		for j := range closed[i] {
			if closed[i][j] != c[i][j] {
				t.Fatalf("closure[%d][%d] = %g, want %g (bit-identical fixpoint)", i, j, closed[i][j], c[i][j])
			}
		}
	}
	if !closed.IsMetric(0) {
		t.Fatal("fixpoint closure fails IsMetric")
	}
}

// TestMetricClosureLowerBoundsReducedEMD checks the monotonicity
// argument the index relies on: EMD under the closure never exceeds
// EMD under the original reduced cost, so the index metric remains a
// valid lower bound of the exact EMD.
func TestMetricClosureLowerBoundsReducedEMD(t *testing.T) {
	reduced := minLinkageCounterexample(t)
	closed, _ := MetricClosure(reduced)
	origDist, err := emd.NewDist(reduced)
	if err != nil {
		t.Fatalf("NewDist(reduced): %v", err)
	}
	closedDist, err := emd.NewDist(closed)
	if err != nil {
		t.Fatalf("NewDist(closed): %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		x := randomHistogram(rng, 3)
		y := randomHistogram(rng, 3)
		lo := closedDist.Distance(x, y)
		hi := origDist.Distance(x, y)
		if lo > hi+1e-9 {
			t.Fatalf("trial %d: EMD_closure = %g > EMD_reduced = %g", trial, lo, hi)
		}
	}
}

// TestMetricClosureTriangleQuick property-tests the pseudometric
// axioms of EMD under the closed ground distance on random histogram
// triples — exactly what the metric index's pruning depends on.
func TestMetricClosureTriangleQuick(t *testing.T) {
	reduced := minLinkageCounterexample(t)
	closed, _ := MetricClosure(reduced)
	dist, err := emd.NewDist(closed)
	if err != nil {
		t.Fatalf("NewDist: %v", err)
	}
	hist := func(raw [3]float64) emd.Histogram {
		h := make(emd.Histogram, 3)
		total := 0.0
		for i, v := range raw {
			h[i] = math.Abs(v-math.Trunc(v)) + 0.01 // bounded, positive
			total += h[i]
		}
		for i := range h {
			h[i] /= total
		}
		return h
	}
	axioms := func(rx, ry, rz [3]float64) bool {
		x, y, z := hist(rx), hist(ry), hist(rz)
		dxy := dist.Distance(x, y)
		dxz := dist.Distance(x, z)
		dzy := dist.Distance(z, y)
		if dxy < 0 || dxy > dxz+dzy+1e-9 {
			return false
		}
		if dist.Distance(y, x) != dxy { // symmetry, bit-exact
			return false
		}
		return dist.Distance(x, x) <= 1e-12 // identity
	}
	if err := quick.Check(axioms, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatalf("metric axiom violated under closed ground distance: %v", err)
	}
}
