package transport

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAnalytic2x2 checks the solver against the closed form of the
// 2x2 balanced transportation problem: the flow on cell (0,0) is a
// single free variable t in [max(0, a+b-1), min(a, b)] (supplies (a,
// 1-a), demands (b, 1-b)), and the objective is linear in t, so the
// optimum sits at whichever interval end the cost gradient favors.
func TestAnalytic2x2(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64()
		b := rng.Float64()
		c := [][]float64{
			{rng.Float64() * 5, rng.Float64() * 5},
			{rng.Float64() * 5, rng.Float64() * 5},
		}
		// Objective as a function of t = flow(0,0):
		// t*c00 + (a-t)*c01 + (b-t)*c10 + (1-a-b+t)*c11
		// = t*(c00 - c01 - c10 + c11) + const.
		lo := math.Max(0, a+b-1)
		hi := math.Min(a, b)
		grad := c[0][0] - c[0][1] - c[1][0] + c[1][1]
		tOpt := hi
		if grad > 0 {
			tOpt = lo
		}
		want := tOpt*c[0][0] + (a-tOpt)*c[0][1] + (b-tOpt)*c[1][0] + (1-a-b+tOpt)*c[1][1]

		sol, err := Solve(Problem{
			Supply: []float64{a, 1 - a},
			Demand: []float64{b, 1 - b},
			Cost:   c,
		})
		if err != nil {
			return false
		}
		return math.Abs(sol.Objective-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalytic1xN: with a single supply row the flow is forced
// (f[0][j] = demand[j]), so the objective is the demand-weighted cost.
func TestAnalytic1xN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		demand := make([]float64, n)
		var sum float64
		for j := range demand {
			demand[j] = rng.Float64()
			sum += demand[j]
		}
		for j := range demand {
			demand[j] /= sum
		}
		cost := make([][]float64, 1)
		cost[0] = make([]float64, n)
		var want float64
		for j := range cost[0] {
			cost[0][j] = rng.Float64() * 3
			want += demand[j] * cost[0][j]
		}
		sol, err := Solve(Problem{Supply: []float64{1}, Demand: demand, Cost: cost})
		if err != nil {
			return false
		}
		return math.Abs(sol.Objective-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyticAssignment: with uniform supplies/demands of 1/d and a
// permutation-structured cost matrix (zero on a random permutation,
// one elsewhere), the optimum ships everything along the permutation
// at cost zero.
func TestAnalyticAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(10)
		perm := rng.Perm(d)
		cost := make([][]float64, d)
		mass := make([]float64, d)
		for i := range cost {
			cost[i] = make([]float64, d)
			for j := range cost[i] {
				if perm[i] != j {
					cost[i][j] = 1
				}
			}
			mass[i] = 1 / float64(d)
		}
		sol, err := Solve(Problem{Supply: mass, Demand: mass, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Objective > 1e-10 {
			t.Fatalf("trial %d: objective %g, want 0 (perfect matching exists)", trial, sol.Objective)
		}
	}
}

// TestAnalyticEarthLine: EMD on a line with |i-j| cost equals the L1
// distance between the cumulative distribution functions — a classic
// closed form used widely in 1-D optimal transport.
func TestAnalyticEarthLine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(10)
		x := make([]float64, d)
		y := make([]float64, d)
		var sx, sy float64
		for i := 0; i < d; i++ {
			x[i], y[i] = rng.Float64(), rng.Float64()
			sx += x[i]
			sy += y[i]
		}
		for i := 0; i < d; i++ {
			x[i] /= sx
			y[i] /= sy
		}
		cost := make([][]float64, d)
		for i := range cost {
			cost[i] = make([]float64, d)
			for j := range cost[i] {
				cost[i][j] = math.Abs(float64(i - j))
			}
		}
		var want, cumX, cumY float64
		for i := 0; i < d-1; i++ {
			cumX += x[i]
			cumY += y[i]
			want += math.Abs(cumX - cumY)
		}
		sol, err := Solve(Problem{Supply: x, Demand: y, Cost: cost})
		if err != nil {
			return false
		}
		return math.Abs(sol.Objective-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
