package transport

import (
	"math"
	"math/rand"
	"testing"
)

// referenceVogel is Vogel's approximation method written the plain way:
// every refresh rescans the whole row or column for its two cheapest
// active entries, lowest index first among ties. It is the
// specification the compiled-order initVogel must reproduce cell for
// cell. It returns the allocated flow and the allocated cells.
func referenceVogel(cost [][]float64, supply, demand []float64) (flow [][]float64, basic [][]bool) {
	m, n := len(supply), len(demand)
	flow = newMatrix(m, n)
	basic = make([][]bool, m)
	for i := range basic {
		basic[i] = make([]bool, n)
	}
	s := append([]float64(nil), supply...)
	d := append([]float64(nil), demand...)
	rowActive := make([]bool, m)
	colActive := make([]bool, n)
	for i := range rowActive {
		rowActive[i] = true
	}
	for j := range colActive {
		colActive[j] = true
	}
	activeRows, activeCols := m, n

	// twoCheapest returns the indices of the two cheapest active entries
	// of a row or column given by at(k), -1 for none.
	twoCheapest := func(size int, active []bool, at func(k int) float64) (int, int) {
		m1, m2 := -1, -1
		for k := 0; k < size; k++ {
			if !active[k] {
				continue
			}
			if m1 < 0 || at(k) < at(m1) {
				m1, m2 = k, m1
			} else if m2 < 0 || at(k) < at(m2) {
				m2 = k
			}
		}
		return m1, m2
	}
	penalty := func(m1, m2 int, at func(k int) float64) float64 {
		if m2 < 0 {
			return math.Inf(1)
		}
		return at(m2) - at(m1)
	}

	for activeRows > 0 && activeCols > 0 {
		bestPenalty, bestIsRow, bestIdx, bestMin := -1.0, true, -1, -1
		for i := 0; i < m; i++ {
			if !rowActive[i] {
				continue
			}
			at := func(j int) float64 { return cost[i][j] }
			m1, m2 := twoCheapest(n, colActive, at)
			if m1 < 0 {
				continue
			}
			if p := penalty(m1, m2, at); p > bestPenalty {
				bestPenalty, bestIsRow, bestIdx, bestMin = p, true, i, m1
			}
		}
		for j := 0; j < n; j++ {
			if !colActive[j] {
				continue
			}
			at := func(i int) float64 { return cost[i][j] }
			m1, m2 := twoCheapest(m, rowActive, at)
			if m1 < 0 {
				continue
			}
			if p := penalty(m1, m2, at); p > bestPenalty {
				bestPenalty, bestIsRow, bestIdx, bestMin = p, false, j, m1
			}
		}
		if bestIdx < 0 {
			break
		}
		i, j := bestIdx, bestMin
		if !bestIsRow {
			i, j = bestMin, bestIdx
		}
		q := math.Min(s[i], d[j])
		flow[i][j] += q
		basic[i][j] = true
		s[i] -= q
		d[j] -= q
		if s[i] <= d[j] && activeRows > 1 || activeCols == 1 {
			rowActive[i] = false
			activeRows--
		} else {
			colActive[j] = false
			activeCols--
		}
	}
	return flow, basic
}

// TestCompiledVogelMatchesReference checks that initVogel over the
// compiled row/column orders allocates exactly the cells and amounts of
// the plain rescanning method: on random dense costs, on the tie-heavy
// |i-j| cost, on rectangular shapes, and on marginals with empty bins
// (where the orders still list the stripped rows and columns).
func TestCompiledVogelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []struct{ m, n int }{{1, 1}, {1, 6}, {6, 1}, {5, 5}, {9, 4}, {4, 9}, {16, 16}, {24, 17}}
	for _, sh := range shapes {
		costs := map[string][][]float64{"random": randomProblem(rng, sh.m, sh.n, false).Cost}
		if sh.m == sh.n {
			costs["linear"] = manhattanCost(sh.m)
		}
		// A cost with only three distinct values: ties in every row and
		// column, also between the cheapest and second-cheapest entry.
		coarse := newMatrix(sh.m, sh.n)
		for i := range coarse {
			for j := range coarse[i] {
				coarse[i][j] = float64(rng.Intn(3))
			}
		}
		costs["coarse"] = coarse

		for name, cost := range costs {
			cc := compileCost(cost)
			st := newSimplexState(sh.m, sh.n)
			for trial := 0; trial < 40; trial++ {
				p := randomMarginals(rng, cost, trial%2 == 1)
				supply, demand := st.reduceProblem(cc, p.Supply, p.Demand)
				if len(supply) == 0 || len(demand) == 0 {
					continue
				}
				st.initVogel(supply, demand)
				wantFlow, wantBasic := referenceVogel(st.cost, supply, demand)
				for i := 0; i < st.m; i++ {
					for j := 0; j < st.n; j++ {
						if st.basic[i*st.n+j] != wantBasic[i][j] || st.flow[i][j] != wantFlow[i][j] {
							t.Fatalf("%s %dx%d trial %d (solved %dx%d) cell (%d,%d): compiled basic=%v flow=%v, reference basic=%v flow=%v",
								name, sh.m, sh.n, trial, st.m, st.n, i, j,
								st.basic[i*st.n+j], st.flow[i][j], wantBasic[i][j], wantFlow[i][j])
						}
					}
				}
			}
		}
	}
}

// TestCompileCostOrders checks the compiled orders directly: every row
// and column order is a permutation sorted by (cost, index), and the
// scale is the largest entry.
func TestCompileCostOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cost := randomProblem(rng, 7, 11, false).Cost
	cost[2][3], cost[2][8] = cost[2][5], cost[2][5] // ties within a row
	cost[1][4], cost[6][4] = cost[3][4], cost[3][4] // and within a column
	cc := compileCost(cost)
	var max float64
	for i := 0; i < cc.m; i++ {
		order := cc.rowOrder[i*cc.n : (i+1)*cc.n]
		seen := make([]bool, cc.n)
		for k, j := range order {
			seen[j] = true
			max = math.Max(max, cost[i][j])
			if k > 0 {
				prev := order[k-1]
				if cost[i][prev] > cost[i][j] || cost[i][prev] == cost[i][j] && prev > j {
					t.Fatalf("row %d: order %v not sorted by (cost, index)", i, order)
				}
			}
		}
		for j, ok := range seen {
			if !ok {
				t.Fatalf("row %d: column %d missing from order %v", i, j, order)
			}
		}
	}
	for j := 0; j < cc.n; j++ {
		order := cc.colOrder[j*cc.m : (j+1)*cc.m]
		seen := make([]bool, cc.m)
		for k, i := range order {
			seen[i] = true
			if k > 0 {
				prev := order[k-1]
				if cost[prev][j] > cost[i][j] || cost[prev][j] == cost[i][j] && prev > i {
					t.Fatalf("column %d: order %v not sorted by (cost, index)", j, order)
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("column %d: row %d missing from order %v", j, i, order)
			}
		}
	}
	if cc.scale != max {
		t.Fatalf("scale %v, want %v", cc.scale, max)
	}
	if zero := compileCost([][]float64{{0, 0}}); zero.scale != 1 {
		t.Fatalf("all-zero cost: scale %v, want 1", zero.scale)
	}
}

// TestRootedTreeMatchesRecomputation checks the invariant the pivot
// loop rests on: after any number of pivots, the parent/depth arrays
// and the duals that pivot maintained by re-hanging subtrees are
// bitwise those of a from-scratch computeDuals on the same basis.
func TestRootedTreeMatchesRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		m, n := 3+rng.Intn(14), 3+rng.Intn(14)
		var p Problem
		if trial%3 == 0 {
			p = randomMarginals(rng, manhattanCost(m), false)
			n = m
		} else {
			p = randomProblem(rng, m, n, false)
		}
		st := newSimplexState(m, n)
		st.prepareDense(compileCost(p.Cost))
		// A poor start, so the loop has many pivots to make.
		st.initNorthwest(p.Supply, p.Demand)
		st.patchBasis()
		st.computeDuals()
		tol := 1e-10 * st.scale
		for pivots := 0; ; pivots++ {
			ei, ej, bound, ok := st.entering(tol, p.Supply, p.Demand)
			// A full scan's certificate is the feasibility-repaired dual
			// objective up to the -tol floor of the row repair.
			if !math.IsInf(bound, -1) {
				var mass float64
				for _, s := range p.Supply {
					mass += s
				}
				ref := st.feasibleDualBound(p.Supply, p.Demand)
				if slack := 1e-12 * st.scale * (1 + mass); bound > ref+slack || bound < ref-tol*mass-slack {
					t.Fatalf("trial %d pivot %d: scan certificate %v, feasibleDualBound %v", trial, pivots, bound, ref)
				}
			} else if !ok {
				t.Fatalf("trial %d pivot %d: optimality declared without a full scan", trial, pivots)
			}
			if !ok {
				if pivots == 0 && trial%3 != 0 {
					t.Fatalf("trial %d: northwest start was already optimal", trial)
				}
				break
			}
			st.pivot(ei, ej)
			u := append([]float64(nil), st.u[:m]...)
			v := append([]float64(nil), st.v[:n]...)
			parent := append([]int32(nil), st.parent[:m+n]...)
			depth := append([]int32(nil), st.depth[:m+n]...)
			st.computeDuals()
			for i := range u {
				if u[i] != st.u[i] {
					t.Fatalf("trial %d pivot %d: u[%d] maintained %v, recomputed %v", trial, pivots, i, u[i], st.u[i])
				}
			}
			for j := range v {
				if v[j] != st.v[j] {
					t.Fatalf("trial %d pivot %d: v[%d] maintained %v, recomputed %v", trial, pivots, j, v[j], st.v[j])
				}
			}
			for x := range parent {
				if parent[x] != st.parent[x] || depth[x] != st.depth[x] {
					t.Fatalf("trial %d pivot %d: node %d maintained parent/depth %d/%d, recomputed %d/%d",
						trial, pivots, x, parent[x], depth[x], st.parent[x], st.depth[x])
				}
			}
		}
	}
}

// TestSolveFlowCertifiedAndPrivate checks the flow-copying entry of the
// pooled solver: the returned solution carries a flow and duals that
// pass the independent feasibility and strong-duality checks, equals
// what the one-shot SolveSimplex returns, and shares no memory with the
// pool — scribbling over it changes no later answer.
func TestSolveFlowCertifiedAndPrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, cost := range [][][]float64{manhattanCost(12), randomProblem(rng, 9, 13, false).Cost} {
		s, err := NewSolver(cost)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			p := randomMarginals(rng, cost, trial%2 == 0)
			sol, err := s.SolveFlow(p.Supply, p.Demand)
			if err != nil {
				t.Fatalf("SolveFlow: %v", err)
			}
			if err := CheckOptimal(p, sol, 1e-9); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			oneShot, err := SolveSimplex(p)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Objective != oneShot.Objective || sol.Iterations != oneShot.Iterations {
				t.Fatalf("trial %d: pooled %v in %d pivots, one-shot %v in %d",
					trial, sol.Objective, sol.Iterations, oneShot.Objective, oneShot.Iterations)
			}
			for i := range sol.Flow {
				for j := range sol.Flow[i] {
					if sol.Flow[i][j] != oneShot.Flow[i][j] {
						t.Fatalf("trial %d: flow[%d][%d] pooled %v, one-shot %v", trial, i, j, sol.Flow[i][j], oneShot.Flow[i][j])
					}
				}
			}

			// Scribble over everything returned, then solve again on the
			// same (single) pooled state.
			for i := range sol.Flow {
				for j := range sol.Flow[i] {
					sol.Flow[i][j] = -7
				}
			}
			for i := range sol.DualU {
				sol.DualU[i] = math.NaN()
			}
			for j := range sol.DualV {
				sol.DualV[j] = math.NaN()
			}
			again, err := s.SolveFlow(p.Supply, p.Demand)
			if err != nil {
				t.Fatalf("SolveFlow: %v", err)
			}
			if err := CheckOptimal(p, again, 1e-9); err != nil {
				t.Fatalf("trial %d after scribbling: %v", trial, err)
			}
			for i := range again.Flow {
				for j := range again.Flow[i] {
					if again.Flow[i][j] != oneShot.Flow[i][j] {
						t.Fatalf("trial %d after scribbling: flow[%d][%d] = %v, want %v", trial, i, j, again.Flow[i][j], oneShot.Flow[i][j])
					}
				}
			}
			if sol.Flow[0][0] != -7 {
				t.Fatalf("trial %d: a later solve wrote into a returned flow", trial)
			}
		}
	}
}

// TestSolverCountsSSPFallback forces the simplex's iteration-limit
// fallback with a pivot budget of one and checks that every entry point
// counts it and still answers exactly (the SSP solver is independent of
// the simplex, so agreement is up to float summation only).
func TestSolverCountsSSPFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	cost := randomProblem(rng, 10, 10, false).Cost
	ref, err := NewSolver(cost)
	if err != nil {
		t.Fatal(err)
	}
	starved, err := NewSolver(cost)
	if err != nil {
		t.Fatal(err)
	}
	starved.maxIter = 1
	tol := 1e-12 * ref.cc.scale
	fallbacks := map[string]int{}

	for trial := 0; trial < 20; trial++ {
		p := randomMarginals(rng, cost, trial%2 == 0)
		want, err := ref.SolveValueBounded(p.Supply, p.Demand, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		// Each entry point reports its value and whether it fell back (a
		// start that needs at most one pivot does not).
		fell := func(solve func() (float64, error)) (float64, bool) {
			before := starved.SSPFallbacks()
			v, err := solve()
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return v, starved.SSPFallbacks() > before
		}
		entries := map[string]func() (float64, error){
			"SolveValueBounded": func() (float64, error) {
				res, err := starved.SolveValueBounded(p.Supply, p.Demand, math.Inf(1))
				return res.Value, err
			},
			"SolveValue": func() (float64, error) { return starved.SolveValue(p.Supply, p.Demand) },
			"SolveFlow": func() (float64, error) {
				sol, err := starved.SolveFlow(p.Supply, p.Demand)
				if err != nil {
					return 0, err
				}
				if err := CheckFeasible(p, sol.Flow, 1e-9); err != nil {
					return 0, err
				}
				return sol.Objective, nil
			},
		}
		for name, solve := range entries {
			v, fallback := fell(solve)
			if fallback {
				fallbacks[name]++
			}
			if math.Abs(v-want.Value) > tol {
				t.Fatalf("trial %d: %s (fallback=%v) returned %v, simplex %v (diff %g > %g)",
					trial, name, fallback, v, want.Value, v-want.Value, tol)
			}
		}
	}
	for _, name := range []string{"SolveValueBounded", "SolveValue", "SolveFlow"} {
		if fallbacks[name] == 0 {
			t.Errorf("%s: a pivot budget of 1 never forced the SSP fallback over 20 problems", name)
		}
	}
	if ref.SSPFallbacks() != 0 {
		t.Fatalf("the default budget fell back %d times on 10x10 problems", ref.SSPFallbacks())
	}
}
