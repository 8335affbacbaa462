package transport

import (
	"math"
	"math/rand"
	"testing"
)

// solveCold solves p with a fresh solver (empty pool, no cached duals)
// through the bounded kernel at +Inf, i.e. to optimality.
func solveCold(t *testing.T, p Problem) float64 {
	t.Helper()
	s, err := NewSolver(p.Cost)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
	if err != nil {
		t.Fatalf("SolveValueBoundedIntr: %v", err)
	}
	if res.Aborted {
		t.Fatalf("aborted with abortAbove = +Inf")
	}
	return res.Value
}

// TestSolveValueBoundedMatchesSolveValue checks the bit-identity
// contract: at abortAbove = +Inf the bounded kernel, sparsity
// reduction and all, must return exactly the value of the legacy
// validating kernel, on dense and sparse instances alike.
func TestSolveValueBoundedMatchesSolveValue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(10)
		n := 2 + rng.Intn(10)
		p := randomProblem(rng, m, n, trial%2 == 0)
		s, err := NewSolver(p.Cost)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		want, err := s.SolveValue(p.Supply, p.Demand)
		if err != nil {
			t.Fatalf("SolveValue: %v", err)
		}
		// Repeat on the same pooled state; every repetition must stay
		// bit-identical.
		for rep := 0; rep < 3; rep++ {
			res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
			if err != nil {
				t.Fatalf("SolveValueBoundedIntr: %v", err)
			}
			if res.Aborted {
				t.Fatalf("trial %d rep %d: aborted with abortAbove = +Inf", trial, rep)
			}
			if res.Value != want {
				t.Fatalf("trial %d rep %d: bounded %v != SolveValue %v (diff %g)",
					trial, rep, res.Value, want, res.Value-want)
			}
		}
	}
}

// TestSolveValueBoundedHistoryIndependent solves random candidate
// sequences through one pooled solver and compares every outcome with
// a fresh solver's on the same problem. The pooled state carries the
// duals of whatever it solved last (warmV), which may only ever decide
// *whether* a bounded solve aborts before the simplex — never a
// completed value, and never an unsound bound. This is the engine's
// refinement access pattern: one cost matrix, a stream of histograms.
func TestSolveValueBoundedHistoryIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	preAborts := 0
	for seq := 0; seq < 10; seq++ {
		m := 3 + rng.Intn(8)
		n := 3 + rng.Intn(8)
		cost := randomProblem(rng, m, n, false).Cost
		s, err := NewSolver(cost)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		for cand := 0; cand < 30; cand++ {
			p := randomMarginals(rng, cost, cand%3 == 0)
			cold := solveCold(t, p)
			res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
			if err != nil {
				t.Fatalf("SolveValueBoundedIntr: %v", err)
			}
			if res.Aborted || res.Value != cold {
				t.Fatalf("seq %d cand %d: pooled %v (aborted=%v) != fresh %v (diff %g)",
					seq, cand, res.Value, res.Aborted, cold, res.Value-cold)
			}

			// A threshold below the optimum, on a state whose cached duals
			// come from the solve just finished or — every other candidate —
			// from an unrelated problem solved in between.
			if cand%2 == 0 {
				q := randomMarginals(rng, cost, false)
				if _, err := s.SolveValueBoundedIntr(q.Supply, q.Demand, math.Inf(1), nil); err != nil {
					t.Fatalf("SolveValueBoundedIntr: %v", err)
				}
			}
			lo, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, 0.7*cold, nil)
			if err != nil {
				t.Fatalf("SolveValueBoundedIntr(0.7 opt): %v", err)
			}
			if lo.Aborted {
				preAborts++
				if lo.Value <= 0.7*cold || lo.Value > cold+1e-9*(1+cold) {
					t.Fatalf("seq %d cand %d: certified bound %v outside (%v, %v]",
						seq, cand, lo.Value, 0.7*cold, cold)
				}
			} else if lo.Value != cold {
				t.Fatalf("seq %d cand %d: completed bounded solve %v != fresh %v", seq, cand, lo.Value, cold)
			}
		}
	}
	if preAborts == 0 {
		t.Errorf("no bounded solve aborted at 0.7 of the optimum over 300 candidates")
	}
}

// TestSolveValueBoundedSparsity checks that zero-mass rows and columns
// are stripped (reported shape shrinks) without changing the value.
func TestSolveValueBoundedSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		m := 4 + rng.Intn(8)
		n := 4 + rng.Intn(8)
		p := randomProblem(rng, m, n, true)
		rows, cols := 0, 0
		for _, v := range p.Supply {
			if v > 0 {
				rows++
			}
		}
		for _, v := range p.Demand {
			if v > 0 {
				cols++
			}
		}
		s, err := NewSolver(p.Cost)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
		if err != nil {
			t.Fatalf("SolveValueBoundedIntr: %v", err)
		}
		if res.Rows != rows || res.Cols != cols {
			t.Fatalf("trial %d: reduced shape %dx%d, want %dx%d",
				trial, res.Rows, res.Cols, rows, cols)
		}
		want, err := s.SolveValue(p.Supply, p.Demand)
		if err != nil {
			t.Fatalf("SolveValue: %v", err)
		}
		if res.Value != want {
			t.Fatalf("trial %d: reduced %v != dense %v", trial, res.Value, want)
		}
	}
}

// TestSolveValueBoundedAbortSoundness checks the certificate contract:
// an aborted solve's Value is a lower bound on the true optimum that
// exceeds the threshold, and no solve aborts when the threshold is at
// or above the optimum.
func TestSolveValueBoundedAbortSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	aborted := 0
	for trial := 0; trial < 300; trial++ {
		m := 2 + rng.Intn(9)
		n := 2 + rng.Intn(9)
		p := randomProblem(rng, m, n, trial%2 == 0)
		s, err := NewSolver(p.Cost)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		opt, err := s.SolveValue(p.Supply, p.Demand)
		if err != nil {
			t.Fatalf("SolveValue: %v", err)
		}
		tol := 1e-9 * (1 + math.Abs(opt))

		// Threshold at or above the optimum: must run to optimality and
		// stay bit-identical.
		res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, opt, nil)
		if err != nil {
			t.Fatalf("SolveValueBoundedIntr(opt): %v", err)
		}
		if res.Aborted {
			t.Fatalf("trial %d: aborted with abortAbove = optimum (bound %v, opt %v)",
				trial, res.Value, opt)
		}
		if res.Value != opt {
			t.Fatalf("trial %d: bounded-at-opt %v != %v", trial, res.Value, opt)
		}

		// Threshold well below the optimum: abort is allowed (and
		// expected for most instances); the certified bound must be
		// sound either way.
		lo, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, 0.5*opt, nil)
		if err != nil {
			t.Fatalf("SolveValueBoundedIntr(opt/2): %v", err)
		}
		if lo.Aborted {
			aborted++
			if lo.Value <= 0.5*opt {
				t.Fatalf("trial %d: aborted but bound %v <= threshold %v", trial, lo.Value, 0.5*opt)
			}
			if lo.Value > opt+tol {
				t.Fatalf("trial %d: certified bound %v exceeds optimum %v", trial, lo.Value, opt)
			}
		} else if lo.Value != opt {
			t.Fatalf("trial %d: completed solve %v != optimum %v", trial, lo.Value, opt)
		}
	}
	if aborted == 0 {
		t.Errorf("no solve aborted at half the optimum over 300 trials")
	}
}

// TestSolveValueBoundedDegenerate covers the mass-concentration edge
// cases of the reduction: all mass in one bin on either side.
func TestSolveValueBoundedDegenerate(t *testing.T) {
	cost := manhattanCost(5)
	supply := []float64{0, 0, 1, 0, 0}
	for _, demand := range [][]float64{
		{1, 0, 0, 0, 0},
		{0, 0, 1, 0, 0},
		{0.5, 0, 0, 0, 0.5},
	} {
		p := Problem{Supply: supply, Demand: demand, Cost: cost}
		s, err := NewSolver(cost)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
		if err != nil {
			t.Fatalf("SolveValueBoundedIntr: %v", err)
		}
		want, err := s.SolveValue(p.Supply, p.Demand)
		if err != nil {
			t.Fatalf("SolveValue: %v", err)
		}
		if res.Value != want {
			t.Fatalf("demand %v: bounded %v != dense %v", demand, res.Value, want)
		}
		if res.Rows != 1 {
			t.Fatalf("demand %v: reduced rows %d, want 1", demand, res.Rows)
		}
	}
}

// pivotsOf runs the bounded kernel's pivot loop on a fresh state (no
// cached duals, so no pre-simplex abort) and returns how many pivots it
// made and why it stopped.
func pivotsOf(cc *compiledCost, p Problem, abortAbove float64) (int, stopCause) {
	st := newSimplexState(cc.m, cc.n)
	supply, demand := st.reduceProblem(cc, p.Supply, p.Demand)
	st.initVogel(supply, demand)
	st.patchBasis()
	iter, stop, _, err := st.pivotLoop(supply, demand, abortAbove, nil)
	if err != nil {
		panic(err)
	}
	return iter, stop
}

// TestBoundedSolveCostsNothingUntilItAborts pins the two ends of the
// abort certificate on the workload of BenchmarkSolveBounded (random
// dense histogram pairs over the |i-j| ground distance, d = 8..64). The
// certificate is a by-product of the pricing scans the loop runs anyway:
// a threshold just above the optimum can never be exceeded, and the
// solve then makes exactly the pivots of the unbounded one and returns
// the same value bits; a threshold just below the optimum is exceeded at
// the latest by the final, optimality-certifying scan, so the solve
// aborts — with a bound that does not overshoot the optimum.
func TestBoundedSolveCostsNothingUntilItAborts(t *testing.T) {
	for _, d := range []int{8, 16, 32, 64} {
		cost := manhattanCost(d)
		cc := compileCost(cost)
		s, err := NewSolver(cost)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(d)))
		early := 0
		for trial := 0; trial < 24; trial++ {
			p := randomMarginals(rng, cost, false)
			exact, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			opt := exact.Value
			pivots, stop := pivotsOf(cc, p, math.Inf(1))
			if stop != stopOptimal {
				t.Fatalf("d=%d trial %d: unbounded solve stopped with cause %d", d, trial, stop)
			}

			above := opt * (1 + 1e-6)
			res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, above, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborted || math.Float64bits(res.Value) != math.Float64bits(opt) {
				t.Fatalf("d=%d trial %d: abortAbove just above the optimum %v: aborted=%v value %v", d, trial, opt, res.Aborted, res.Value)
			}
			if n, stop := pivotsOf(cc, p, above); stop != stopOptimal || n != pivots {
				t.Fatalf("d=%d trial %d: bounded solve that cannot abort made %d pivots (cause %d), unbounded %d", d, trial, n, stop, pivots)
			}

			below := opt * (1 - 1e-6)
			res, err = s.SolveValueBoundedIntr(p.Supply, p.Demand, below, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Aborted || !(res.Value > below) || res.Value > opt {
				t.Fatalf("d=%d trial %d: abortAbove %v just below the optimum %v: aborted=%v value %v", d, trial, below, opt, res.Aborted, res.Value)
			}
			n, stop := pivotsOf(cc, p, below)
			if stop != stopAborted || n > pivots {
				t.Fatalf("d=%d trial %d: solve bounded just below the optimum made %d pivots (cause %d), unbounded %d", d, trial, n, stop, pivots)
			}
			// Well below the optimum an earlier scan already certifies it.
			if n, stop := pivotsOf(cc, p, 0.5*opt); stop != stopAborted || n > pivots {
				t.Fatalf("d=%d trial %d: solve bounded at half the optimum made %d pivots (cause %d), unbounded %d", d, trial, n, stop, pivots)
			} else if n < pivots {
				early++
			}
		}
		if early == 0 {
			t.Errorf("d=%d: no solve bounded at half its optimum stopped before the last pivot", d)
		}
	}
}
