package transport

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestSolveValueBoundedIntrNilIdentity checks the contract that a nil
// interrupt flag leaves the bounded kernel byte-identical: same values
// as SolveValue, never Interrupted.
func TestSolveValueBoundedIntrNilIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
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
		res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
		if err != nil {
			t.Fatalf("SolveValueBoundedIntr: %v", err)
		}
		if res.Interrupted {
			t.Fatalf("trial %d: interrupted with nil flag", trial)
		}
		if res.Value != want {
			t.Fatalf("trial %d: intr-nil %v != SolveValue %v", trial, res.Value, want)
		}
	}
}

// TestSolveValueBoundedIntrPreSet checks that a flag set before the
// call stops the solve at entry with the trivial certified bound, and —
// critically — that the interrupted solve leaves the pooled dual cache
// untouched, so the next solve on the same solver is still exact.
func TestSolveValueBoundedIntrPreSet(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(8)
		n := 2 + rng.Intn(8)
		p := randomProblem(rng, m, n, false)
		s, err := NewSolver(p.Cost)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		// Warm the pool with one optimal solve first, so the interrupted
		// solve below has caches it could (but must not) corrupt.
		want, err := s.SolveValue(p.Supply, p.Demand)
		if err != nil {
			t.Fatalf("SolveValue: %v", err)
		}
		var flag atomic.Bool
		flag.Store(true)
		res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), &flag)
		if err != nil {
			t.Fatalf("SolveValueBoundedIntr: %v", err)
		}
		if !res.Interrupted {
			t.Fatalf("trial %d: pre-set flag not observed", trial)
		}
		if res.Aborted {
			t.Fatalf("trial %d: interrupted solve also reports Aborted", trial)
		}
		if res.Value != 0 {
			t.Fatalf("trial %d: entry interrupt bound %v, want the trivial 0", trial, res.Value)
		}
		after, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
		if err != nil {
			t.Fatalf("post-interrupt solve: %v", err)
		}
		if after.Interrupted || after.Value != want {
			t.Fatalf("trial %d: post-interrupt solve %v (interrupted=%v), want %v",
				trial, after.Value, after.Interrupted, want)
		}
	}
}

// TestPivotLoopInterruptMidSolve drives the pivot loop directly with
// the flag already set, so the interrupt is observed at the first
// in-loop poll — after duals exist, before optimality. The returned
// bound must be certified: nonnegative and at most the true optimum.
// This is the deterministic form of "a deadline interrupts a running
// solve": no timing races, the poll site itself is exercised.
func TestPivotLoopInterruptMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	positive := 0
	for trial := 0; trial < 100; trial++ {
		m := 3 + rng.Intn(10)
		n := 3 + rng.Intn(10)
		p := randomProblem(rng, m, n, false)
		opt := solveCold(t, p)

		st := newSimplexState(m, n)
		supply, demand := st.reduceProblem(compileCost(p.Cost), p.Supply, p.Demand)
		st.initVogel(supply, demand)
		st.patchBasis()
		var flag atomic.Bool
		flag.Store(true)
		iter, stop, bound, err := st.pivotLoop(supply, demand, math.Inf(1), &flag)
		if err != nil {
			t.Fatalf("pivotLoop: %v", err)
		}
		if stop != stopInterrupted {
			t.Fatalf("trial %d: stop cause %v, want stopInterrupted", trial, stop)
		}
		if iter != 0 {
			t.Fatalf("trial %d: %d pivots before honoring the interrupt", trial, iter)
		}
		tol := 1e-9 * (1 + math.Abs(opt))
		if bound < 0 || bound > opt+tol {
			t.Fatalf("trial %d: interrupt bound %v outside [0, opt=%v]", trial, bound, opt)
		}
		if bound > 0 {
			positive++
		}
	}
	// The Vogel basis duals are informative, not trivial: the bound
	// should usually be strictly positive.
	if positive == 0 {
		t.Errorf("interrupt bound was 0 on all 100 trials; dual bound is not being used")
	}
}

// TestSolveValueBoundedIntrConcurrent flips the flag from another
// goroutine while large solves run. Whatever the race outcome, the
// result must be sound: interrupted solves carry a certified bound in
// [0, opt], completed solves the exact optimum — and after any mix of
// interrupted and completed solves the pooled solver still answers
// exactly.
func TestSolveValueBoundedIntrConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const m, n = 60, 60
	p := randomProblem(rng, m, n, false)
	s, err := NewSolver(p.Cost)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	opt := solveCold(t, p)
	tol := 1e-9 * (1 + math.Abs(opt))

	interrupted := 0
	for trial := 0; trial < 40; trial++ {
		var flag atomic.Bool
		done := make(chan struct{})
		delay := time.Duration(trial%8) * 20 * time.Microsecond
		go func() {
			time.Sleep(delay)
			flag.Store(true)
			close(done)
		}()
		res, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), &flag)
		<-done
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Interrupted {
			interrupted++
			if res.Value < 0 || res.Value > opt+tol {
				t.Fatalf("trial %d: interrupt bound %v outside [0, opt=%v]", trial, res.Value, opt)
			}
		} else if res.Value != opt {
			t.Fatalf("trial %d: completed solve %v != optimum %v", trial, res.Value, opt)
		}
	}
	t.Logf("interrupted %d/40 solves", interrupted)

	after, err := s.SolveValueBoundedIntr(p.Supply, p.Demand, math.Inf(1), nil)
	if err != nil {
		t.Fatalf("final solve: %v", err)
	}
	if after.Interrupted || after.Value != opt {
		t.Fatalf("pooled solver degraded after interrupts: %v (interrupted=%v), want %v",
			after.Value, after.Interrupted, opt)
	}
}
