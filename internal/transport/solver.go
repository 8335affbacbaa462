package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Solver is a reusable exact solver for transportation problems over
// one fixed cost matrix. It compiles the matrix once (sorted row and
// column orders for the Vogel start, the cost scale) and pools the
// simplex working state across calls, which removes essentially all
// allocation from the hot path of query processing. The value-only
// entry points keep the flow matrix in pooled memory and never expose
// it; SolveFlow copies it out.
//
// A Solver is safe for concurrent use; each goroutine draws its own
// state from the pool. The cost matrix must not be modified while the
// Solver is in use.
type Solver struct {
	cc   *compiledCost
	pool sync.Pool
	// maxIter overrides the pivot budget of every solve when positive;
	// tests use it to force the SSP fallback.
	maxIter int
	// sspFallbacks counts solves that hit the pivot budget and were
	// answered by SolveSSP instead.
	sspFallbacks atomic.Int64
}

// NewSolver compiles cost and creates a pooled solver for problems
// over it. The matrix is trusted to hold non-negative finite entries
// (emd.NewDist validates it); only its shape is checked here.
func NewSolver(cost [][]float64) (*Solver, error) {
	m := len(cost)
	if m == 0 || len(cost[0]) == 0 {
		return nil, fmt.Errorf("transport: NewSolver: empty cost matrix")
	}
	n := len(cost[0])
	for i, row := range cost {
		if len(row) != n {
			return nil, fmt.Errorf("transport: NewSolver: cost row %d has %d columns, want %d", i, len(row), n)
		}
	}
	s := &Solver{cc: compileCost(cost)}
	s.pool.New = func() interface{} { return newSimplexState(m, n) }
	return s, nil
}

// Shape returns the problem shape this solver accepts.
func (s *Solver) Shape() (m, n int) { return s.cc.m, s.cc.n }

// SSPFallbacks returns how many solves of this Solver exceeded the
// simplex pivot budget and were answered by the SSP solver instead.
func (s *Solver) SSPFallbacks() int64 { return s.sspFallbacks.Load() }

func (s *Solver) problem(supply, demand []float64) Problem {
	return Problem{Supply: supply, Demand: demand, Cost: s.cc.cost}
}

func (s *Solver) checkShape(supply, demand []float64) error {
	if len(supply) != s.cc.m || len(demand) != s.cc.n {
		return fmt.Errorf("transport: solver is %dx%d, problem is %dx%d",
			s.cc.m, s.cc.n, len(supply), len(demand))
	}
	return nil
}

func (s *Solver) get() *simplexState {
	st := s.pool.Get().(*simplexState)
	st.maxIter = s.maxIter
	return st
}

// fallback answers a solve that failed with err: an exhausted pivot
// budget is counted and handed to the independent SSP solver, so
// callers always get an exact answer; any other error is returned.
func (s *Solver) fallback(err error, supply, demand []float64) (*Solution, error) {
	if !errors.Is(err, ErrIterationLimit) {
		return nil, err
	}
	s.sspFallbacks.Add(1)
	return SolveSSP(s.problem(supply, demand))
}

// SolveValue solves the problem with the given marginals and returns
// the optimal objective. It validates the marginals and always runs the
// full dense shape to optimality — the legacy kernel. The returned
// objective is the canonical double-double dual objective of the
// polished terminal basis, so it is bit-identical to what
// SolveValueBounded reports for the same problem when that solve runs
// to optimality, regardless of sparsity reduction.
func (s *Solver) SolveValue(supply, demand []float64) (float64, error) {
	if err := s.checkShape(supply, demand); err != nil {
		return 0, err
	}
	if err := Validate(s.problem(supply, demand)); err != nil {
		return 0, err
	}
	st := s.get()
	if _, err := st.run(s.cc, supply, demand); err != nil {
		s.pool.Put(st)
		sol, err := s.fallback(err, supply, demand)
		if err != nil {
			return 0, err
		}
		return sol.Objective, nil
	}
	obj := st.canonicalValue(supply, demand, st.polish(supply, demand))
	s.pool.Put(st)
	return obj, nil
}

// SolveFlow solves the problem with the given marginals on the full
// dense shape and returns the optimal flow with its dual certificate,
// exactly as the package-level Solve would — but on the compiled cost
// matrix and pooled state of s. The Solution is a private copy and
// shares no memory with the pool. Marginals are trusted, as in
// SolveValueBounded.
func (s *Solver) SolveFlow(supply, demand []float64) (*Solution, error) {
	if err := s.checkShape(supply, demand); err != nil {
		return nil, err
	}
	st := s.get()
	iter, err := st.run(s.cc, supply, demand)
	if err != nil {
		s.pool.Put(st)
		return s.fallback(err, supply, demand)
	}
	sol := st.solution(iter)
	s.pool.Put(st)
	return sol, nil
}

// SolveValueBounded is the threshold-aware form of SolveValue: it may
// return early — with Aborted=true and a certified lower bound as
// Value — as soon as a dual-feasible solution proves the optimum
// exceeds abortAbove. Pass abortAbove = +Inf to always run to
// optimality.
//
// Three things distinguish it from SolveValue. (1) Zero-mass rows and
// columns are stripped before solving (Rows/Cols report the reduced
// shape), which changes nothing about the optimum. (2) The pooled
// state keeps the column duals of its previous optimal solve and
// prices the new problem with them before any simplex work; any dual
// vector yields a certified bound, the cache only makes it tight.
// (3) Every full pricing scan of the pivot loop yields, as a by-product,
// the dual objective of a feasibility-repaired copy of the current
// potentials — a certified lower bound (weak duality) that is compared
// against abortAbove; a threshold the optimum does not exceed therefore
// costs no extra pass and no extra pivot.
//
// The marginals are trusted — no validation is performed; callers own
// them (non-negative, balanced). When the solve completes, Value is
// bit-identical to SolveValue's for the same problem, whatever the
// state served before.
func (s *Solver) SolveValueBounded(supply, demand []float64, abortAbove float64) (BoundedResult, error) {
	return s.SolveValueBoundedIntr(supply, demand, abortAbove, nil)
}

// SolveValueBoundedIntr is SolveValueBounded with a cooperative
// interrupt: when intr is non-nil it is polled once per pivot
// iteration, and an observed interrupt stops the solve within one
// pivot's worth of work. The result then carries Interrupted=true and
// Value is a certified lower bound on the optimum by weak duality
// (possibly 0 when the interrupt was observed before any pivoting).
// Interrupted solves never update the pooled dual cache. A nil intr is
// byte-identical to SolveValueBounded.
func (s *Solver) SolveValueBoundedIntr(supply, demand []float64, abortAbove float64, intr *atomic.Bool) (BoundedResult, error) {
	if err := s.checkShape(supply, demand); err != nil {
		return BoundedResult{}, err
	}
	st := s.get()
	res, err := st.solveBounded(s.cc, supply, demand, abortAbove, intr)
	s.pool.Put(st)
	if err != nil {
		sol, err := s.fallback(err, supply, demand)
		if err != nil {
			return BoundedResult{}, err
		}
		return BoundedResult{Value: sol.Objective, Rows: res.Rows, Cols: res.Cols}, nil
	}
	return res, nil
}
