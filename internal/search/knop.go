package search

import (
	"fmt"
	"sort"
	"time"
)

// Result is one query answer: a database item and its exact distance.
type Result struct {
	Index int
	Dist  float64
}

// before is the answer order of every query — the order of the
// rankings: ascending distance, with the index as the deterministic
// tie-breaker.
func (r Result) before(o Result) bool { return candBefore(Candidate(r), Candidate(o)) }

// sortResults puts results in answer order.
func sortResults(results []Result) {
	sort.Slice(results, func(i, j int) bool { return results[i].before(results[j]) })
}

// StageStats describes the work one named filter stage performed
// during a single query — the per-stage view of the observability
// layer. Stages appear in chain order (cheapest/loosest first).
type StageStats struct {
	// Name identifies the stage (e.g. "Potentials", "Q-Red-IM",
	// "Red-IM", "Red-EMD", "Red-EMD-8").
	Name string
	// Evaluations counts how often this stage's filter distance was
	// computed.
	Evaluations int
	// Pruned counts candidates this stage ruled out: items it evaluated
	// that the next consumer (the following stage, or the refinement
	// loop) never had to touch.
	Pruned int
	// Aborted counts the evaluations (included in Evaluations) that were
	// answered by a bound instead of a finished computation: the stage's
	// distance function stopped early on a certified lower bound above
	// the query's live threshold, or the chain did not call it at all
	// because the previous stage's value already exceeded the threshold.
	// Always 0 for the eagerly scanned bottom stage, for an index and on
	// a threshold-oblivious Searcher.
	Aborted int
	// Duration is the wall time spent inside this stage's distance
	// function.
	Duration time.Duration
}

// QueryStats records the work one query performed.
type QueryStats struct {
	// Pulled counts candidates drawn from the filter ranking.
	Pulled int
	// SnapshotLen is the number of indexed items (including
	// soft-deleted ones) in the snapshot the query ran on; filled by
	// the engine's context-aware entry points, 0 elsewhere.
	// SnapshotLen - Pulled is the unexamined tail of a cancelled query,
	// measured against the state it actually searched rather than the
	// live engine (which races concurrent Adds).
	SnapshotLen int
	// Refinements counts exact (full-dimensional EMD) computations.
	Refinements int
	// RefinementsSkipped counts candidates that were dispatched to the
	// parallel refinement pool but discarded unrefined because the
	// shared k-NN threshold had already dropped below their filter
	// distance. Always 0 on the sequential path.
	RefinementsSkipped int
	// RefinesAborted counts refinements (included in Refinements) that
	// the bounded solver abandoned early because a certified lower
	// bound on the exact distance exceeded the pruning threshold.
	RefinesAborted int
	// AcceptedByUpper counts the results of a membership range query
	// that were certified by their upper bound alone — no exact distance
	// was computed for them. Always 0 for k-NN and plain range queries.
	AcceptedByUpper int `json:",omitempty"`
	// WarmStartHits is retired in PR 12, always 0: the solver's basis
	// warm start was deleted. The field stays for readers of the
	// struct (bench/).
	WarmStartHits int
	// RefineRows and RefineCols accumulate the reduced problem shapes
	// (zero-mass bins stripped) over all refinements; divide by
	// Refinements for the average solved shape. Zero when the bounded
	// refinement kernel is not in use.
	RefineRows int64
	RefineCols int64
	// Workers is the number of goroutines that served the refinement
	// stage (1 on the sequential path).
	Workers int
	// Cancelled reports that the query stopped early because its
	// cooperative cancel flag was observed (context cancelled or
	// deadline expired). The returned results are then a certified
	// partial answer, not the complete one.
	Cancelled bool
	// IndexUsed reports that a metric-index candidate generator served
	// this query in place of the scan-based filter chain.
	IndexUsed bool
	// IndexNodesVisited and IndexPruned count index nodes expanded and
	// ruled out during the traversal; zero unless IndexUsed.
	IndexNodesVisited int
	IndexPruned       int
	// StageEvaluations counts filter evaluations per pipeline stage;
	// filled by Searcher, left empty by the bare algorithms. It mirrors
	// Stages[i].Evaluations and is kept for compact comparisons.
	StageEvaluations []int
	// Stages carries the named per-stage counters and wall times, in
	// chain order; filled by Searcher, nil for the bare algorithms.
	Stages []StageStats
	// FilterTime is the wall time spent evaluating filter stages.
	FilterTime time.Duration
	// RefineTime is the time spent in exact refinements, summed across
	// refinement workers (it can exceed TotalTime when Workers > 1).
	RefineTime time.Duration
	// TotalTime is the end-to-end wall time of the query.
	TotalTime time.Duration
}

// Refinement is the outcome of one threshold-aware exact distance
// computation.
type Refinement struct {
	// Dist is the exact distance when the solve ran to optimality, or
	// a certified lower bound on it when Aborted.
	Dist float64
	// Aborted reports that the solver abandoned the candidate early:
	// the certified bound exceeded the threshold it was given, so the
	// exact distance provably does too.
	Aborted bool
	// Interrupted reports that the solve was cut short by a
	// cooperative cancel flag (query deadline). Dist is then a
	// certified lower bound on the exact distance — possibly 0 — that
	// certifies nothing about the threshold; the candidate is
	// unresolved, not discarded.
	Interrupted bool
	// Rows and Cols are the reduced problem shape actually solved.
	Rows, Cols int
}

// BoundedRefine is the one refinement seam of the candidate loop. With
// the query and its interrupt flag already bound, it computes the exact
// distance of database item index — unless it can certify that the
// distance exceeds abortAbove, in which case it may return early with
// Aborted set (+Inf never aborts). Implementations must only abort on a
// certified lower bound: Dist <= true distance whenever Aborted.
type BoundedRefine func(index int, abortAbove float64) Refinement

// observe accumulates one refinement outcome into the stats.
func (s *QueryStats) observe(r Refinement) {
	s.Refinements++
	s.RefineRows += int64(r.Rows)
	s.RefineCols += int64(r.Cols)
	if r.Aborted {
		s.RefinesAborted++
	}
}

// LinearScanKNN is the exact baseline: refine every item and keep the
// k closest. It performs n refinements by construction and anchors
// both the correctness tests and the performance comparisons.
func LinearScanKNN(n int, refine func(index int) float64, k int) ([]Result, *QueryStats, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("search: k = %d, want >= 1", k)
	}
	all := make([]Result, n)
	for i := 0; i < n; i++ {
		all[i] = Result{Index: i, Dist: refine(i)}
	}
	sortResults(all)
	if k > n {
		k = n
	}
	return all[:k], &QueryStats{Pulled: n, Refinements: n}, nil
}
