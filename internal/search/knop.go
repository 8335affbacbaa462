package search

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Result is one query answer: a database item and its exact distance.
type Result struct {
	Index int
	Dist  float64
}

// StageStats describes the work one named filter stage performed
// during a single query — the per-stage view of the observability
// layer. Stages appear in chain order (cheapest/loosest first).
type StageStats struct {
	// Name identifies the stage (e.g. "Red-IM", "Red-EMD", "Red-EMD-8",
	// "Asym-Red-EMD").
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

// BoundedRefine computes the exact distance of database item index to
// the query unless it can certify the distance exceeds abortAbove, in
// which case it may return early with Aborted set. Implementations
// must only abort on a certified lower bound: Dist <= true distance
// whenever Aborted.
type BoundedRefine func(index int, abortAbove float64) Refinement

// adaptRefine lifts a plain exact-distance function into a
// BoundedRefine that never aborts.
func adaptRefine(refine func(index int) float64) BoundedRefine {
	return func(i int, _ float64) Refinement {
		return Refinement{Dist: refine(i)}
	}
}

// observe accumulates one refinement outcome into the stats.
func (s *QueryStats) observe(r Refinement) {
	s.Refinements++
	s.RefineRows += int64(r.Rows)
	s.RefineCols += int64(r.Cols)
	if r.Aborted {
		s.RefinesAborted++
	}
}

// KNN runs the KNOP k-nearest-neighbor algorithm of Figure 11 over a
// lower-bounding filter ranking. refine computes the exact distance of
// a database item to the query. The algorithm refines candidates in
// ranking order until the next filter distance exceeds the distance of
// the current k-th neighbor; because the filter lower-bounds the exact
// distance, no unrefined item can then belong to the result
// (completeness, proven in the GEMINI/KNOP literature cited by the
// paper). Ties on the k-th distance are refined, making the result
// deterministic-by-index among equal distances.
func KNN(ranking Ranking, refine func(index int) float64, k int) ([]Result, *QueryStats, error) {
	return KNNBounded(ranking, adaptRefine(refine), k)
}

// KNNBounded is KNN with a threshold-aware refinement: each candidate
// is refined with the current k-th neighbor distance as its abort
// threshold (+Inf until k neighbors are known). An aborted candidate
// carries a certified lower bound above that threshold, so its exact
// distance exceeds the current — and hence the final — k-th distance
// and it is discarded exactly as a completed refinement past the
// threshold would be; results are identical to KNN's, including the
// tie-on-the-k-th-distance semantics (the bounded solver's guard keeps
// ties from aborting). Only the work counters differ.
func KNNBounded(ranking Ranking, refine BoundedRefine, k int) ([]Result, *QueryStats, error) {
	res, _, stats, err := knnBoundedCore(ranking, refine, k, knnConfig{})
	return res, stats, err
}

// knnConfig carries the optional hooks of the KNOP cores. The zero
// value selects the classic behavior; both hooks are checked with nil
// guards so a zero config costs nothing on the hot path and keeps the
// classic results byte-identical.
type knnConfig struct {
	// cancel, when non-nil, is polled once per candidate (and, through
	// the interrupt-aware refinement, once per simplex pivot): once set
	// the query stops early with stats.Cancelled and the unresolved
	// candidates reported as pending.
	cancel *atomic.Bool
	// pred, when non-nil, filters candidates after the threshold check
	// and before refinement; failing candidates count as Pulled but are
	// never refined. It runs on the calling goroutine only, so
	// predicates need not be goroutine-safe even on the parallel path.
	pred func(index int) bool
	// shared, when non-nil, joins this search to a cross-partition
	// neighbor set: the loop prunes against min(local k-th, global
	// k-th) and offers every confirmed exact distance under its global
	// id. toGlobal maps local to global indices (nil = identity).
	shared   *SharedKNN
	toGlobal func(local int) int
	// bound, when non-nil, is the cell the ranking's chained stages read
	// the live pruning threshold from (Searcher.buildRanking hands it
	// out); the loop publishes the threshold there before every Next.
	// Only the goroutine that calls Next writes it.
	bound *float64
}

func (cfg *knnConfig) cancelled() bool {
	return cfg.cancel != nil && cfg.cancel.Load()
}

// tighten folds the shared global threshold, when present, into the
// local one. The shared threshold is monotonically non-increasing and
// always >= the final global k-th distance, so pruning against the
// minimum of the two discards only items provably outside the final
// answer — the same argument that makes the per-query parallel
// threshold sound.
func (cfg *knnConfig) tighten(threshold float64) float64 {
	if cfg.shared != nil {
		if t := cfg.shared.Threshold(); t < threshold {
			threshold = t
		}
	}
	return threshold
}

// publish makes threshold — the bound the loop is about to prune the
// next candidate with — visible to the filter chain. The chain may then
// answer any item with a certified bound above it instead of a finished
// filter distance; because thresholds only fall, the loop will stop at
// such an item whenever it surfaces.
func (cfg *knnConfig) publish(threshold float64) {
	if cfg.bound != nil {
		*cfg.bound = threshold
	}
}

// offer publishes a confirmed exact distance to the shared set.
func (cfg *knnConfig) offer(localIndex int, dist float64) {
	if cfg.shared == nil {
		return
	}
	gid := localIndex
	if cfg.toGlobal != nil {
		gid = cfg.toGlobal(localIndex)
	}
	cfg.shared.Offer(gid, dist)
}

// knnBoundedCore is the sequential KNOP loop shared by KNNBounded and
// the context-aware searcher entry points. On cancellation it returns
// the neighbors confirmed so far plus the pending (pulled but
// unresolved) candidates with their best certified lower bounds.
func knnBoundedCore(ranking Ranking, refine BoundedRefine, k int, cfg knnConfig) ([]Result, []PendingCandidate, *QueryStats, error) {
	if k < 1 {
		return nil, nil, nil, fmt.Errorf("search: k = %d, want >= 1", k)
	}
	stats := &QueryStats{Workers: 1}
	neighbors := make([]Result, 0, k+1)
	var pending []PendingCandidate

	insert := func(r Result) {
		pos := sort.Search(len(neighbors), func(i int) bool {
			if neighbors[i].Dist != r.Dist {
				return neighbors[i].Dist > r.Dist
			}
			return neighbors[i].Index > r.Index
		})
		neighbors = append(neighbors, Result{})
		copy(neighbors[pos+1:], neighbors[pos:])
		neighbors[pos] = r
		if len(neighbors) > k {
			neighbors = neighbors[:k]
		}
	}

	for {
		if cfg.cancelled() {
			stats.Cancelled = true
			break
		}
		threshold := math.Inf(1)
		if len(neighbors) == k {
			threshold = neighbors[k-1].Dist
		}
		cfg.publish(cfg.tighten(threshold))
		c, ok := ranking.Next()
		if !ok {
			break
		}
		stats.Pulled++
		// Re-read the shared threshold: other partitions may have
		// tightened it while the chain was evaluating filters.
		threshold = cfg.tighten(threshold)
		if c.Dist > threshold {
			// Lower-bounding filter: every remaining item is at least
			// this far away (from the local k-th, or from the global
			// k-th another partition already confirmed).
			break
		}
		if cfg.pred != nil && !cfg.pred(c.Index) {
			continue
		}
		r, rerr := callRefine(refine, c.Index, threshold)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		stats.observe(r)
		if r.Interrupted {
			// The solve was cut short by the cancel flag: the exact
			// distance is unresolved, only bounded below by the filter
			// distance and the solver's certified dual bound.
			stats.Cancelled = true
			pending = append(pending, PendingCandidate{Index: c.Index, Lower: math.Max(c.Dist, r.Dist)})
			break
		}
		if r.Aborted {
			continue
		}
		d := r.Dist
		cfg.offer(c.Index, d)
		if len(neighbors) < k || d < neighbors[k-1].Dist ||
			(d == neighbors[k-1].Dist && c.Index < neighbors[k-1].Index) {
			insert(Result{Index: c.Index, Dist: d})
		}
	}
	return neighbors, pending, stats, nil
}

// Range returns all items whose exact distance is at most eps,
// using the lower-bounding filter ranking to prune: items are pulled
// while their filter distance is <= eps and refined; the rest cannot
// qualify. Results are sorted by distance, then index.
func Range(ranking Ranking, refine func(index int) float64, eps float64) ([]Result, *QueryStats, error) {
	return RangeBounded(ranking, adaptRefine(refine), eps)
}

// RangeBounded is Range with a threshold-aware refinement: eps is the
// abort threshold of every candidate. An aborted candidate's exact
// distance provably exceeds eps, so results are identical to Range's.
func RangeBounded(ranking Ranking, refine BoundedRefine, eps float64) ([]Result, *QueryStats, error) {
	return rangeBoundedCore(ranking, refine, eps, knnConfig{})
}

// rangeBoundedCore is the sequential range loop shared by RangeBounded
// and the context-aware entry points. A cancelled range query returns
// the results confirmed so far — each is individually certified (exact
// distance <= eps), so a partial set is sound, just not complete.
func rangeBoundedCore(ranking Ranking, refine BoundedRefine, eps float64, cfg knnConfig) ([]Result, *QueryStats, error) {
	if eps < 0 {
		return nil, nil, fmt.Errorf("search: eps = %g, want >= 0", eps)
	}
	stats := &QueryStats{Workers: 1}
	var results []Result
	cfg.publish(eps)
	for {
		if cfg.cancelled() {
			stats.Cancelled = true
			break
		}
		c, ok := ranking.Next()
		if !ok {
			break
		}
		stats.Pulled++
		if c.Dist > eps {
			break
		}
		if cfg.pred != nil && !cfg.pred(c.Index) {
			continue
		}
		r, rerr := callRefine(refine, c.Index, eps)
		if rerr != nil {
			return nil, nil, rerr
		}
		stats.observe(r)
		if r.Interrupted {
			stats.Cancelled = true
			break
		}
		if !r.Aborted && r.Dist <= eps {
			results = append(results, Result{Index: c.Index, Dist: r.Dist})
		}
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Dist != results[j].Dist {
			return results[i].Dist < results[j].Dist
		}
		return results[i].Index < results[j].Index
	})
	return results, stats, nil
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
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Index < all[j].Index
	})
	if k > n {
		k = n
	}
	return all[:k], &QueryStats{Pulled: n, Refinements: n}, nil
}
