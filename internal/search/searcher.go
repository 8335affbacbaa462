package search

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"emdsearch/internal/emd"
)

// FilterStage is one lower-bounding filter in a multistep pipeline
// (e.g. Red-IM or Red-EMD of the paper's Figure 10). Each stage owns
// its database-side representation (typically precomputed reduced
// vectors) and knows how to prepare the query side once per query.
type FilterStage struct {
	// Name identifies the stage in statistics and experiment tables.
	Name string
	// PrepareQuery maps the original query histogram to this stage's
	// representation (e.g. applies the query reduction R1). It is
	// called once per query.
	PrepareQuery func(q emd.Histogram) emd.Histogram
	// Distance computes the stage's filter distance between the
	// prepared query and database item index — or stops early: given the
	// query's live pruning threshold as abortAbove, it may instead return
	// a certified lower bound on that distance which exceeds abortAbove,
	// with aborted set (the item is then provably beyond the threshold,
	// which is all the chain needs to know; see ChainedRanking). A stage
	// with nothing to gain from the threshold ignores it and never
	// reports aborted; Exact adapts a plain distance function. Callers
	// that want the distance itself pass +Inf.
	Distance func(prepared emd.Histogram, index int, abortAbove float64) (d float64, aborted bool)
	// ScanAll, when set, computes the stage's distance for every item
	// in one batched pass, writing item i's distance to out[i] and
	// returning the number of items evaluated. It is used only when
	// the stage runs eagerly at the bottom of the chain (stage 0),
	// where a columnar kernel beats n calls through Distance. It must
	// agree with Distance item-wise: same values, or at minimum the
	// same lower-bounding contract against later stages. Distance
	// remains required — lazy chained use and auxiliary query paths
	// still call it.
	ScanAll func(prepared emd.Histogram, out []float64) int
}

// Exact lifts a plain filter distance into the FilterStage.Distance
// form: it ignores the threshold and always finishes.
func Exact(dist func(prepared emd.Histogram, index int) float64) func(emd.Histogram, int, float64) (float64, bool) {
	return func(prepared emd.Histogram, index int, _ float64) (float64, bool) {
		return dist(prepared, index), false
	}
}

// ExactRefine lifts a plain exact distance into the Searcher.Refine
// form: it ignores the threshold and the interrupt flag and always
// finishes.
func ExactRefine(dist func(q emd.Histogram, index int) float64) func(emd.Histogram, int, float64, *atomic.Bool) Refinement {
	return func(q emd.Histogram, index int, _ float64, _ *atomic.Bool) Refinement {
		return Refinement{Dist: dist(q, index)}
	}
}

// Searcher executes multistep k-NN and range queries over a database
// of n items with an ordered chain of lower-bounding filter stages and
// an exact refinement distance. Stage i must lower-bound stage i+1
// item-wise, and the last stage must lower-bound Refine; this is
// exactly the chaining requirement of Section 4 and is what guarantees
// completeness (no false dismissals).
//
// With zero stages the Searcher degenerates to an exact sequential
// scan, which is the paper's comparison baseline.
//
// A Searcher is immutable after construction and safe for concurrent
// use by any number of queries, provided the stage and refinement
// functions are (the engine's stages close over immutable snapshot
// state and a pooled solver, so they are).
type Searcher struct {
	// N is the database size.
	N int
	// Stages is the filter chain, cheapest and loosest first.
	Stages []FilterStage
	// Refine computes the exact distance (full-dimensional EMD) between
	// the original query and database item index, threshold-aware: it
	// may abandon the candidate once a certified lower bound on its
	// distance exceeds abortAbove, the live pruning threshold of the
	// query (see BoundedRefine for the contract; +Inf never aborts).
	// intr is the query's cancel flag, nil for a query that cannot be
	// cancelled; an implementation that polls it inside its solve
	// returns Interrupted=true with Dist a certified lower bound once it
	// is set, so a deadline stops even a single large solve. Required,
	// and it must be safe for concurrent invocation when Workers > 1.
	// ExactRefine adapts a plain distance function.
	Refine func(q emd.Histogram, index int, abortAbove float64, intr *atomic.Bool) Refinement
	// Oblivious withholds the live threshold from the filter chain:
	// every chained stage's Distance is called with +Inf and runs to
	// completion, as in the paper's Figure 12. With a Refine that
	// ignores its threshold too (ExactRefine) the pipeline is the
	// threshold-oblivious multistep algorithm — what the identity suites
	// compare the threshold-aware one against, and what the experiment
	// harness counts the paper's filter evaluations on. Results, Pulled
	// and Refinements are the same either way.
	Oblivious bool
	// Workers bounds the goroutines used for the exact refinement
	// stage of a single query; values <= 1 refine on the calling
	// goroutine. The filter chain itself always runs on the calling
	// goroutine — only refinements fan out.
	Workers int
}

// stageProbe observes one stage of an assembled per-query chain.
type stageProbe struct {
	name    string
	evals   func() int
	aborted func() int // nil for stages that cannot abort (the eager scan)
	dur     *time.Duration
}

// buildRanking assembles the filter chain for one query and returns
// the final ranking plus probes for the per-stage counters. bound is
// the cell the chained stages read the query's live pruning threshold
// from; the candidate loop that consumes the ranking publishes it there
// (query.bound), and nil leaves every stage running to completion.
func (s *Searcher) buildRanking(q emd.Histogram, bound *float64) (ranking Ranking, probes []stageProbe) {
	chainFrom := 0
	probes = make([]stageProbe, 0, len(s.Stages))
	if len(s.Stages) == 0 {
		// Trivial all-zero filter: a valid lower bound that prunes
		// nothing, yielding the sequential-scan behavior.
		ranking = NewScanRanking(make([]float64, s.N))
	} else {
		first := s.Stages[0]
		prepared := first.PrepareQuery(q)
		dists := make([]float64, s.N)
		start := time.Now()
		var scanned int
		if first.ScanAll != nil {
			scanned = first.ScanAll(prepared, dists)
		} else {
			for i := 0; i < s.N; i++ {
				dists[i], _ = first.Distance(prepared, i, math.Inf(1))
			}
			scanned = s.N
		}
		scanDur := time.Since(start)
		ranking = NewScanRanking(dists)
		chainFrom = 1
		probes = append(probes, stageProbe{
			name:  first.Name,
			evals: func() int { return scanned },
			dur:   &scanDur,
		})
	}

	for _, stage := range s.Stages[chainFrom:] {
		stagePrepared := stage.PrepareQuery(q)
		dist := stage.Distance
		dur := new(time.Duration)
		cr := NewChainedRanking(ranking, func(index int, abortAbove float64) (float64, bool) {
			t0 := time.Now()
			d, aborted := dist(stagePrepared, index, abortAbove)
			*dur += time.Since(t0)
			return d, aborted
		}, bound)
		probes = append(probes, stageProbe{
			name:    stage.Name,
			evals:   func() int { return cr.Evaluations },
			aborted: func() int { return cr.Aborted },
			dur:     dur,
		})
		ranking = cr
	}
	return ranking, probes
}

// finishStats fills the per-stage observability fields of stats from
// the probes. Pruned of stage i is the number of its evaluations the
// next consumer (stage i+1, or the candidate loop for the last stage)
// never saw.
func finishStats(stats *QueryStats, probes []stageProbe, total time.Duration) {
	stats.TotalTime = total
	if len(probes) == 0 {
		return
	}
	stats.Stages = make([]StageStats, len(probes))
	stats.StageEvaluations = make([]int, len(probes))
	for i, p := range probes {
		evals := p.evals()
		consumed := stats.Pulled
		if i+1 < len(probes) {
			consumed = probes[i+1].evals()
		}
		pruned := evals - consumed
		if pruned < 0 {
			pruned = 0
		}
		stats.Stages[i] = StageStats{
			Name:        p.name,
			Evaluations: evals,
			Pruned:      pruned,
			Duration:    *p.dur,
		}
		if p.aborted != nil {
			stats.Stages[i].Aborted = p.aborted()
		}
		stats.StageEvaluations[i] = evals
		stats.FilterTime += *p.dur
	}
}

// KNNQuery is one k-nearest-neighbor query.
type KNNQuery struct {
	Q emd.Histogram
	K int
	// Pred, when non-nil, restricts the answer to items satisfying it.
	// It runs on the query's calling goroutine only — never on
	// refinement workers — after the threshold check and before
	// refinement, so rejected items cost a predicate call but no exact
	// solve.
	Pred func(index int) bool
	// Shared, when non-nil, joins the query to a cross-partition
	// neighbor set built for the same K: the loop prunes against
	// min(local k-th, global k-th) and offers every confirmed exact
	// distance to it under its global id. ToGlobal maps this searcher's
	// local indices (nil is the identity). The outcome's Results still
	// carry LOCAL indices — this partition's local top-k, which the
	// caller merges (or reads straight off Shared.Results() once every
	// partition finished).
	Shared   *SharedKNN
	ToGlobal func(local int) int
}

// KNN answers kq under ctx. A cancel flag derived from ctx is polled
// once per candidate in the candidate loop and once per pivot inside
// each bounded simplex solve, so cancellation takes effect within
// microseconds even mid-refinement. On cancellation the outcome carries
// Stats.Cancelled=true, the confirmed neighbors, and the pending
// candidates with certified lower bounds; ctx's error is NOT returned —
// callers decide whether a partial answer is useful.
//
// With Workers > 1 the exact refinements of the query are computed by a
// bounded worker pool sharing an atomic pruning threshold. The result
// set is exactly that of the inline loop: any candidate left unrefined
// had a filter distance above the threshold at some point, the
// threshold never increases, and the filter lower-bounds the exact
// distance — so no unrefined item can belong to the answer. Work
// counters may differ: candidates in flight when the threshold tightens
// are refined speculatively (counted in Refinements) or skipped
// (RefinementsSkipped). The live k-th distance is the abort bound of
// every refinement and — unless Oblivious — of every chained filter
// evaluation, which changes only the work counters, never the results.
// Ties on the k-th distance are refined, making the result
// deterministic-by-index among equal distances.
func (s *Searcher) KNN(ctx context.Context, kq KNNQuery) (*KNNOutcome, error) {
	if kq.K < 1 {
		return nil, fmt.Errorf("search: k = %d, want >= 1", kq.K)
	}
	if kq.Shared != nil && kq.Shared.best.k != kq.K {
		return nil, fmt.Errorf("search: shared set built for k = %d, query asks k = %d", kq.Shared.best.k, kq.K)
	}
	var out KNNOutcome
	var err error
	out.Results, out.Pending, out.Stats, err = s.run(ctx, kq.Q, query{k: kq.K, pred: kq.Pred, shared: kq.Shared, toGlobal: kq.ToGlobal})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// RangeQuery is one range query: all items with exact distance <= Eps.
type RangeQuery struct {
	Q   emd.Histogram
	Eps float64
	// Pred, when non-nil, restricts the answer as in KNNQuery.
	Pred func(index int) bool
	// Upper, when non-nil, makes this a membership query — *which* items
	// lie within Eps, not how far away they are: an item whose upper
	// bound is already <= Eps is accepted without any exact computation
	// and carries that bound as its Dist; items whose lower bound
	// exceeds Eps are rejected wholesale (the ranking stops there); only
	// items whose envelope straddles Eps are refined. The accepted SET
	// is exactly the plain range query's. Like Pred, Upper runs on the
	// calling goroutine only — engine upper bounds draw on per-goroutine
	// scratch and are not safe to share — so only the exact solves fan
	// out.
	Upper func(index int) float64
}

// Range answers rq under ctx, sorted by distance, then index. Eps is
// the pruning distance of the ranking and the abort bound of every
// refinement — an aborted candidate's exact distance provably exceeds
// it. Like KNN it refines in parallel when Workers > 1. A cancelled
// range query returns the results confirmed before the cancel — each
// is individually certified, so the partial set is sound, only possibly
// incomplete — with Stats.Cancelled=true.
func (s *Searcher) Range(ctx context.Context, rq RangeQuery) ([]Result, *QueryStats, error) {
	results, _, stats, err := s.run(ctx, rq.Q, query{eps: rq.Eps, pred: rq.Pred, upper: rq.Upper})
	return results, stats, err
}

// run is what KNN and Range share: bind the query, its cancel flag and a
// cumulative timer into the refinement seam, hand the loop a way to
// build the filter ranking under its barrier, and fill in the per-stage
// statistics afterwards.
func (s *Searcher) run(ctx context.Context, q emd.Histogram, lq query) ([]Result, []PendingCandidate, *QueryStats, error) {
	if s.Refine == nil {
		return nil, nil, nil, fmt.Errorf("search: Searcher has no refinement distance")
	}
	start := time.Now()
	cancel, stopWatch := WatchContext(ctx)
	defer stopWatch()
	lq.cancel, lq.workers = cancel, s.Workers
	if !s.Oblivious {
		lq.bound = new(float64)
		*lq.bound = math.Inf(1)
	}
	var refineTime atomic.Int64 // summed across refinement workers
	refine := func(i int, abortAbove float64) Refinement {
		t0 := time.Now()
		r := s.Refine(q, i, abortAbove, cancel)
		refineTime.Add(int64(time.Since(t0)))
		return r
	}
	var probes []stageProbe
	results, pending, stats, err := lq.run(func() (ranking Ranking, _ error) {
		ranking, probes = s.buildRanking(q, lq.bound)
		return ranking, nil
	}, refine)
	if err != nil {
		return nil, nil, nil, err
	}
	stats.RefineTime = time.Duration(refineTime.Load())
	finishStats(stats, probes, time.Since(start))
	return results, pending, stats, nil
}

// Ranking returns the assembled filter ranking for q — the same chain
// KNN and Range use internally, without the refinement step and with
// no threshold published, so every value it yields is the stages' true
// filter distance. Callers can stack further (larger) lower bounds or
// the exact distance on top with NewChainedRanking.
func (s *Searcher) Ranking(q emd.Histogram) Ranking {
	ranking, _ := s.buildRanking(q, nil)
	return ranking
}
