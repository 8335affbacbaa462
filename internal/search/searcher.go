package search

import (
	"context"
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
	// the stage runs eagerly at the bottom of the chain (stage 0 with
	// no BaseRanking), where a columnar kernel beats n calls through
	// Distance. It must agree with Distance item-wise: same values, or
	// at minimum the same lower-bounding contract against later
	// stages. Distance remains required — lazy chained use and
	// auxiliary query paths still call it.
	ScanAll func(prepared emd.Histogram, out []float64) int
}

// Exact lifts a plain filter distance into the FilterStage.Distance
// form: it ignores the threshold and always finishes.
func Exact(dist func(prepared emd.Histogram, index int) float64) func(emd.Histogram, int, float64) (float64, bool) {
	return func(prepared emd.Histogram, index int, _ float64) (float64, bool) {
		return dist(prepared, index), false
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
	// Index, when set, is consulted first for every query: given the
	// query and a hint describing it, the index either returns an
	// IndexRanking — candidates in nondecreasing lower-bound order,
	// produced WITHOUT an O(n) scan — or declines with (nil, nil), in
	// which case the normal chain below runs. When an index ranking is
	// used it replaces the whole filter chain (BaseRanking and Stages),
	// so its emissions must lower-bound Refine directly.
	Index func(q emd.Histogram, hint IndexHint) (IndexRanking, error)
	// BaseRanking, when set, supplies the bottom of the filter chain
	// as an incremental ranking (e.g. a k-d tree stream over database
	// centroids) instead of an eager scan of Stages[0]. Its distances
	// must lower-bound the first stage in Stages (or Refine, if Stages
	// is empty). This removes the last O(n) component from the query
	// path, realizing the paper's note that the reduced representation
	// can be indexed in a multidimensional structure.
	BaseRanking func(q emd.Histogram) (Ranking, error)
	// Stages is the filter chain, cheapest and loosest first.
	Stages []FilterStage
	// Refine computes the exact distance (full-dimensional EMD)
	// between the original query and database item index. It must be
	// safe for concurrent invocation when Workers > 1.
	Refine func(q emd.Histogram, index int) float64
	// RefineBounded, when set, is preferred over Refine: a
	// threshold-aware exact distance that may abandon a candidate once
	// a certified lower bound on its distance exceeds abortAbove (the
	// live pruning threshold of the query). It must obey the
	// BoundedRefine contract and, like Refine, be safe for concurrent
	// invocation when Workers > 1. At least one of Refine and
	// RefineBounded must be set. Setting it makes the whole pipeline
	// threshold-aware: the same live threshold reaches every chained
	// stage's Distance. A Searcher with only Refine is threshold-
	// oblivious end to end — every stage is called with +Inf.
	RefineBounded func(q emd.Histogram, index int, abortAbove float64) Refinement
	// RefineBoundedIntr, when set, is the interrupt-aware form of
	// RefineBounded used by the context-aware entry points (KNNCtx,
	// RangeCtx): intr is the query's cancel flag, polled inside the
	// simplex pivot loop so a deadline stops even a single large solve.
	// An interrupted refinement returns Interrupted=true with Dist a
	// certified lower bound. Never called with a nil intr.
	RefineBoundedIntr func(q emd.Histogram, index int, abortAbove float64, intr *atomic.Bool) Refinement
	// Workers bounds the goroutines used for the exact refinement
	// stage of a single query; values <= 1 select the sequential KNOP
	// path. The filter chain itself always runs on the calling
	// goroutine — only refinements fan out.
	Workers int
}

// stageProbe observes one stage of an assembled per-query chain.
// index is set only for the index-backed stage and feeds the
// QueryStats index counters.
type stageProbe struct {
	name    string
	evals   func() int
	aborted func() int // nil for stages that cannot abort (eager scan, index)
	dur     *time.Duration
	index   func() IndexStats
}

// buildRanking assembles the filter chain for one query and returns
// the final ranking plus probes for the per-stage counters. The hint
// describes the query shape so an attached index can apply its
// per-query acceptance policy. bound is the cell the chained stages
// read the query's live pruning threshold from; the query loop that
// consumes the ranking publishes it there (knnConfig.bound), and a
// caller that never does leaves every stage running to completion.
func (s *Searcher) buildRanking(q emd.Histogram, hint IndexHint) (ranking Ranking, probes []stageProbe, bound *float64, err error) {
	if s.Index != nil {
		idx, err := s.Index(q, hint)
		if err != nil {
			return nil, nil, nil, err
		}
		if idx != nil {
			// The index IS the filter: no eager scan, no chained
			// stages — emissions already carry the tightest available
			// lower bound in nondecreasing order.
			dur := new(time.Duration)
			probe := stageProbe{
				name:  idx.Label(),
				evals: func() int { return idx.IndexStats().DistanceCalls },
				dur:   dur,
				index: idx.IndexStats,
			}
			return &timedRanking{inner: idx, dur: dur}, []stageProbe{probe}, nil, nil
		}
	}
	chainFrom := 0
	probes = make([]stageProbe, 0, len(s.Stages))
	if s.BaseRanking != nil {
		if ranking, err = s.BaseRanking(q); err != nil {
			return nil, nil, nil, err
		}
	} else if len(s.Stages) == 0 {
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

	if s.RefineBounded != nil {
		bound = new(float64)
		*bound = math.Inf(1)
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
	return ranking, probes, bound, nil
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
		if p.index != nil {
			ist := p.index()
			stats.IndexUsed = true
			stats.IndexNodesVisited = ist.NodesVisited
			stats.IndexPruned = ist.Pruned
		}
	}
}

// timedBoundedRefine wraps the searcher's refinement for query q with
// a cumulative timer, lifting a plain Refine into the BoundedRefine
// shape when no RefineBounded is configured. add must be
// goroutine-safe when the parallel path is in use.
func (s *Searcher) timedBoundedRefine(q emd.Histogram, add func(time.Duration)) BoundedRefine {
	if s.RefineBounded != nil {
		return func(i int, abortAbove float64) Refinement {
			t0 := time.Now()
			r := s.RefineBounded(q, i, abortAbove)
			add(time.Since(t0))
			return r
		}
	}
	return func(i int, _ float64) Refinement {
		t0 := time.Now()
		d := s.Refine(q, i)
		add(time.Since(t0))
		return Refinement{Dist: d}
	}
}

// KNN answers a k-nearest-neighbor query for q. With Workers > 1 the
// exact refinements of one query are computed by a bounded worker pool
// sharing an atomic pruning threshold; results are identical to the
// sequential path (work counters may differ slightly, since candidates
// in flight when the threshold tightens are refined speculatively).
// When RefineBounded is set, the query is threshold-aware: the live
// k-th distance is the abort bound of every refinement and of every
// chained filter evaluation, which changes only the work counters,
// never the results. It is KNNCtx without a context.
func (s *Searcher) KNN(q emd.Histogram, k int) ([]Result, *QueryStats, error) {
	out, err := s.knnCtx(context.Background(), q, k, knnConfig{})
	if err != nil {
		return nil, nil, err
	}
	return out.Results, out.Stats, nil
}

// Range answers a range query: all items with exact distance <= eps.
// Like KNN it refines in parallel when Workers > 1 and threshold-aware
// when RefineBounded is set (eps is the abort bound). It is RangeCtx
// without a context or predicate.
func (s *Searcher) Range(q emd.Histogram, eps float64) ([]Result, *QueryStats, error) {
	return s.RangeCtx(context.Background(), q, eps, nil)
}

// Ranking returns the assembled filter ranking for q — the same chain
// KNN and Range use internally, without the refinement step and with
// no threshold published, so every value it yields is the stages' true
// filter distance. Callers can stack further (larger) lower bounds or
// the exact distance on top with NewChainedRanking.
func (s *Searcher) Ranking(q emd.Histogram) (Ranking, error) {
	ranking, _, _, err := s.buildRanking(q, IndexHint{Kind: IndexRank})
	return ranking, err
}
