package search

import (
	"context"
	"sort"
	"sync/atomic"

	"emdsearch/internal/emd"
)

// The bare-algorithm forms the package used to export — a ranking and a
// refinement function in, an answer out — kept for the tests that use
// them as their oracle. The wrappers go through a Searcher that has
// nothing but the ranking, so they exercise the real entry points; the
// *Core forms drive the candidate loop directly, for the tests that
// hand-build the chain and its bound cell.

func adaptRefine(refine func(index int) float64) BoundedRefine {
	return func(i int, _ float64) Refinement { return Refinement{Dist: refine(i)} }
}

// bareRanking serves a hand-built ranking through Searcher.Index, the
// one way to hand a Searcher a ready ranking.
type bareRanking struct{ Ranking }

func (bareRanking) IndexStats() IndexStats { return IndexStats{} }
func (bareRanking) Label() string          { return "bare" }

func bareSearcher(ranking Ranking, refine BoundedRefine, workers int) *Searcher {
	s := &Searcher{
		Index: func(emd.Histogram, IndexHint) (IndexRanking, error) {
			return bareRanking{ranking}, nil
		},
		Workers: workers,
	}
	if refine != nil {
		s.Refine = func(_ emd.Histogram, i int, abortAbove float64, _ *atomic.Bool) Refinement {
			return refine(i, abortAbove)
		}
	}
	return s
}

func KNN(ranking Ranking, refine func(index int) float64, k int) ([]Result, *QueryStats, error) {
	return KNNBounded(ranking, adaptRefine(refine), k)
}

func KNNBounded(ranking Ranking, refine BoundedRefine, k int) ([]Result, *QueryStats, error) {
	return ParallelKNNBounded(ranking, refine, k, 1)
}

func ParallelKNNBounded(ranking Ranking, refine BoundedRefine, k, workers int) ([]Result, *QueryStats, error) {
	return searcherKNN(bareSearcher(ranking, refine, workers), nil, k)
}

func Range(ranking Ranking, refine func(index int) float64, eps float64) ([]Result, *QueryStats, error) {
	return RangeBounded(ranking, adaptRefine(refine), eps)
}

func RangeBounded(ranking Ranking, refine BoundedRefine, eps float64) ([]Result, *QueryStats, error) {
	return ParallelRangeBounded(ranking, refine, eps, 1)
}

func ParallelRangeBounded(ranking Ranking, refine BoundedRefine, eps float64, workers int) ([]Result, *QueryStats, error) {
	return searcherRange(bareSearcher(ranking, refine, workers), nil, eps)
}

// RangeIDs is the membership query: the ascending ids of the items
// within eps, upper-bound short-cut on.
func RangeIDs(ranking Ranking, refine, upper func(index int) float64, eps float64) ([]int, *QueryStats, error) {
	results, stats, err := bareSearcher(ranking, adaptRefine(refine), 1).
		Range(context.Background(), RangeQuery{Eps: eps, Upper: upper})
	if err != nil {
		return nil, nil, err
	}
	ids := make([]int, len(results))
	for i, r := range results {
		ids[i] = r.Index
	}
	sort.Ints(ids)
	return ids, stats, nil
}

func searcherKNN(s *Searcher, q emd.Histogram, k int) ([]Result, *QueryStats, error) {
	out, err := s.KNN(context.Background(), KNNQuery{Q: q, K: k})
	if err != nil {
		return nil, nil, err
	}
	return out.Results, out.Stats, nil
}

func searcherRange(s *Searcher, q emd.Histogram, eps float64) ([]Result, *QueryStats, error) {
	return s.Range(context.Background(), RangeQuery{Q: q, Eps: eps})
}

func knnBoundedCore(ranking Ranking, refine BoundedRefine, k int, cfg query) ([]Result, []PendingCandidate, *QueryStats, error) {
	return parallelKNNBoundedCore(ranking, refine, k, 1, cfg)
}

func parallelKNNBoundedCore(ranking Ranking, refine BoundedRefine, k, workers int, cfg query) ([]Result, []PendingCandidate, *QueryStats, error) {
	cfg.k, cfg.workers = k, workers
	return cfg.run(func() (Ranking, error) { return ranking, nil }, refine)
}

func rangeBoundedCore(ranking Ranking, refine BoundedRefine, eps float64, cfg query) ([]Result, *QueryStats, error) {
	cfg.eps = eps
	results, _, stats, err := cfg.run(func() (Ranking, error) { return ranking, nil }, refine)
	return results, stats, err
}
