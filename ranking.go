package emdsearch

import (
	"context"
	"math"

	"emdsearch/internal/search"
)

// Ranking streams database items in ascending order of their *exact*
// EMD to a query, lazily: each Next call refines only as many
// candidates as the filter chain requires to certify the next result.
// This is the incremental form of k-NN — callers that do not know k in
// advance (result browsing, top-k with early user cutoff) pull until
// satisfied.
//
// A Ranking is bound to the engine snapshot current when Rank was
// called: it keeps answering consistently over that state even if the
// engine is mutated afterwards. A single Ranking is not safe for
// concurrent Next calls; create one per goroutine (they share the
// snapshot, so this is cheap).
type Ranking struct {
	inner search.Ranking
	// ctx stops the stream early: once it is cancelled Next reports
	// exhaustion before refining anything further. Checked before each
	// pull, never mid-solve, so every yielded distance is exact.
	ctx context.Context
}

// Next returns the next closest item and its exact EMD, or ok = false
// when the database is exhausted or the ranking's context has been
// cancelled.
func (r *Ranking) Next() (index int, dist float64, ok bool) {
	for {
		if r.ctx.Err() != nil {
			return 0, 0, false
		}
		c, ok := r.inner.Next()
		if !ok {
			return 0, 0, false
		}
		if math.IsInf(c.Dist, 1) {
			continue // soft-deleted item
		}
		return c.Index, c.Dist, true
	}
}

// Rank starts an incremental exact ranking for q. Internally the
// engine's filter chain is extended by one final chained stage whose
// "filter" is the exact EMD itself — since every prior stage
// lower-bounds it, the chained ranking (Figure 12 of the paper) emits
// items in true EMD order while refining lazily.
//
// The stream is bound to ctx: once ctx is cancelled Next reports
// exhaustion at the next pull, so an abandoned browse stops doing
// exact-EMD work. Cancellation never truncates a solve mid-flight on
// this path, so every item yielded before it is exact.
func (e *Engine) Rank(ctx context.Context, q Histogram) (*Ranking, error) {
	if err := e.validateQuery(q); err != nil {
		e.metrics.queryError()
		return nil, err
	}
	s, err := e.snapshot()
	if err != nil {
		e.metrics.queryError()
		return nil, err
	}
	// Build the filter ranking exactly as a query would (including the
	// metric index, when it serves the request)...
	base, err := s.searcher.Ranking(q)
	if err != nil {
		e.metrics.queryError()
		return nil, err
	}
	// ...and chain the exact EMD on top as the final re-ranker;
	// soft-deleted items rank at infinity and are skipped by Next. An
	// open-ended stream has no pruning threshold, so no stage is given
	// one: every emitted value is a finished distance.
	exact := search.NewChainedRanking(base, func(i int, _ float64) (float64, bool) {
		return s.refine(q, i, math.Inf(1), nil).Dist, false
	}, nil)
	e.metrics.rankStarted()
	return &Ranking{inner: exact, ctx: ctx}, nil
}
