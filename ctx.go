package emdsearch

import (
	"context"
	"math"
	"sort"

	"emdsearch/internal/search"
	"emdsearch/internal/stats"
)

// AnytimeItem is one entry of a certified anytime answer: a database
// item together with a guaranteed interval containing its exact EMD
// to the query. Refined items carry a tight interval (Lower == Upper
// == the exact distance); unrefined items carry the tightest certified
// envelope known at cancellation — the filter chain's lower bound (or
// the interrupted solver's dual bound, whichever is larger) and the
// greedy-flow upper bound.
type AnytimeItem struct {
	Index        int
	Lower, Upper float64
	// Refined reports the interval is exact: the item's distance was
	// fully refined before the deadline.
	Refined bool
}

// KNNAnswer is the outcome of a context-aware k-NN query.
//
// When the query runs to completion, Results holds the exact k-NN
// answer — byte-identical to Engine.KNN's — and Degraded is false.
// When the context expires first, the query degrades gracefully
// instead of returning garbage: Degraded is true, Results holds the
// neighbors whose exact distances were confirmed before the deadline,
// and Anytime holds the k best items known so far with certified
// [Lower, Upper] intervals (the exact distance of every listed item
// provably lies inside its interval). Candidates the bounded solver
// abandoned on a certified bound above the live pruning threshold are
// soundly excluded — the threshold only ever tightens, so they can
// never belong to the answer. Unpulled says how much of the database
// was never examined at all.
type KNNAnswer struct {
	Results  []Result
	Stats    *QueryStats
	Degraded bool
	Anytime  []AnytimeItem
	// Unpulled counts indexed items (including soft-deleted ones)
	// never drawn from the filter ranking before the deadline; 0 when
	// the query completed.
	Unpulled int
}

// KNNCtx answers a k-NN query under ctx. Cancellation is cooperative
// and fine-grained: the flag derived from ctx is polled once per
// candidate in the KNOP loop and once per pivot inside each exact
// simplex solve, so a deadline interrupts even a single large
// refinement within microseconds. On expiry KNNCtx returns the
// certified anytime answer (see KNNAnswer) together with ctx.Err() —
// a non-nil answer accompanies the context error so callers can use
// the degraded result. With a context that can never be cancelled
// (context.Background()) the path and results are identical to KNN's.
func (e *Engine) KNNCtx(ctx context.Context, q Histogram, k int) (*KNNAnswer, error) {
	s, err := e.knnSnapshot(q, k)
	if err != nil {
		return nil, err
	}
	return e.knnCtxOnSnap(ctx, s, search.KNNQuery{Q: q, K: k})
}

// KNNWhereCtx is the context-aware form of KNNWhere: a k-NN query
// restricted to items satisfying pred, with the same cancellation and
// anytime semantics as KNNCtx. The predicate is invoked from the
// calling goroutine only, after the pruning-threshold check and
// before refinement, so rejected items never cost an exact solve.
func (e *Engine) KNNWhereCtx(ctx context.Context, q Histogram, k int, pred func(index int) bool) (*KNNAnswer, error) {
	if pred == nil {
		e.metrics.queryError()
		return nil, badQueryf("nil predicate")
	}
	s, err := e.knnSnapshot(q, k)
	if err != nil {
		return nil, err
	}
	return e.knnCtxOnSnap(ctx, s, search.KNNQuery{Q: q, K: k, Pred: pred})
}

// KNNWithLabelCtx is KNNWhereCtx restricted to items carrying the
// given label. Labels are read from the query's snapshot — captured
// at pipeline-build time, lock-free — so the predicate always sees
// state consistent with the ranking it filters, even while concurrent
// Add or Build calls mutate the live store.
func (e *Engine) KNNWithLabelCtx(ctx context.Context, q Histogram, k int, label string) (*KNNAnswer, error) {
	s, err := e.knnSnapshot(q, k)
	if err != nil {
		return nil, err
	}
	return e.knnCtxOnSnap(ctx, s, search.KNNQuery{Q: q, K: k, Pred: func(i int) bool { return s.labels[i] == label }})
}

// knnCtxOnSnap runs the shared context-aware k-NN path on an already
// obtained snapshot (so label predicates close over the same state the
// query runs on) and assembles the anytime answer on cancellation.
// kq.Shared, when non-nil, joins the search to a cross-shard neighbor
// set under the kq.ToGlobal id mapping (the ShardSet scatter path).
func (e *Engine) knnCtxOnSnap(ctx context.Context, s *snapshot, kq search.KNNQuery) (*KNNAnswer, error) {
	if err := ctx.Err(); err != nil {
		// Already expired: nothing was examined; the (empty) answer is
		// still sound and says so.
		stats := &QueryStats{Cancelled: true, SnapshotLen: len(s.vectors)}
		e.metrics.observe(metricKNN, stats)
		e.metrics.queryDegraded()
		return &KNNAnswer{Stats: stats, Degraded: true, Unpulled: len(s.vectors)}, err
	}
	out, err := s.searcher.KNN(ctx, kq)
	if err != nil {
		e.metrics.queryError()
		return nil, e.internalErr("knn", err)
	}
	out.Stats.SnapshotLen = len(s.vectors)
	// Soft-deleted items surface with infinite distance when fewer
	// than k live items remain; drop them.
	live := out.Results[:0]
	for _, r := range out.Results {
		if !math.IsInf(r.Dist, 1) {
			live = append(live, r)
		}
	}
	ans := &KNNAnswer{Results: live, Stats: out.Stats}
	e.metrics.observe(metricKNN, out.Stats)
	e.metrics.resultsReturned(len(live))
	e.maybeReplan()
	if !out.Stats.Cancelled {
		return ans, nil
	}
	ans.Degraded = true
	ans.Unpulled = len(s.vectors) - out.Stats.Pulled
	ans.Anytime = s.assembleAnytime(kq.Q, live, out.Pending, kq.K)
	e.metrics.queryDegraded()
	return ans, ctx.Err()
}

// assembleAnytime turns the confirmed neighbors and the pending
// (pulled but unresolved) candidates of a cancelled k-NN query into
// the k best certified intervals: refined items contribute tight
// intervals, pending items the envelope [best certified lower bound,
// greedy-flow upper bound]. Items are ranked by (Upper, Lower, Index)
// — the order that minimizes the guaranteed worst case — and trimmed
// to k. Soft-deleted items are excluded.
func (s *snapshot) assembleAnytime(q Histogram, confirmed []Result, pending []search.PendingCandidate, k int) []AnytimeItem {
	items := make([]AnytimeItem, 0, len(confirmed)+len(pending))
	for _, r := range confirmed {
		items = append(items, AnytimeItem{Index: r.Index, Lower: r.Dist, Upper: r.Dist, Refined: true})
	}
	if len(pending) > 0 {
		g := s.greedyUpper()
		for _, p := range pending {
			if s.deleted[p.Index] {
				continue
			}
			ub := g.Distance(q, s.vectors[p.Index])
			lo := p.Lower
			if lo > ub {
				lo = ub
			}
			items = append(items, AnytimeItem{Index: p.Index, Lower: lo, Upper: ub})
		}
		s.putGreedy(g)
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].Upper != items[b].Upper {
			return items[a].Upper < items[b].Upper
		}
		if items[a].Lower != items[b].Lower {
			return items[a].Lower < items[b].Lower
		}
		return items[a].Index < items[b].Index
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}

// RangeCtx answers a range query under ctx, with the same cooperative
// cancellation as KNNCtx. A cancelled range query returns the results
// whose exact distances were confirmed to be within eps before the
// deadline — each is individually certified, so the partial set is
// sound, only possibly incomplete — together with Stats.Cancelled =
// true and ctx's error. With context.Background() the path and
// results are identical to Range's.
func (e *Engine) RangeCtx(ctx context.Context, q Histogram, eps float64) ([]Result, *QueryStats, error) {
	return e.rangeCtx(ctx, q, eps, false)
}

// rangeCtx is the range query behind RangeCtx and RangeIDsCtx. With
// membership set the greedy-flow upper bound is its short-cut: an item
// whose bound is already within eps is accepted unrefined (its Dist is
// then that bound, not the exact distance).
func (e *Engine) rangeCtx(ctx context.Context, q Histogram, eps float64, membership bool) ([]Result, *QueryStats, error) {
	if err := e.validateRange(q, eps); err != nil {
		e.metrics.queryError()
		return nil, nil, err
	}
	s, err := e.snapshot()
	if err != nil {
		e.metrics.queryError()
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		stats := &QueryStats{Cancelled: true, SnapshotLen: len(s.vectors)}
		e.metrics.observe(metricRange, stats)
		return nil, stats, err
	}
	rq := search.RangeQuery{Q: q, Eps: eps}
	if membership {
		g := s.greedyUpper()
		defer s.putGreedy(g)
		rq.Upper = func(i int) float64 {
			if s.deleted[i] {
				return math.Inf(1)
			}
			return g.Distance(q, s.vectors[i])
		}
	}
	results, stats, err := s.searcher.Range(ctx, rq)
	if err != nil {
		e.metrics.queryError()
		return nil, nil, e.internalErr("range", err)
	}
	stats.SnapshotLen = len(s.vectors)
	e.metrics.observe(metricRange, stats)
	e.metrics.resultsReturned(len(results))
	e.maybeReplan()
	if stats.Cancelled {
		return results, stats, ctx.Err()
	}
	return results, stats, nil
}

// BatchCtxResult is the outcome of one query in a context-aware batch.
type BatchCtxResult struct {
	// Query is the index of the query within the batch.
	Query  int
	Answer *KNNAnswer
	Err    error
}

// BatchKNNCtx answers many k-NN queries concurrently under one shared
// context, using up to workers goroutines (0 means GOMAXPROCS). Each
// query inherits ctx's deadline: queries in flight when it expires
// return certified anytime answers, queries not yet started return
// immediately-degraded (empty but sound) answers, and every affected
// entry carries ctx's error. See BatchKNN for the concurrency and
// snapshot semantics.
func (e *Engine) BatchKNNCtx(ctx context.Context, queries []Histogram, k, workers int) ([]BatchCtxResult, error) {
	if len(queries) == 0 {
		return nil, badQueryf("empty batch")
	}
	if k < 1 {
		return nil, badQueryf("k = %d, want >= 1", k)
	}
	out := make([]BatchCtxResult, len(queries))
	runBatch(queries, workers, func(qi int) {
		ans, err := e.KNNCtx(ctx, queries[qi], k)
		out[qi] = BatchCtxResult{Query: qi, Answer: ans, Err: err}
	})
	return out, nil
}

// RankCtx starts an incremental exact ranking bound to ctx: Next
// checks the context before refining further candidates and reports
// exhaustion once it is cancelled, so an abandoned browse stops doing
// exact-EMD work at the next pull. Every item yielded before the
// cancellation is exact; cancellation never truncates a solve
// mid-flight on this path, so no approximate distances can leak out.
func (e *Engine) RankCtx(ctx context.Context, q Histogram) (*Ranking, error) {
	r, err := e.Rank(q)
	if err != nil {
		return nil, err
	}
	r.ctx = ctx
	return r, nil
}

// ApproxKNNCtx is the context-aware form of ApproxKNN. The method
// computes no exact EMDs — its per-candidate work is bounded — so
// cancellation is checked between pipeline phases and periodically
// inside the scan loops; on expiry it returns ctx.Err() with no
// partial answer.
func (e *Engine) ApproxKNNCtx(ctx context.Context, q Histogram, k int) ([]ApproxResult, *ApproxCertificate, error) {
	return e.approxKNN(ctx, q, k)
}

// RangeIDsCtx is the context-aware form of RangeIDs. A cancelled
// query returns the ids confirmed so far — each individually
// certified to lie within eps, so the subset is sound — together with
// ctx's error.
func (e *Engine) RangeIDsCtx(ctx context.Context, q Histogram, eps float64) ([]int, error) {
	return e.rangeIDs(ctx, q, eps)
}

// EpsilonForCountCtx is the context-aware form of EpsilonForCount;
// the upper-bound scan checks ctx between items and returns ctx.Err()
// on expiry.
func (e *Engine) EpsilonForCountCtx(ctx context.Context, q Histogram, count int) (float64, error) {
	return e.epsilonForCount(ctx, q, count)
}

// DistanceDistributionCtx is the context-aware form of
// DistanceDistribution; the exact-EMD sampling loop checks ctx
// between items and returns ctx.Err() on expiry.
func (e *Engine) DistanceDistributionCtx(ctx context.Context, q Histogram, sampleSize int) (*stats.Distribution, error) {
	return e.distanceDistribution(ctx, q, sampleSize)
}

// DistanceCtx is the context-aware form of Distance. The cancel flag
// is threaded into the simplex pivot loop, so even a single large
// solve is interrupted within one pivot; an interrupted computation
// returns ctx.Err() (never a partial value).
func (e *Engine) DistanceCtx(ctx context.Context, q Histogram, i int) (float64, error) {
	if err := e.validateQuery(q); err != nil {
		return 0, err
	}
	e.mu.RLock()
	if i < 0 || i >= e.store.Len() {
		n := e.store.Len()
		e.mu.RUnlock()
		return 0, badQueryf("Distance(%d): index out of range [0, %d)", i, n)
	}
	v := e.store.Vector(i)
	e.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	intr, stop := search.WatchContext(ctx)
	defer stop()
	if intr == nil {
		return e.dist.Distance(q, v), nil
	}
	r := e.dist.DistanceBoundedIntr(q, v, math.Inf(1), intr)
	if r.Interrupted {
		return 0, ctx.Err()
	}
	return r.Value, nil
}

// ExplainCtx is the context-aware form of Explain. The flow
// decomposition runs a single full solve with no interrupt hook, so
// cancellation is coarse: the context is checked on entry only.
func (e *Engine) ExplainCtx(ctx context.Context, q Histogram, i int, topK int) (*Explanation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.Explain(q, i, topK)
}
