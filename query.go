package emdsearch

import (
	"context"
	"math"
	"sort"

	"emdsearch/internal/search"
)

// Query is one multistep similarity query: the K nearest neighbors of
// Hist or, with Range set, every item within Eps of it. The paper's k-NN
// algorithm (Figure 11) and its range variant differ only in what the
// pruning distance is — the live k-th distance or Eps — so one value
// describes both, and Engine, Gate and ShardSet each run it down one
// path.
type Query struct {
	Hist Histogram
	// K is the neighbor count of a k-NN query, >= 1; 0 for a range
	// query.
	K int
	// Range makes this a range query over Eps. The verb is explicit so
	// that a zero K stays a malformed k-NN query instead of silently
	// meaning radius 0.
	Range bool
	// Eps is the range radius, >= 0 (+Inf selects every live item); 0
	// for a k-NN query.
	Eps float64
	// Where, when non-nil, restricts the answer to the items it accepts
	// (faceted search: a label or metadata constraint). It sees each
	// item's index and its label as stored in the snapshot the query
	// runs on — captured when the pipeline was built and read without
	// locks — so it stays consistent with the ranking it filters while
	// concurrent Adds mutate the engine. It runs on the calling
	// goroutine only, after the pruning check and before refinement, so
	// a rejected item costs no exact solve. It must be deterministic for
	// the duration of the call; a panic in it fails the query with
	// ErrInternal.
	Where func(index int, label string) bool
	// IDsOnly makes a range query a membership query: which items lie
	// within Eps, not how far away they are. An item whose greedy-flow
	// upper bound is already within Eps is accepted unrefined, so only
	// items whose [lower, upper] envelope straddles Eps are refined. The
	// accepted set is the range query's; Results are sorted by index, and
	// each Dist is an upper bound on the item's exact distance (never
	// above Eps), not the distance itself. Range queries only.
	IDsOnly bool

	// shared joins a k-NN search to a cross-shard neighbor set under the
	// toGlobal id mapping (the ShardSet scatter path); nil elsewhere.
	shared   *search.SharedKNN
	toGlobal func(local int) int
}

// verb names q's kind for the metrics and for InternalError.Op.
func (q Query) verb() (metricKind, string) {
	if q.Range {
		return metricRange, "range"
	}
	return metricKNN, "knn"
}

// validate checks q against the engine; failures wrap ErrBadQuery.
// Every public query entry point goes through it.
func (e *Engine) validate(q Query) error {
	if q.Range {
		if !(q.Eps >= 0) {
			return badQueryf("eps = %g, want >= 0", q.Eps)
		}
		if q.K != 0 {
			return badQueryf("range query with k = %d, want 0", q.K)
		}
	} else {
		if q.K < 1 {
			return badQueryf("k = %d, want >= 1", q.K)
		}
		if q.IDsOnly || q.Eps != 0 {
			return badQueryf("k-NN query with IDsOnly or Eps set; both need Range")
		}
	}
	return e.validateQuery(q.Hist)
}

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

// KNNAnswer is the outcome of a Query, k-NN or range.
//
// When the query runs to completion, Results holds the exact answer —
// byte-identical to Engine.KNN's or Engine.Range's — and Degraded is
// false. When the context expires first, the query degrades gracefully
// instead of returning garbage: Degraded is true (as is Stats.Cancelled)
// and Results holds the items whose exact distances were confirmed
// before the deadline, each individually certified, so the set is
// sound, only possibly incomplete. A degraded k-NN answer also carries
// Anytime: the K best items known so far with certified [Lower, Upper]
// intervals (the exact distance of every listed item provably lies
// inside its interval). Candidates the bounded solver abandoned on a
// certified bound above the live pruning threshold are soundly
// excluded — the threshold only ever tightens, so they can never belong
// to the answer. A range answer has no Anytime.
type KNNAnswer struct {
	Results  []Result
	Stats    *QueryStats
	Degraded bool
	Anytime  []AnytimeItem
	// Unpulled counts indexed items (including soft-deleted ones)
	// never drawn from the filter ranking before the deadline —
	// Stats.SnapshotLen − Stats.Pulled; 0 when the query completed.
	Unpulled int
}

// Search answers q under ctx, computed losslessly through the filter
// chain. Safe for concurrent use.
//
// Cancellation is cooperative and fine-grained: the flag derived from
// ctx is polled once per candidate in the candidate loop and once per
// pivot inside each exact simplex solve, so a deadline interrupts even
// a single large refinement within microseconds. On expiry Search
// returns the certified degraded answer (see KNNAnswer) together with
// ctx.Err(). With a context that can never be cancelled
// (context.Background()) no cancellation machinery is engaged.
//
// Refinements go through the threshold-aware bounded kernel and fan out
// over Options.Workers goroutines for every query shape; the answer is
// identical to the sequential one.
func (e *Engine) Search(ctx context.Context, q Query) (*KNNAnswer, error) {
	if err := e.validate(q); err != nil {
		e.metrics.queryError()
		return nil, err
	}
	s, err := e.snapshot()
	if err != nil {
		e.metrics.queryError()
		return nil, err
	}
	kind, op := q.verb()
	if err := ctx.Err(); err != nil {
		// Already expired: nothing was examined; the (empty) answer is
		// still sound and says so.
		stats := &QueryStats{Cancelled: true, SnapshotLen: len(s.vectors)}
		e.metrics.observe(kind, stats)
		if !q.Range {
			e.metrics.queryDegraded()
		}
		return &KNNAnswer{Stats: stats, Degraded: true, Unpulled: len(s.vectors)}, err
	}
	results, pending, stats, err := s.search(ctx, q)
	if err != nil {
		e.metrics.queryError()
		return nil, e.internalErr(op, err)
	}
	stats.SnapshotLen = len(s.vectors)
	// Soft-deleted items surface with infinite distance when fewer than
	// k live items remain (or under an infinite radius); drop them.
	live := results[:0]
	for _, r := range results {
		if !math.IsInf(r.Dist, 1) {
			live = append(live, r)
		}
	}
	if q.IDsOnly {
		sort.Slice(live, func(a, b int) bool { return live[a].Index < live[b].Index })
	}
	ans := &KNNAnswer{Results: live, Stats: stats}
	e.metrics.observe(kind, stats)
	e.metrics.resultsReturned(len(live))
	e.maybeReplan()
	if !stats.Cancelled {
		return ans, nil
	}
	ans.Degraded = true
	ans.Unpulled = len(s.vectors) - stats.Pulled
	if !q.Range {
		ans.Anytime = s.assembleAnytime(q.Hist, live, pending, q.K)
		e.metrics.queryDegraded()
	}
	return ans, ctx.Err()
}

// search runs q over the snapshot's searcher, with the predicate bound
// to the snapshot's labels and, for a membership query, the greedy-flow
// upper bound as the acceptance short-cut.
func (s *snapshot) search(ctx context.Context, q Query) ([]Result, []search.PendingCandidate, *QueryStats, error) {
	var pred func(int) bool
	if where := q.Where; where != nil {
		pred = func(i int) bool { return where(i, s.labels[i]) }
	}
	if !q.Range {
		out, err := s.searcher.KNN(ctx, search.KNNQuery{Q: q.Hist, K: q.K, Pred: pred, Shared: q.shared, ToGlobal: q.toGlobal})
		if err != nil {
			return nil, nil, nil, err
		}
		return out.Results, out.Pending, out.Stats, nil
	}
	rq := search.RangeQuery{Q: q.Hist, Eps: q.Eps, Pred: pred}
	if q.IDsOnly {
		g := s.greedyUpper()
		defer s.putGreedy(g)
		rq.Upper = func(i int) float64 {
			if s.deleted[i] {
				return math.Inf(1)
			}
			return g.Distance(q.Hist, s.vectors[i])
		}
	}
	results, stats, err := s.searcher.Range(ctx, rq)
	return results, nil, stats, err
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

// The views below are the fixed-shape queries most callers want; each
// is Search with one Query literal.

// KNN returns the k nearest neighbors of q under the exact EMD.
func (e *Engine) KNN(q Histogram, k int) ([]Result, *QueryStats, error) {
	return resultsOf(e.Search(context.Background(), Query{Hist: q, K: k}))
}

// KNNCtx is the k-NN query under ctx, with Search's cancellation and
// degraded-answer semantics.
func (e *Engine) KNNCtx(ctx context.Context, q Histogram, k int) (*KNNAnswer, error) {
	return e.Search(ctx, Query{Hist: q, K: k})
}

// Range returns all items within exact EMD eps of q, sorted by
// (distance, index).
func (e *Engine) Range(q Histogram, eps float64) ([]Result, *QueryStats, error) {
	return resultsOf(e.Search(context.Background(), Query{Hist: q, Range: true, Eps: eps}))
}

// resultsOf unpacks an answer obtained under context.Background(),
// which never degrades.
func resultsOf(ans *KNNAnswer, err error) ([]Result, *QueryStats, error) {
	if err != nil {
		return nil, nil, err
	}
	return ans.Results, ans.Stats, nil
}
