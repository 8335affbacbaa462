package emdsearch

import (
	"context"
)

// KNNWhere answers a k-NN query restricted to items satisfying pred
// (e.g. a label or metadata constraint — faceted similarity search).
// The filter chain still orders all candidates, but items failing the
// predicate are skipped before refinement, so the query stays exact
// over the restricted set while spending exact-EMD work only on
// matching items. Refinements go through the same threshold-aware
// bounded kernel as KNN (with Options.Workers parallelism), so the
// RefinesAborted metric covers this path too. pred must
// be deterministic for the duration of the call. Safe for concurrent
// use (the predicate is invoked from the calling goroutine only,
// never from refinement workers).
func (e *Engine) KNNWhere(q Histogram, k int, pred func(index int) bool) ([]Result, *QueryStats, error) {
	ans, err := e.KNNWhereCtx(context.Background(), q, k, pred)
	if err != nil {
		return nil, nil, err
	}
	return ans.Results, ans.Stats, nil
}

// KNNWithLabel is KNNWhere restricted to items carrying the given
// label. The labels are read lock-free from the query's snapshot —
// captured when the pipeline was built — so the predicate sees state
// consistent with the ranking even while concurrent Add/Build calls
// mutate the engine, and the hot loop takes no locks.
func (e *Engine) KNNWithLabel(q Histogram, k int, label string) ([]Result, *QueryStats, error) {
	ans, err := e.KNNWithLabelCtx(context.Background(), q, k, label)
	if err != nil {
		return nil, nil, err
	}
	return ans.Results, ans.Stats, nil
}
