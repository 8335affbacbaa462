package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"emdsearch/internal/emd"
)

// SharedKNN is a k-nearest-neighbor result set shared by several
// concurrent searches over disjoint partitions of one logical database
// — the cross-shard generalization of the per-query threshold the
// parallel KNOP path already uses. Each partition's search offers its
// confirmed exact distances (keyed by GLOBAL item id) and reads back
// the global k-th best distance as an extra pruning threshold.
//
// Soundness is the same monotonicity argument as the single-engine
// parallel path: the published threshold is the k-th best distance of
// items confirmed SO FAR, so it is always >= the final global k-th
// distance and only ever tightens. A shard that stops pulling when its
// filter lower bound strictly exceeds the threshold, or aborts a
// refinement on a certified bound strictly above it, discards only
// items provably outside the final global top-k; ties are refined, so
// the merged answer — including its deterministic (Dist, Index)
// tie-break — is exactly the single-engine answer over the union.
//
// Safe for concurrent use by any number of searches.
type SharedKNN struct {
	k         int
	threshold *atomicThreshold

	mu      sync.Mutex
	results []Result // global ids, (Dist, Index)-sorted, len <= k
}

// NewSharedKNN builds a shared set for a k-NN query.
func NewSharedKNN(k int) (*SharedKNN, error) {
	if k < 1 {
		return nil, fmt.Errorf("search: k = %d, want >= 1", k)
	}
	return &SharedKNN{k: k, threshold: newAtomicThreshold()}, nil
}

// Threshold returns the current global k-th best confirmed distance,
// +Inf until k items have been offered. Monotonically non-increasing.
func (g *SharedKNN) Threshold() float64 { return g.threshold.Load() }

// Offer records a confirmed exact distance for the item with the given
// global id. Infinite distances (deleted items on some shard) are
// ignored — they can never enter the answer and must not loosen the
// set. Offers are deduplicated by global id: a hedged re-dispatch runs
// the same shard search twice (and a cancelled straggler keeps
// offering briefly before it stops), so the same item can arrive more
// than once; were it allowed to occupy two of the k slots, the
// published threshold would drop below the true global k-th distance
// and other shards would prune true neighbors.
func (g *SharedKNN) Offer(globalIndex int, dist float64) {
	if math.IsInf(dist, 1) {
		return
	}
	g.mu.Lock()
	for i, r := range g.results {
		if r.Index != globalIndex {
			continue
		}
		if r.Dist <= dist {
			// Already present at least as tight: nothing to do.
			g.mu.Unlock()
			return
		}
		// Present but looser (attempts confirmed against different
		// snapshots): keep the tighter confirmation, one slot only.
		g.results = append(g.results[:i], g.results[i+1:]...)
		break
	}
	pos := sort.Search(len(g.results), func(i int) bool {
		if g.results[i].Dist != dist {
			return g.results[i].Dist > dist
		}
		return g.results[i].Index > globalIndex
	})
	g.results = append(g.results, Result{})
	copy(g.results[pos+1:], g.results[pos:])
	g.results[pos] = Result{Index: globalIndex, Dist: dist}
	if len(g.results) > g.k {
		g.results = g.results[:g.k]
	}
	if len(g.results) == g.k {
		g.threshold.Store(g.results[g.k-1].Dist)
	}
	g.mu.Unlock()
}

// Results returns a copy of the current global top-k (global ids,
// sorted by (Dist, Index)). After every participating search has
// completed this IS the exact k-NN answer over the union of
// partitions.
func (g *SharedKNN) Results() []Result {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Result, len(g.results))
	copy(out, g.results)
	return out
}

// KNNSharedCtx is KNNCtx participating in a cross-partition shared
// neighbor set: the KNOP loop prunes against min(local k-th, global
// k-th) and offers every confirmed exact distance to shared under its
// global id (toGlobal maps this searcher's local indices; nil is the
// identity). pred, when non-nil, restricts candidates exactly as in
// KNNWhereCtx.
//
// The outcome's Results carry LOCAL indices — they are this
// partition's local top-k, which the caller merges (or reads straight
// off shared.Results() once every partition finished).
func (s *Searcher) KNNSharedCtx(ctx context.Context, q emd.Histogram, k int, shared *SharedKNN, toGlobal func(local int) int, pred func(index int) bool) (*KNNOutcome, error) {
	if shared == nil {
		return nil, fmt.Errorf("search: KNNSharedCtx requires a shared set")
	}
	if shared.k != k {
		return nil, fmt.Errorf("search: shared set built for k = %d, query asks k = %d", shared.k, k)
	}
	return s.knnCtx(ctx, q, k, knnConfig{pred: pred, shared: shared, toGlobal: toGlobal})
}
