package search

import (
	"fmt"
	"math"
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
type SharedKNN struct{ best *kBest }

// NewSharedKNN builds a shared set for a k-NN query.
func NewSharedKNN(k int) (*SharedKNN, error) {
	if k < 1 {
		return nil, fmt.Errorf("search: k = %d, want >= 1", k)
	}
	return &SharedKNN{best: newKBest(k)}, nil
}

// Threshold returns the current global k-th best confirmed distance,
// +Inf until k items have been offered. Monotonically non-increasing.
func (g *SharedKNN) Threshold() float64 { return g.best.Threshold() }

// Offer records a confirmed exact distance for the item with the given
// global id. Infinite distances (deleted items on some shard) are
// ignored — they can never enter the answer and must not loosen the
// set. Offers are deduplicated by global id: a shard's primary can
// confirm neighbors and then fail, and its follower searches the same
// slice again (a failover), so the same item can arrive more than once;
// were it allowed to occupy two of the k slots, the published
// threshold would drop below the true global k-th distance and other
// shards would prune true neighbors. Of two confirmations of one item
// (searches that ran against different snapshots) the tighter is kept.
func (g *SharedKNN) Offer(globalIndex int, dist float64) {
	if math.IsInf(dist, 1) {
		return
	}
	g.best.add(Result{Index: globalIndex, Dist: dist}, true)
}

// Results returns a copy of the current global top-k (global ids,
// sorted by (Dist, Index)). After every participating search has
// completed this IS the exact k-NN answer over the union of
// partitions.
func (g *SharedKNN) Results() []Result {
	g.best.mu.Lock()
	defer g.best.mu.Unlock()
	out := make([]Result, len(g.best.results))
	copy(out, g.best.results)
	return out
}
