package emdsearch

import (
	"fmt"
	"math"
	"math/rand"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/persist"
	"emdsearch/internal/search"
	"emdsearch/internal/vptree"
)

// IndexKind values for Options.IndexKind.
const (
	// IndexAuto (the zero value) builds a VP-tree over the reduced EMD
	// when the corpus is large enough and its intrinsic dimensionality
	// low enough for metric indexing to pay off, and falls back to the
	// columnar scan otherwise. Per query, the index declines shapes a
	// scan serves better (open-ended rankings, k-NN with k close to n).
	// The VP-tree has no incremental insert: after an Add the scan chain
	// serves until a background rebuild lands.
	IndexAuto = ""
	// IndexVPTree forces the VP-tree candidate generator for every
	// eligible query regardless of the selectivity heuristics.
	IndexVPTree = "vptree"
	// IndexOff disables the metric-index filter stage entirely.
	IndexOff = "off"
)

const (
	// indexAutoMinN is the smallest live corpus auto mode will index:
	// below this a columnar scan beats tree traversal overhead.
	indexAutoMinN = 4096
	// indexAutoMaxIntrinsicDim bounds the estimated intrinsic
	// dimensionality rho = mu^2/(2 sigma^2) of the reduced metric; past
	// it, ball pruning degenerates and the scan wins.
	indexAutoMaxIntrinsicDim = 16.0
	// indexAutoPairSample is the number of random pairs used for the
	// intrinsic-dimensionality estimate at build time.
	indexAutoPairSample = 512
	// indexAutoKDivisor: auto mode declines a k-NN query when
	// k > live/indexAutoKDivisor — at that selectivity the traversal
	// visits most of the tree anyway.
	indexAutoKDivisor = 16
	// indexChurnFraction is the deleted-since-build fraction past which
	// a background rebuild compacts soft-deleted items out of the tree.
	indexChurnFraction = 0.3
	// indexMetricSlack bounds, relative to the largest ground cost of
	// the index metric, how far the metric's reported value may sit
	// below its exact one. The metric evaluates through the kernel's
	// lower-bound exit, which is provably within (1e-10 + 1e-12)·Cmax
	// for unit mass; 4e-10 leaves a margin for trees persisted with
	// canonical values. The tree stream subtracts it from every
	// triangle key (DESIGN.md §13, "Tree slack").
	indexMetricSlack = 4e-10
)

// savedIndex is a VP-tree retained across pipeline rebuilds (and
// restored from persisted snapshots): the tree itself plus the
// fingerprint of the state it was built under. Mirrors the savedQuant
// stash.
type savedIndex struct {
	vt *vptree.Tree
	// n is the store length the index covers: every live id < n is in
	// the tree (ids deleted before the build are permanently absent,
	// which is fine — soft deletes are never undone).
	n int
	// deletedAtBuild is len(deleted) when the tree was (re)built; the
	// churn heuristic compares against it.
	deletedAtBuild int
	// redHash fingerprints the reduction the index metric derives from.
	redHash uint64
}

// savedIntrinsic caches the auto-mode intrinsic-dimensionality
// estimate across snapshot rebuilds. The estimate is a function of
// the live reduced vectors and the index metric only, so (store
// length, deleted count, reduction fingerprint) pins it exactly —
// the store is append-only and deletes are soft. Without the cache
// every snapshot invalidation re-paid indexAutoPairSample metric
// solves even when nothing relevant changed.
type savedIntrinsic struct {
	n       int
	deleted int
	redHash uint64
	rho     float64
}

// reductionHash fingerprints a reduction for the persisted and stashed
// structures (quantized filter, metric index) derived from it.
func reductionHash(r *core.Reduction) uint64 {
	return persist.ReductionHash(r.Assignment(), r.ReducedDims())
}

// engineIndex is the per-snapshot index state: the tree, the metric it
// was built under, and the acceptance policy.
type engineIndex struct {
	auto bool // built under IndexAuto: per-query acceptance applies
	vt   *vptree.Tree
	live int // live items at build time
	// metric is the index's (pseudo)metric over reduced vectors: the
	// reduced EMD itself when its ground matrix is already metric, else
	// the EMD under the metric closure of that matrix. Either way it
	// lower-bounds the exact EMD, so emissions feed KNOP losslessly.
	metric func(xr, yr Histogram) float64
	// slack bounds how far metric may under-report (indexMetricSlack
	// times the metric's largest ground cost); the stream subtracts it
	// from its triangle keys.
	slack float64
}

// queryDist returns the per-query distance id -> metric(q', reduced_id).
// The closure gathers into one scratch buffer, so it must only be
// called from a single goroutine — the KNOP feeder pulls the ranking
// sequentially, which satisfies that.
func (ix *engineIndex) queryDist(s *snapshot, q Histogram) func(int) float64 {
	qr := s.plan.finest().Apply(q)
	buf := make([]float64, s.reducedCols.Dims())
	return func(i int) float64 { return ix.metric(qr, s.reducedCols.Gather(i, buf)) }
}

// accept decides whether the index serves this query. IndexVPTree
// always accepts; auto mode declines shapes where a scan is cheaper.
func (ix *engineIndex) accept(hint search.IndexHint) bool {
	if !ix.auto {
		return true
	}
	switch hint.Kind {
	case search.IndexKNN:
		return hint.K <= ix.live/indexAutoKDivisor
	case search.IndexRange:
		return true
	default: // IndexRank: no stopping point, traversal visits everything
		return false
	}
}

// open starts a best-first traversal for q and adapts it to the search
// layer's IndexRanking.
func (ix *engineIndex) open(s *snapshot, q Histogram) search.IndexRanking {
	var skip func(id int) bool
	if len(s.deleted) > 0 {
		skip = func(id int) bool { return s.deleted[id] }
	}
	return &indexRanking{
		st:    ix.vt.Stream(vptree.QueryDistFunc(ix.queryDist(s, q)), skip, ix.slack),
		nodes: ix.vt.Nodes(),
	}
}

// indexRanking adapts a VP-tree stream to search.IndexRanking.
type indexRanking struct {
	st    *vptree.Stream
	nodes int
}

func (r *indexRanking) Next() (search.Candidate, bool) {
	res, ok := r.st.Next()
	if !ok {
		return search.Candidate{}, false
	}
	return search.Candidate{Index: res.Index, Dist: res.Dist}, true
}

func (r *indexRanking) IndexStats() search.IndexStats {
	st := r.st.Stats()
	return search.IndexStats{
		NodesVisited:  st.NodesVisited,
		Pruned:        max(r.nodes-st.NodesVisited, 0),
		DistanceCalls: st.DistanceCalls,
	}
}

func (r *indexRanking) Label() string { return "VPTree(Red-EMD)" }

// indexMetric derives the (pseudo)metric the tree is built under. The
// min-linkage reduced ground matrix C' can violate the triangle
// inequality (the tree would then prune wrong answers), so it is
// repaired to its shortest-path metric closure M' <= C'. EMD is
// monotone in the ground distance, hence EMD_{M'} <= EMD_{C'} <= EMD:
// the index metric is a valid lower bound either way. When C' is
// already metric the closure is a bit-exact fixpoint and the snapshot's
// own reduced-EMD evaluator is used, so index filter values match the
// scan path bit for bit; otherwise the closure gets a compiled EMD of
// its own. Either way the metric evaluates
// through the kernel's lower-bound exit — nothing reports its value —
// and slack is the bound on how far below the exact metric it may sit.
func indexMetric(snap *snapshot) (metric func(xr, yr Histogram) float64, slack float64, err error) {
	closed, changed := core.MetricClosure(snap.reduced.Cost())
	slack = indexMetricSlack * maxCost(closed)
	if !changed {
		return snap.reduced.DistanceReduced, slack, nil
	}
	md, err := emd.NewDist(closed)
	if err != nil {
		return nil, 0, fmt.Errorf("emdsearch: metric closure of reduced cost invalid: %w", err)
	}
	return func(xr, yr Histogram) float64 { return md.LowerBound(xr, yr, math.Inf(1)).Value }, slack, nil
}

// intrinsicDim estimates the intrinsic dimensionality rho =
// mu^2 / (2 sigma^2) (Chavez et al.) of the index metric from sampled
// live pairs. Returns +Inf when the sample is degenerate (all
// distances equal), where ball pruning cannot work.
func intrinsicDim(ids []int32, dist vptree.DistFunc, rng *rand.Rand) float64 {
	if len(ids) < 2 {
		return math.Inf(1)
	}
	var sum, sumSq float64
	n := 0
	for t := 0; t < indexAutoPairSample; t++ {
		i := int(ids[rng.Intn(len(ids))])
		j := int(ids[rng.Intn(len(ids))])
		if i == j {
			continue
		}
		d := dist(i, j)
		sum += d
		sumSq += d * d
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	mu := sum / float64(n)
	variance := sumSq/float64(n) - mu*mu
	if variance <= 0 {
		return math.Inf(1)
	}
	return mu * mu / (2 * variance)
}

// cachedIntrinsicLocked returns the intrinsic-dimensionality estimate
// of the index metric over snap's first n items for the current (n,
// deleted, reduction) state, computing and caching it only when the
// fingerprint changed since the last estimate. Caller holds e.mu for
// writing.
func (e *Engine) cachedIntrinsicLocked(snap *snapshot, n int, metric func(xr, yr Histogram) float64, redHash uint64, rng *rand.Rand) float64 {
	deleted := len(snap.deleted)
	if c := e.savedIntrinsic; c != nil && c.n == n && c.deleted == deleted && c.redHash == redHash {
		return c.rho
	}
	dist := pairDist(snap, metric)
	if hook := e.testHookIntrinsicEval; hook != nil {
		inner := dist
		dist = func(i, j int) float64 {
			hook()
			return inner(i, j)
		}
	}
	rho := intrinsicDim(liveIDs(snap, n), dist, rng)
	e.savedIntrinsic = &savedIntrinsic{n: n, deleted: deleted, redHash: redHash, rho: rho}
	return rho
}

// liveIDs lists snap's first n ids that are not soft-deleted, in
// ascending order.
func liveIDs(snap *snapshot, n int) []int32 {
	ids := make([]int32, 0, n-len(snap.deleted))
	for i := 0; i < n; i++ {
		if !snap.deleted[i] {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// pairDist is the index metric between two items of snap, over their
// reduced vectors. It gathers into two scratch buffers, so it must be
// called from a single goroutine, as tree builds are.
func pairDist(snap *snapshot, metric func(xr, yr Histogram) float64) vptree.DistFunc {
	b1, b2 := make([]float64, snap.reducedCols.Dims()), make([]float64, snap.reducedCols.Dims())
	return func(i, j int) float64 {
		return metric(snap.reducedCols.Gather(i, b1), snap.reducedCols.Gather(j, b2))
	}
}

// buildVPTree builds a VP-tree over snap's first n live ids under the
// index metric, drawing vantage points from rng.
func buildVPTree(snap *snapshot, n int, metric func(xr, yr Histogram) float64, rng *rand.Rand) (*vptree.Tree, error) {
	return vptree.BuildIDs(liveIDs(snap, n), pairDist(snap, metric), rng)
}

// attachIndexLocked builds (or reuses) the VP-tree candidate generator
// for the snapshot under construction and wires it into the searcher.
// Caller holds e.mu for writing; snap's reduced data is already
// assembled. Only an index-eligible plan (see plan.indexEligible) whose
// chain Build has bound gets one.
func (e *Engine) attachIndexLocked(snap *snapshot, s *search.Searcher) error {
	if e.opts.IndexKind == IndexOff || snap.reduced == nil || !snap.plan.indexEligible() {
		return nil
	}
	n := len(snap.vectors)
	live := n - len(snap.deleted)
	auto := e.opts.IndexKind == IndexAuto
	if (auto && live < indexAutoMinN) || live == 0 {
		return nil
	}

	metric, slack, err := indexMetric(snap)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.opts.Seed ^ 0x6d747265))
	redHash := reductionHash(snap.plan.finest())
	if auto && e.cachedIntrinsicLocked(snap, n, metric, redHash, rng) > indexAutoMaxIntrinsicDim {
		return nil
	}
	saved := e.savedIndex
	if saved != nil && saved.redHash != redHash {
		saved = nil
	}
	var vt *vptree.Tree
	switch {
	case saved != nil && saved.n == n:
		vt = saved.vt
		e.metrics.indexReused()
		// Deep churn: the reused tree drags a large soft-deleted tail
		// that traversal must skip item by item. Rebuild over live ids
		// in the background and invalidate the snapshot when done.
		churn := len(snap.deleted) - saved.deletedAtBuild
		if float64(churn) > indexChurnFraction*float64(n) {
			e.scheduleRebuildLocked(snap, metric, redHash, n)
		}
	case saved != nil && saved.n < n:
		// The VP-tree has no incremental insert, and rebuilding it here
		// would put a spike, linear in n, on whichever query triggered
		// the snapshot after a single Add. Serve the scan path for this
		// snapshot instead and rebuild in the background; the install
		// invalidates the snapshot, so the index returns at the next
		// query after the rebuild lands.
		e.metrics.indexDeferred()
		e.scheduleRebuildLocked(snap, metric, redHash, n)
		return nil
	default:
		if vt, err = buildVPTree(snap, n, metric, rng); err != nil {
			return err
		}
		if hook := e.testHookSyncIndexBuild; hook != nil {
			hook()
		}
		e.savedIndex = &savedIndex{vt: vt, n: n, deletedAtBuild: len(snap.deleted), redHash: redHash}
		e.metrics.indexBuilt()
	}

	ix := &engineIndex{auto: auto, vt: vt, live: live, metric: metric, slack: slack}
	snap.index = ix
	s.Index = func(q Histogram, hint search.IndexHint) (search.IndexRanking, error) {
		if !ix.accept(hint) {
			return nil, nil
		}
		return ix.open(snap, q), nil
	}
	return nil
}

// scheduleRebuildLocked starts a background rebuild over snap, or,
// while one runs, records that another is wanted: the running one
// cannot serve snap's state, and its release reschedules. Caller holds
// e.mu for writing.
func (e *Engine) scheduleRebuildLocked(snap *snapshot, metric func(xr, yr Histogram) float64, redHash uint64, n int) {
	if e.indexRebuilding {
		e.indexRebuildWanted = true
		return
	}
	e.indexRebuilding = true
	go e.rebuildIndex(snap, metric, redHash, n)
}

// rebuildIndex rebuilds the VP-tree over the live ids of a captured
// (immutable) snapshot off the engine lock, then installs the result if
// the engine still matches the state it was built from. Runs on its own
// goroutine; e.indexRebuilding serializes rebuilds. When another
// rebuild was wanted while this one ran, or this one finished stale,
// releasing the latch invalidates the snapshot, so the next query's
// snapshot build schedules a rebuild against the current store.
func (e *Engine) rebuildIndex(snap *snapshot, metric func(xr, yr Histogram) float64, redHash uint64, n int) {
	failed := false
	defer func() {
		// The latch MUST be released on every exit — error, stale race
		// or panic — or deep-churn rebuilds are disabled for the
		// engine's lifetime. It is released before a failure is
		// counted, so whoever waits for the count finds it free. This
		// goroutine is detached: a solver or tree invariant panic here
		// would kill the whole process if it escaped, so it is
		// contained and counted like a query-path panic.
		if r := recover(); r != nil {
			failed = true
		}
		e.mu.Lock()
		e.indexRebuilding = false
		if e.indexRebuildWanted {
			e.indexRebuildWanted = false
			e.snap = nil
		}
		e.mu.Unlock()
		if failed {
			e.metrics.indexRebuildFailed()
		}
	}()
	if hook := e.testHookIndexRebuild; hook != nil {
		hook()
	}
	vt, err := buildVPTree(snap, n, metric, rand.New(rand.NewSource(0x72656275)))
	if err != nil {
		failed = true
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Install only if the engine still matches what was indexed: same
	// reduction and no items added since (deletes are fine — the fresh
	// tree simply excludes the ones deleted before the rebuild began).
	if red := e.plan.finest(); red == nil || reductionHash(red) != redHash {
		return
	}
	if e.store.Len() != n {
		e.indexRebuildWanted = true
		return
	}
	e.savedIndex = &savedIndex{vt: vt, n: n, deletedAtBuild: len(snap.deleted), redHash: redHash}
	e.snap = nil // next query picks up the compacted index
	e.metrics.indexBuilt()
}
