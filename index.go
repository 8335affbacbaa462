package emdsearch

import (
	"fmt"
	"math"
	"math/rand"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/fourpoint"
	"emdsearch/internal/mtree"
	"emdsearch/internal/persist"
	"emdsearch/internal/search"
	"emdsearch/internal/vptree"
)

// IndexKind values for Options.IndexKind.
const (
	// IndexAuto (the zero value) builds an M-tree over the reduced EMD
	// when the corpus is large enough and its intrinsic dimensionality
	// low enough for metric indexing to pay off, and falls back to the
	// columnar scan otherwise. Per query, the index declines shapes a
	// scan serves better (open-ended rankings, k-NN with k close to n).
	IndexAuto = ""
	// IndexMTree forces an M-tree candidate generator for every
	// eligible query regardless of the selectivity heuristics.
	IndexMTree = "mtree"
	// IndexVPTree forces a vantage-point tree candidate generator.
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
	// indexMTreeCapacity is the M-tree node capacity.
	indexMTreeCapacity = 16
	// indexFourPointSample is the number of random quadruples checked
	// before trusting the four-point property on this data.
	indexFourPointSample = 64
)

// savedIndex is a metric index retained across pipeline rebuilds (and
// restored from persisted snapshots): the tree itself plus the
// fingerprint of the state it was built under. Mirrors the savedQuant
// stash. Exactly one of mt/vt is non-nil, matching kind.
type savedIndex struct {
	kind string
	mt   *mtree.Tree
	vt   *vptree.Tree
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
	kind      string
	auto      bool // built under IndexAuto: per-query acceptance applies
	fourPoint bool // supermetric pruning verified on this data (vptree)
	mt        *mtree.Tree
	vt        *vptree.Tree
	live      int // live items at build time
	// metric is the index's (pseudo)metric over reduced vectors: the
	// reduced EMD itself when its ground matrix is already metric, else
	// the EMD under the metric closure of that matrix. Either way it
	// lower-bounds the exact EMD, so emissions feed KNOP losslessly.
	metric func(xr, yr Histogram) float64
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

// accept decides whether the index serves this query. Forced kinds
// always accept; auto mode declines shapes where a scan is cheaper.
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
	qd := ix.queryDist(s, q)
	var skip func(id int) bool
	if len(s.deleted) > 0 {
		skip = func(id int) bool { return s.deleted[id] }
	}
	if ix.kind == IndexMTree {
		st := ix.mt.Stream(mtree.QueryDistFunc(qd), skip)
		return &indexRanking{
			label: "MTree(Red-EMD)",
			nodes: ix.mt.Nodes(),
			next: func() (int, float64, bool) {
				r, ok := st.Next()
				return r.Index, r.Dist, ok
			},
			stats: func() (int, int) {
				t := st.Stats()
				return t.NodesVisited, t.DistanceCalls
			},
		}
	}
	st := ix.vt.Stream(vptree.QueryDistFunc(qd), skip, ix.fourPoint)
	return &indexRanking{
		label: "VPTree(Red-EMD)",
		nodes: ix.vt.Nodes(),
		next: func() (int, float64, bool) {
			r, ok := st.Next()
			return r.Index, r.Dist, ok
		},
		stats: func() (int, int) {
			t := st.Stats()
			return t.NodesVisited, t.DistanceCalls
		},
	}
}

// indexRanking adapts an mtree/vptree stream to search.IndexRanking.
type indexRanking struct {
	label string
	nodes int
	next  func() (int, float64, bool)
	stats func() (visited, calls int)
}

func (r *indexRanking) Next() (search.Candidate, bool) {
	i, d, ok := r.next()
	if !ok {
		return search.Candidate{}, false
	}
	return search.Candidate{Index: i, Dist: d}, true
}

func (r *indexRanking) IndexStats() search.IndexStats {
	v, c := r.stats()
	p := r.nodes - v
	if p < 0 {
		p = 0
	}
	return search.IndexStats{NodesVisited: v, Pruned: p, DistanceCalls: c}
}

func (r *indexRanking) Label() string { return r.label }

// indexMetric derives the (pseudo)metric the trees are built under.
// The min-linkage reduced ground matrix C' can violate the triangle
// inequality (metric trees would then prune wrong answers), so it is
// repaired to its shortest-path metric closure M' <= C'. EMD is
// monotone in the ground distance, hence EMD_{M'} <= EMD_{C'} <= EMD:
// the index metric is a valid lower bound either way. When C' is
// already metric the closure is a bit-exact fixpoint and the snapshot's
// own reduced-EMD evaluator is used, so index filter values match the
// scan path bit for bit; otherwise the closure's compiled EMD joins the
// snapshot's SSP-fallback counters.
func indexMetric(snap *snapshot) (func(xr, yr Histogram) float64, error) {
	closed, changed := core.MetricClosure(snap.reduced.Cost())
	if !changed {
		return snap.reduced.DistanceReduced, nil
	}
	md, err := emd.NewDist(closed)
	if err != nil {
		return nil, fmt.Errorf("emdsearch: metric closure of reduced cost invalid: %w", err)
	}
	snap.sspCounters = append(snap.sspCounters, md.SSPFallbacks)
	return md.Distance, nil
}

// intrinsicDim estimates the intrinsic dimensionality rho =
// mu^2 / (2 sigma^2) (Chavez et al.) of the index metric from sampled
// live pairs. Returns +Inf when the sample is degenerate (all
// distances equal), where ball pruning cannot work.
func intrinsicDim(ids []int, dist func(i, j int) float64, rng *rand.Rand) float64 {
	if len(ids) < 2 {
		return math.Inf(1)
	}
	var sum, sumSq float64
	n := 0
	for t := 0; t < indexAutoPairSample; t++ {
		i := ids[rng.Intn(len(ids))]
		j := ids[rng.Intn(len(ids))]
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
// for the current (n, deleted, reduction) state, computing and caching
// it only when the fingerprint changed since the last estimate.
// Caller holds e.mu for writing.
func (e *Engine) cachedIntrinsicLocked(n int, liveIDs []int, dist func(i, j int) float64, redHash uint64, rng *rand.Rand) float64 {
	deleted := n - len(liveIDs)
	if c := e.savedIntrinsic; c != nil && c.n == n && c.deleted == deleted && c.redHash == redHash {
		return c.rho
	}
	if hook := e.testHookIntrinsicEval; hook != nil {
		inner := dist
		dist = func(i, j int) float64 {
			hook()
			return inner(i, j)
		}
	}
	rho := intrinsicDim(liveIDs, dist, rng)
	e.savedIntrinsic = &savedIntrinsic{n: n, deleted: deleted, redHash: redHash, rho: rho}
	return rho
}

// fourPointHolds samples quadruples of live items and checks the
// four-point property of the index metric via the planar embedding
// bound. EMD under an arbitrary ground metric is not guaranteed
// supermetric, so Options.FourPoint is trusted only after this
// verification; any violation disables the stronger pruning for the
// snapshot (triangle pruning still applies).
func fourPointHolds(ids []int, dist func(i, j int) float64, rng *rand.Rand) bool {
	if len(ids) < 4 {
		return false
	}
	// Scale-relative tolerance: the planar bound carries ~1e-15
	// relative rounding slack.
	var scale float64
	type quad struct{ p, v, q, s int }
	quads := make([]quad, 0, indexFourPointSample)
	dists := make([][6]float64, 0, indexFourPointSample)
	for t := 0; t < indexFourPointSample; t++ {
		var qd quad
		qd.p = ids[rng.Intn(len(ids))]
		qd.v = ids[rng.Intn(len(ids))]
		qd.q = ids[rng.Intn(len(ids))]
		qd.s = ids[rng.Intn(len(ids))]
		if qd.p == qd.v || qd.p == qd.q || qd.p == qd.s ||
			qd.v == qd.q || qd.v == qd.s || qd.q == qd.s {
			continue
		}
		d := [6]float64{
			dist(qd.p, qd.v),
			dist(qd.q, qd.p),
			dist(qd.q, qd.v),
			dist(qd.p, qd.s),
			dist(qd.v, qd.s),
			dist(qd.q, qd.s),
		}
		for _, x := range d {
			if x > scale {
				scale = x
			}
		}
		quads = append(quads, qd)
		dists = append(dists, d)
	}
	if len(quads) == 0 {
		return false
	}
	tol := 1e-9 * scale
	for _, d := range dists {
		if !fourpoint.Holds(d[0], d[1], d[2], d[3], d[4], d[5], tol) {
			return false
		}
	}
	return true
}

// attachIndexLocked builds (or reuses) the metric-index candidate
// generator for the snapshot under construction and wires it into the
// searcher. Caller holds e.mu for writing; snap's reduced data is
// already assembled. Only an index-eligible plan (see
// plan.indexEligible) whose chain Build has bound gets one.
func (e *Engine) attachIndexLocked(snap *snapshot, s *search.Searcher) error {
	kind := e.opts.IndexKind
	if kind == IndexOff || snap.reduced == nil || !snap.plan.indexEligible() {
		return nil
	}
	n := len(snap.vectors)
	live := n - len(snap.deleted)
	auto := kind == IndexAuto
	if auto {
		if live < indexAutoMinN {
			return nil
		}
		kind = IndexMTree
	}
	if live == 0 {
		return nil
	}

	metric, err := indexMetric(snap)
	if err != nil {
		return err
	}
	// Build-time pair distance over reduced vectors (two scratch
	// buffers; build is single-goroutine).
	b1, b2 := make([]float64, snap.reducedCols.Dims()), make([]float64, snap.reducedCols.Dims())
	pairDist := func(i, j int) float64 {
		return metric(snap.reducedCols.Gather(i, b1), snap.reducedCols.Gather(j, b2))
	}
	liveIDs := make([]int, 0, live)
	for i := 0; i < n; i++ {
		if !snap.deleted[i] {
			liveIDs = append(liveIDs, i)
		}
	}
	rng := rand.New(rand.NewSource(e.opts.Seed ^ 0x6d747265))
	redHash := reductionHash(snap.plan.finest())
	if auto && e.cachedIntrinsicLocked(n, liveIDs, pairDist, redHash, rng) > indexAutoMaxIntrinsicDim {
		return nil
	}
	var mt *mtree.Tree
	var vt *vptree.Tree
	built := false
	saved := e.savedIndex
	if saved != nil && saved.kind == kind && saved.redHash == redHash && saved.n <= n {
		switch kind {
		case IndexMTree:
			if saved.n == n {
				mt = saved.mt
			} else if grown, err := saved.mt.Clone(mtree.DistFunc(pairDist), rng); err == nil {
				// Append-only growth: extend a clone with the new live
				// ids instead of rebuilding from scratch.
				for id := saved.n; id < n; id++ {
					if !snap.deleted[id] {
						grown.Insert(id)
					}
				}
				mt = grown
			}
		case IndexVPTree:
			// The VP-tree is built in one balanced pass and has no
			// incremental insert; only an exact match is reusable.
			if saved.n == n {
				vt = saved.vt
			}
		}
	}
	if mt == nil && vt == nil {
		if kind == IndexVPTree && saved != nil && saved.kind == kind &&
			saved.redHash == redHash && saved.n < n {
			// The VP-tree has no incremental insert, so a grown corpus
			// used to force a full rebuild right here — a synchronous
			// spike, linear in n, on whichever query triggered the
			// snapshot after a single Add. Serve the scan path for this
			// snapshot instead and rebuild in the background; the
			// install invalidates the snapshot, so the index returns at
			// the next query after the rebuild lands.
			e.metrics.indexDeferred()
			if !e.indexRebuilding {
				e.indexRebuilding = true
				go e.rebuildIndex(snap, kind, metric, redHash, n)
			}
			return nil
		}
		switch kind {
		case IndexMTree:
			mt, err = mtree.New(mtree.DistFunc(pairDist), indexMTreeCapacity, rng)
			if err != nil {
				return err
			}
			for _, id := range liveIDs {
				mt.Insert(id)
			}
		case IndexVPTree:
			ids := make([]int32, len(liveIDs))
			for i, id := range liveIDs {
				ids[i] = int32(id)
			}
			vt, err = vptree.BuildIDs(ids, vptree.DistFunc(pairDist), rng)
			if err != nil {
				return err
			}
		}
		built = true
		if hook := e.testHookSyncIndexBuild; hook != nil {
			hook(kind)
		}
	}
	deletedBase := len(snap.deleted)
	if !built {
		// Reused (or incrementally grown) tree: the churn baseline is
		// the original build point, not this snapshot.
		deletedBase = saved.deletedAtBuild
	}
	e.savedIndex = &savedIndex{
		kind:           kind,
		mt:             mt,
		vt:             vt,
		n:              n,
		deletedAtBuild: deletedBase,
		redHash:        redHash,
	}
	if built {
		e.metrics.indexBuilt()
	} else {
		e.metrics.indexReused()
		// Deep churn: the reused tree drags a large soft-deleted tail
		// that traversal must skip item by item. Rebuild over live ids
		// in the background and invalidate the snapshot when done.
		churn := len(snap.deleted) - saved.deletedAtBuild
		if float64(churn) > indexChurnFraction*float64(n) && !e.indexRebuilding {
			e.indexRebuilding = true
			go e.rebuildIndex(snap, kind, metric, redHash, n)
		}
	}

	fourPoint := false
	if kind == IndexVPTree && e.opts.FourPoint {
		fourPoint = fourPointHolds(liveIDs, pairDist, rng)
	}
	ix := &engineIndex{
		kind:      kind,
		auto:      auto,
		fourPoint: fourPoint,
		mt:        mt,
		vt:        vt,
		live:      live,
		metric:    metric,
	}
	snap.index = ix
	s.Index = func(q Histogram, hint search.IndexHint) (search.IndexRanking, error) {
		if !ix.accept(hint) {
			return nil, nil
		}
		return ix.open(snap, q), nil
	}
	return nil
}

// rebuildIndex rebuilds the metric index over the live ids of a
// captured (immutable) snapshot off the engine lock, then installs the
// result if the engine still matches the state it was built from.
// Runs on its own goroutine; e.indexRebuilding serializes rebuilds.
func (e *Engine) rebuildIndex(snap *snapshot, kind string, metric func(xr, yr Histogram) float64, redHash uint64, n int) {
	failed := false
	defer func() {
		// The latch MUST be released on every exit — error, stale race
		// or panic — or deep-churn rebuilds are disabled for the
		// engine's lifetime. And this goroutine is detached: a solver
		// or tree invariant panic here would kill the whole process if
		// it escaped, so it is contained and counted like a query-path
		// panic.
		if r := recover(); r != nil {
			failed = true
		}
		if failed {
			e.metrics.indexRebuildFailed()
		}
		e.mu.Lock()
		e.indexRebuilding = false
		e.mu.Unlock()
	}()
	if hook := e.testHookIndexRebuild; hook != nil {
		hook()
	}
	b1, b2 := make([]float64, snap.reducedCols.Dims()), make([]float64, snap.reducedCols.Dims())
	pairDist := func(i, j int) float64 {
		return metric(snap.reducedCols.Gather(i, b1), snap.reducedCols.Gather(j, b2))
	}
	liveIDs := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !snap.deleted[i] {
			liveIDs = append(liveIDs, i)
		}
	}
	rng := rand.New(rand.NewSource(0x72656275))
	var mt *mtree.Tree
	var vt *vptree.Tree
	var err error
	switch kind {
	case IndexMTree:
		if mt, err = mtree.New(mtree.DistFunc(pairDist), indexMTreeCapacity, rng); err != nil {
			failed = true
			return
		}
		for _, id := range liveIDs {
			mt.Insert(id)
		}
	case IndexVPTree:
		ids := make([]int32, len(liveIDs))
		for i, id := range liveIDs {
			ids[i] = int32(id)
		}
		if vt, err = vptree.BuildIDs(ids, vptree.DistFunc(pairDist), rng); err != nil {
			failed = true
			return
		}
	default:
		failed = true
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Install only if the engine still matches what was indexed: same
	// reduction and no items added since (deletes are fine — the fresh
	// tree simply excludes the ones deleted before the rebuild began).
	if red := e.plan.finest(); red == nil || e.store.Len() != n || reductionHash(red) != redHash {
		return
	}
	e.savedIndex = &savedIndex{
		kind:           kind,
		mt:             mt,
		vt:             vt,
		n:              n,
		deletedAtBuild: len(snap.deleted),
		redHash:        redHash,
	}
	e.snap = nil // next query picks up the compacted index
	e.metrics.indexBuilt()
}
