package emdsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"emdsearch/internal/cascadeplan"
	"emdsearch/internal/cluster"
	"emdsearch/internal/colscan"
	"emdsearch/internal/core"
	"emdsearch/internal/db"
	"emdsearch/internal/emd"
	"emdsearch/internal/flowred"
	"emdsearch/internal/kdtree"
	"emdsearch/internal/lb"
	"emdsearch/internal/persist"
	"emdsearch/internal/search"
	"emdsearch/internal/vecmath"
)

// ReductionMethod selects how the Engine constructs its combining
// reduction matrix.
type ReductionMethod string

const (
	// FBAll is the flow-based reduction with best-move local search
	// (paper Figure 9), initialized from k-medoids. The default and
	// usually the tightest filter.
	FBAll ReductionMethod = "fb-all"
	// FBMod is the flow-based reduction with first-improvement
	// round-robin search (paper Figure 8), initialized from k-medoids.
	// Cheaper to build than FBAll on high-dimensional data.
	FBMod ReductionMethod = "fb-mod"
	// KMedoids is the data-independent clustering reduction (paper
	// Section 3.3); it needs no database sample.
	KMedoids ReductionMethod = "kmedoids"
	// Adjacent merges contiguous runs of dimensions; appropriate for
	// 1-D ordered feature spaces and as a cheap baseline.
	Adjacent ReductionMethod = "adjacent"
)

// Options configures an Engine.
type Options struct {
	// ReducedDims is d', the filter dimensionality. 0 disables
	// filtering: queries degrade to an exact sequential scan.
	ReducedDims int
	// Method selects the reduction heuristic; default FBAll.
	Method ReductionMethod
	// SampleSize is the database sample used for flow collection by
	// the flow-based methods; default 64.
	SampleSize int
	// DisableIMFilter switches off the Red-IM pre-filter stage
	// (enabled by default; it is essentially free and prunes Red-EMD
	// evaluations).
	DisableIMFilter bool
	// DisableQuantizedFilter switches off the int16-quantized columnar
	// pre-filter that by default runs ahead of Red-IM: a branch-free
	// tangent-plane evaluation over per-block quantized columns whose
	// certified error margin keeps it a true lower bound, so answers
	// are bit-identical with it on or off — only the work distribution
	// across stages changes. It is skipped automatically when the
	// Red-IM stage is disabled or a Positions-based ranking replaces
	// the eager first scan. The zero value (enabled) is right for
	// nearly everyone.
	DisableQuantizedFilter bool
	// FilterBlockSize is the item-block length of the columnar filter
	// layout; 0 selects the default (256). Smaller blocks give the
	// quantized filter tighter per-block scales and tangents (better
	// pruning) at slightly more per-block overhead. Exposed mainly for
	// benchmarking; the default is right for nearly everyone.
	FilterBlockSize int
	// ReferenceScan retains the legacy per-item filter representation
	// ([]Histogram with closure-based stages) instead of the columnar
	// layout and batched kernels. Results are bit-identical either
	// way; this exists as the verification baseline for that claim and
	// for benchmarking the columnar speedup.
	ReferenceScan bool
	// AsymmetricQuery keeps the query at full dimensionality in the
	// Red-EMD filter (R1 = identity, R2 = the built reduction;
	// Section 3.2 of the paper). The filter becomes a rectangular
	// d x d' EMD: tighter (fewer refinements) but costlier per
	// evaluation — worthwhile when refinement dominates, i.e. large d.
	// Ignored when a Hierarchy is configured.
	AsymmetricQuery bool
	// Hierarchy configures a multi-level filter cascade (generalizing
	// the fixed factor-4 hierarchy of the prior grid-tiling approach):
	// the listed reduced dimensionalities are built as *nested*
	// reductions (each coarser level merges groups of the finer one),
	// and queries run them coarsest-first. Example: {32, 8, 2} on
	// 96-dimensional data. When set, ReducedDims must be zero or equal
	// to the largest entry.
	Hierarchy []int
	// AutoCascade lets the engine choose the cascade depth and
	// per-level d' itself: it starts from the single ReducedDims level,
	// fits a cost model to the per-stage timings and selectivities
	// flowing through Metrics, and re-plans in the background when the
	// observed selectivity drifts — hot-swapping a freshly built
	// pipeline (possibly with a different finest d' than ReducedDims)
	// without blocking queries. Every planned level is a certified
	// lower bound of the next by construction, so answers are
	// byte-identical across all plans; only the work distribution
	// changes. Engine.Replan forces a synchronous planning pass.
	// Requires ReducedDims > 0; incompatible with Hierarchy (a fixed
	// chain) and AsymmetricQuery (its filter is not a cascade level).
	AutoCascade bool
	// Positions optionally gives the feature-space position of each
	// histogram bin. When set — and only when the cost matrix is the
	// PositionNorm distance between these positions — the engine adds
	// Rubner's centroid lower bound as a near-free first filter stage.
	// The correspondence is verified at Build/first-query time.
	Positions [][]float64
	// PositionNorm is the Lp order of the position-based ground
	// distance (default 2). Ignored without Positions.
	PositionNorm float64
	// IndexKind selects the metric-index candidate generator that can
	// replace the linear filter scan with a best-first tree traversal
	// over the reduced EMD (under the metric closure of its ground
	// matrix, so pruning is sound). Candidates are emitted in
	// nondecreasing lower-bound order, so answers are provably
	// identical to the scan path's. IndexAuto ("") builds an M-tree
	// when the corpus looks indexable and falls back to the scan per
	// query when it does not; IndexMTree/IndexVPTree force a kind;
	// IndexOff disables the stage. Ignored (no index is built) for
	// hierarchical cascades, asymmetric queries and Positions-based
	// rankings, which keep their own orderings.
	IndexKind string
	// FourPoint additionally enables supermetric (four-point property)
	// pruning in the VP-tree traversal. The reduced EMD is not
	// guaranteed supermetric, so the property is verified on sampled
	// data quadruples at build time and the stronger pruning is
	// silently dropped if any sample violates it. Only meaningful with
	// IndexKind == IndexVPTree.
	FourPoint bool
	// Workers bounds the goroutines used for the exact-EMD refinement
	// stage of a single KNN or Range query: 0 or 1 runs sequentially,
	// n > 1 uses up to n goroutines, and a negative value uses
	// GOMAXPROCS. Results are identical to the sequential path; only
	// the work counters in QueryStats may differ slightly. Worthwhile
	// when refinement dominates the query cost (large d); for small,
	// cheap refinements the coordination overhead can outweigh the
	// gain. Independent of BatchKNN's cross-query parallelism — when
	// combining both, keep workers × batch concurrency near GOMAXPROCS.
	Workers int
	// UnboundedRefine makes the whole query pipeline threshold-
	// oblivious: every candidate surviving the filters is refined to
	// optimality with the legacy dense, cold-started, validating solver,
	// and every chained Red-EMD filter evaluation runs to optimality as
	// well instead of stopping on a certified bound above the query's
	// live pruning threshold. Results — and the Pulled and Refinements
	// counters — are byte-identical either way: a bounded solve only
	// abandons an item when a certified lower bound proves it cannot
	// enter the answer. It exists as an escape hatch, as the oracle of
	// the identity tests and as the baseline for benchmarking the
	// bounded kernel's speedup.
	UnboundedRefine bool
	// Seed drives all randomized components; the default 0 is a valid
	// fixed seed, so runs are reproducible unless the caller varies it.
	Seed int64
	// RefineHook, when set, is invoked at the start of every exact
	// refinement with the candidate's database index. It exists for
	// fault injection and chaos testing: a hook that panics exercises
	// the engine's panic containment exactly as a solver invariant
	// failure would (the query fails with ErrInternal; the process and
	// other queries are unaffected), and a hook that sleeps simulates a
	// slow solve. It runs on refinement worker goroutines and must be
	// safe for concurrent use. Leave nil in production.
	RefineHook func(index int)
}

func (o Options) withDefaults() Options {
	if o.Method == "" {
		o.Method = FBAll
	}
	if o.SampleSize == 0 {
		o.SampleSize = 64
	}
	if o.PositionNorm == 0 {
		o.PositionNorm = 2
	}
	return o
}

// Engine is the high-level similarity-search index: a histogram
// database plus a multistep EMD query processor with a reduced-EMD
// filter chain.
//
// An Engine is safe for concurrent use: any number of goroutines may
// run KNN, Range, Rank, BatchKNN and the other query methods while
// others call Add, Delete or Build. Queries operate on an immutable
// snapshot of the prepared pipeline (reductions, reduced vectors,
// cost matrices); mutations invalidate the snapshot, and the next
// query rebuilds it. A query that started before a mutation completes
// against the state it started with.
type Engine struct {
	opts Options
	cost emd.CostMatrix
	dist *emd.Dist

	// mu guards the mutable index state below. Queries hold it only
	// long enough to obtain the current snapshot (or to install a
	// fresh one); all per-query work happens on the snapshot without
	// any lock held.
	mu      sync.RWMutex
	store   *db.Database
	red     *core.Reduction
	cascade []*core.Reduction // nested hierarchy levels, finest first (nil without Hierarchy)
	deleted map[int]bool      // soft-deleted item ids
	snap    *snapshot         // current immutable query pipeline, nil after mutations
	wal     *persist.WAL      // open write-ahead log, nil when not logging

	// savedQuant is a quantized filter restored from a persisted
	// snapshot, reused by the next pipeline build when it still matches
	// the live data (see reusableQuant); savedQuantHash fingerprints
	// the reduction it was built under.
	savedQuant     *colscan.Quantized
	savedQuantHash uint64

	// savedIndex is the metric index retained across pipeline rebuilds
	// (and restored from persisted snapshots), reused when its
	// fingerprint still matches the live data; indexRebuilding
	// serializes the churn-triggered background rebuild.
	savedIndex      *savedIndex
	indexRebuilding bool

	// savedIntrinsic caches the auto-mode intrinsic-dimensionality
	// estimate across snapshot rebuilds; it is keyed by the same
	// fingerprint that pins the reduced data, so unchanged corpora do
	// not re-pay the 512 sampled metric solves per rebuild.
	savedIntrinsic *savedIntrinsic

	// AutoCascade state: the active plan, the metrics baseline and
	// expected finest-level selectivity at its adoption (the drift
	// window), the query countdown to the next drift check, the latch
	// serializing background re-plans, and the full-dimensional sample
	// flows stashed by Build for deriving replacement reductions.
	plan          *cascadeplan.Plan
	planBase      Metrics
	planExpPulled float64
	planTick      atomic.Int64
	replanning    bool
	buildFlows    [][]float64

	metrics engineMetrics

	// Test hooks (set only by in-package tests, before the engine is
	// shared): fault injection and accounting probes on the index build
	// paths. All nil in production.
	testHookSyncIndexBuild func(kind string) // a tree is built synchronously on the query path
	testHookIntrinsicEval  func()            // one intrinsic-dim metric evaluation
	testHookIndexRebuild   func()            // start of a background rebuild's build phase
}

// snapshot is an immutable view of everything the query path needs:
// the assembled searcher with its filter chain, the original and
// reduced database vectors, the reduction cascade and the derived
// bound evaluators. Once built it is never mutated, so any number of
// concurrent queries can share it without synchronization while
// mutators install a replacement.
type snapshot struct {
	searcher *search.Searcher
	vectors  []Histogram
	labels   []string     // captured at build time; lock-free predicate reads
	deleted  map[int]bool // copied at build time; read-only afterwards
	dist     *emd.Dist
	dim      int

	red      *core.Reduction
	cascade  []*core.Reduction // coarsest first (nil without Hierarchy)
	reduced  *core.ReducedEMD  // finest symmetric lower bound (nil when unreduced)
	redUpper *core.ReducedEMDUpper
	// The finest-level reduced database: columnar by default,
	// per-item slices under Options.ReferenceScan. Exactly one of the
	// two is non-nil when a reduction is built; finestReduced is the
	// layout-independent accessor.
	reducedCols *colscan.Columns
	reducedVecs []Histogram
	// quant is the coarsest level's certified quantized filter, nil
	// when the quantized stage is not in play. Persistence serializes
	// it so a reopened engine skips requantization.
	quant *colscan.Quantized

	// sspCounters read the SSP-fallback counters of every compiled EMD
	// this snapshot built (reduced levels, upper bound, index metric);
	// Engine.Metrics sums them into ssp_fallbacks.
	sspCounters []func() int64

	// hook is Options.RefineHook, captured at build time; nil outside
	// fault-injection runs.
	hook func(index int)

	// index is the metric-index candidate generator state, nil when no
	// index is attached to this snapshot.
	index *engineIndex

	// greedy hands out per-goroutine clones of the greedy-flow upper
	// bound (its scratch buffer is not safe for concurrent use).
	greedy sync.Pool
}

// refine is the exact-EMD refinement distance over the snapshot's
// vectors, with soft-deleted items at infinity. Snapshot vectors are
// validated on insert and the query once per query, so the fast
// trusted-input kernel applies.
func (s *snapshot) refine(q Histogram, i int) float64 {
	if s.deleted[i] {
		return math.Inf(1)
	}
	if s.hook != nil {
		s.hook(i)
	}
	return s.dist.Distance(q, s.vectors[i])
}

// refineBounded is the threshold-aware refinement: the solver may
// abandon item i once a certified lower bound on its exact distance
// exceeds abortAbove (see emd.DistanceBounded).
func (s *snapshot) refineBounded(q Histogram, i int, abortAbove float64) search.Refinement {
	if s.deleted[i] {
		return search.Refinement{Dist: math.Inf(1)}
	}
	if s.hook != nil {
		s.hook(i)
	}
	r := s.dist.DistanceBounded(q, s.vectors[i], abortAbove)
	return search.Refinement{
		Dist:    r.Value,
		Aborted: r.Aborted,
		Rows:    r.Rows,
		Cols:    r.Cols,
	}
}

// refineBoundedIntr is refineBounded with the query's cancel flag
// threaded into the simplex pivot loop: once the flag is set the solve
// stops within one pivot and returns Interrupted with a certified
// lower bound, so a deadline takes effect inside a single large
// refinement instead of only between refinements.
func (s *snapshot) refineBoundedIntr(q Histogram, i int, abortAbove float64, intr *atomic.Bool) search.Refinement {
	if s.deleted[i] {
		return search.Refinement{Dist: math.Inf(1)}
	}
	if s.hook != nil {
		s.hook(i)
	}
	r := s.dist.DistanceBoundedIntr(q, s.vectors[i], abortAbove, intr)
	return search.Refinement{
		Dist:        r.Value,
		Aborted:     r.Aborted,
		Interrupted: r.Interrupted,
		Rows:        r.Rows,
		Cols:        r.Cols,
	}
}

// refineUnbounded is the legacy refinement kernel: per-call operand
// validation, full dense shape, cold start, run to optimality. It is
// the Options.UnboundedRefine baseline.
func (s *snapshot) refineUnbounded(q Histogram, i int) float64 {
	if s.deleted[i] {
		return math.Inf(1)
	}
	if s.hook != nil {
		s.hook(i)
	}
	d, err := s.dist.DistanceValidated(q, s.vectors[i])
	if err != nil {
		panic(fmt.Sprintf("emdsearch: refinement failed on validated snapshot data: %v", err))
	}
	return d
}

// greedyUpper returns a goroutine-private greedy upper bound
// evaluator; return it with putGreedy when done.
func (s *snapshot) greedyUpper() *lb.GreedyUpper {
	return s.greedy.Get().(*lb.GreedyUpper)
}

func (s *snapshot) putGreedy(g *lb.GreedyUpper) { s.greedy.Put(g) }

// reducedScratch returns a buffer sized for finestReduced's gather, or
// nil when the snapshot stores per-item slices and needs none. One per
// query loop, not one per item.
func (s *snapshot) reducedScratch() []float64 {
	if s.reducedCols == nil {
		return nil
	}
	return make([]float64, s.reducedCols.Dims())
}

// finestReduced returns item i's finest-level reduced vector,
// gathering from the columnar layout into buf (from reducedScratch)
// or handing out the retained per-item slice under ReferenceScan. The
// values are identical bit-for-bit in both layouts.
func (s *snapshot) finestReduced(i int, buf []float64) Histogram {
	if s.reducedCols == nil {
		return s.reducedVecs[i]
	}
	return s.reducedCols.Gather(i, buf)
}

// NewEngine creates an engine for histograms whose ground distance is
// the given square cost matrix.
func NewEngine(cost CostMatrix, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	dist, err := emd.NewDist(cost)
	if err != nil {
		return nil, err
	}
	rows, cols := dist.Dims()
	if rows != cols {
		return nil, fmt.Errorf("emdsearch: cost matrix is %dx%d, want square", rows, cols)
	}
	if opts.ReducedDims < 0 || opts.ReducedDims > rows {
		return nil, fmt.Errorf("emdsearch: ReducedDims %d out of range [0, %d]", opts.ReducedDims, rows)
	}
	if !validIndexKind(opts.IndexKind) {
		return nil, fmt.Errorf("emdsearch: IndexKind %q, want one of %q, %q, %q, %q",
			opts.IndexKind, IndexAuto, IndexMTree, IndexVPTree, IndexOff)
	}
	if len(opts.Hierarchy) > 0 {
		sorted := append([]int(nil), opts.Hierarchy...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		for i, dr := range sorted {
			if dr < 1 || dr > rows {
				return nil, fmt.Errorf("emdsearch: Hierarchy level %d out of range [1, %d]", dr, rows)
			}
			if i > 0 && dr >= sorted[i-1] {
				return nil, fmt.Errorf("emdsearch: Hierarchy levels must be distinct (got %v)", opts.Hierarchy)
			}
		}
		if opts.ReducedDims != 0 && opts.ReducedDims != sorted[0] {
			return nil, fmt.Errorf("emdsearch: ReducedDims %d conflicts with Hierarchy maximum %d", opts.ReducedDims, sorted[0])
		}
		opts.ReducedDims = sorted[0]
		opts.Hierarchy = sorted
	}
	if opts.AutoCascade {
		if opts.ReducedDims == 0 {
			return nil, fmt.Errorf("emdsearch: AutoCascade requires ReducedDims > 0")
		}
		if len(opts.Hierarchy) > 0 {
			return nil, fmt.Errorf("emdsearch: AutoCascade conflicts with a fixed Hierarchy")
		}
		if opts.AsymmetricQuery {
			return nil, fmt.Errorf("emdsearch: AutoCascade conflicts with AsymmetricQuery")
		}
	}
	store, err := db.New(rows)
	if err != nil {
		return nil, err
	}
	return &Engine{opts: opts, cost: cost, dist: dist, store: store}, nil
}

// Add validates and inserts a histogram with an optional label,
// returning its index. Adding invalidates the prepared query pipeline;
// it is rebuilt transparently on the next query (the reduction matrix
// itself is kept — re-run Build to re-derive it from the grown data).
// Queries already in flight keep answering over the snapshot they
// started with.
//
// With an open write-ahead log (OpenWAL), the mutation is validated
// first, then appended to the log and fsynced, and only then applied
// in memory: an Add that returns nil survives a crash, and an Add that
// fails left no trace in either place.
func (e *Engine) Add(label string, h Histogram) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		if err := e.store.Check(h); err != nil {
			return 0, err
		}
		rec := persist.WALRecord{Op: persist.WALAdd, ID: e.store.Len(), Label: label, Vector: h}
		if err := e.wal.Append(rec); err != nil {
			return 0, fmt.Errorf("emdsearch: add: %w", err)
		}
		e.metrics.walAppended()
	}
	id, err := e.store.Add(label, h)
	if err != nil {
		return 0, err
	}
	e.snap = nil
	return id, nil
}

// Len returns the number of indexed histograms.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Len()
}

// Dim returns the histogram dimensionality.
func (e *Engine) Dim() int { return e.store.Dim() }

// Cost returns a copy of the engine's ground-distance matrix. It is
// what LoadEngine and RecoverEngine need to be handed to reopen this
// engine's persisted state (snapshots carry only a fingerprint of the
// matrix, not the matrix itself).
func (e *Engine) Cost() CostMatrix {
	out := make(CostMatrix, len(e.cost))
	for i, row := range e.cost {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// Label returns the label of item i.
func (e *Engine) Label(i int) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Item(i).Label
}

// Vector returns the histogram of item i.
func (e *Engine) Vector(i int) Histogram {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Vector(i)
}

// SetWorkers changes the refinement worker bound (see Options.Workers)
// at runtime. It invalidates the prepared pipeline; the next query
// rebuilds it with the new bound.
func (e *Engine) SetWorkers(workers int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.opts.Workers = workers
	e.snap = nil
}

// Build derives the reduction matrix from the indexed data according
// to the configured method. It must be called once after the initial
// bulk load (and may be called again later to re-derive the reduction
// from grown data). With ReducedDims == 0 it is a no-op. Build blocks
// new queries only while installing the result; queries in flight
// continue on the previous pipeline.
func (e *Engine) Build() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.opts.ReducedDims == 0 {
		e.red = nil
		e.cascade = nil
		e.plan = nil
		e.buildFlows = nil
		e.snap = nil
		return nil
	}
	if e.store.Len() == 0 {
		return fmt.Errorf("emdsearch: Build on empty engine")
	}
	rng := rand.New(rand.NewSource(e.opts.Seed))
	flows, err := e.collectFlows(e.store.Vectors(), rng)
	if err != nil {
		return err
	}
	red, err := e.deriveReduction(e.opts.ReducedDims, flows, rng)
	if err != nil {
		return err
	}
	e.red = red
	e.cascade = nil
	e.buildFlows = flows
	if len(e.opts.Hierarchy) > 1 {
		cascade, err := e.buildCascadeFrom(red, flows, e.opts.Hierarchy[1:], rng)
		if err != nil {
			return err
		}
		e.cascade = cascade
	}
	if e.opts.AutoCascade {
		// Re-plan from scratch: the freshly derived reduction is the
		// 1-level chain until observed counters argue otherwise.
		e.resetPlanLocked()
	}
	e.snap = nil
	return nil
}

// collectFlows gathers the database sample flows the flow-based
// reduction methods optimize against; nil (with no error) for the
// data-independent methods.
func (e *Engine) collectFlows(vectors []Histogram, rng *rand.Rand) ([][]float64, error) {
	if e.opts.Method != FBMod && e.opts.Method != FBAll {
		return nil, nil
	}
	sample := flowred.Sample(vectors, e.opts.SampleSize, rng)
	if len(sample) < 2 {
		return nil, fmt.Errorf("emdsearch: flow-based reduction needs at least 2 indexed histograms")
	}
	return flowred.AverageFlowsParallel(sample, e.dist, 0)
}

// deriveReduction derives a combining reduction to dims original →
// dims reduced dimensions with the configured method. flows is the
// full-dimensional sample flow matrix (used by the flow-based methods
// only; see collectFlows). It reads only immutable engine state, so
// the cascade planner may call it without holding e.mu.
func (e *Engine) deriveReduction(dims int, flows [][]float64, rng *rand.Rand) (*core.Reduction, error) {
	switch e.opts.Method {
	case Adjacent:
		return core.Adjacent(len(e.cost), dims)
	case KMedoids:
		res, err := cluster.BestOfRestarts(e.cost, dims, 3, rng)
		if err != nil {
			return nil, err
		}
		return res.Reduction, nil
	case FBMod, FBAll:
		res, err := cluster.BestOfRestarts(e.cost, dims, 3, rng)
		if err != nil {
			return nil, err
		}
		var red *core.Reduction
		if e.opts.Method == FBMod {
			red, _, err = flowred.OptimizeMod(res.Reduction.Assignment(), dims, flows, e.cost, flowred.Options{})
		} else {
			red, _, err = flowred.OptimizeAll(res.Reduction.Assignment(), dims, flows, e.cost, flowred.Options{})
		}
		if err != nil {
			return nil, err
		}
		return red, nil
	default:
		return nil, fmt.Errorf("emdsearch: unknown reduction method %q", e.opts.Method)
	}
}

// buildCascadeFrom derives the coarser nested levels of a cascade
// from the finest reduction: each level in coarser (reduced
// dimensionalities, descending) clusters (or locally searches) the
// previous level's *reduced* problem — reduced cost matrix and, for the
// flow-based methods, aggregated flows — and is composed with it, so
// every level's optimal reduced EMD lower-bounds the next finer one.
// flows is the full-dimensional sample flow matrix. Like
// deriveReduction it reads only immutable engine state.
func (e *Engine) buildCascadeFrom(finest *core.Reduction, flows [][]float64, coarser []int, rng *rand.Rand) ([]*core.Reduction, error) {
	cascade := []*core.Reduction{finest}
	prev := finest
	curCost, err := core.ReduceCost(e.cost, prev, prev)
	if err != nil {
		return nil, err
	}
	curFlows := flows
	if curFlows != nil {
		if curFlows, err = core.AggregateFlows(curFlows, prev); err != nil {
			return nil, err
		}
	}
	for _, dr := range coarser {
		var inner *core.Reduction
		switch e.opts.Method {
		case Adjacent:
			if inner, err = core.Adjacent(prev.ReducedDims(), dr); err != nil {
				return nil, err
			}
		case KMedoids:
			res, err := cluster.BestOfRestarts(curCost, dr, 3, rng)
			if err != nil {
				return nil, err
			}
			inner = res.Reduction
		case FBMod, FBAll:
			res, err := cluster.BestOfRestarts(curCost, dr, 3, rng)
			if err != nil {
				return nil, err
			}
			if e.opts.Method == FBMod {
				inner, _, err = flowred.OptimizeMod(res.Reduction.Assignment(), dr, curFlows, curCost, flowred.Options{})
			} else {
				inner, _, err = flowred.OptimizeAll(res.Reduction.Assignment(), dr, curFlows, curCost, flowred.Options{})
			}
			if err != nil {
				return nil, err
			}
		}
		composed, err := core.Compose(prev, inner)
		if err != nil {
			return nil, err
		}
		cascade = append(cascade, composed)
		if curCost, err = core.ReduceCost(curCost, inner, inner); err != nil {
			return nil, err
		}
		if curFlows != nil {
			if curFlows, err = core.AggregateFlows(curFlows, inner); err != nil {
				return nil, err
			}
		}
		prev = composed
	}
	return cascade, nil
}

// Reduction returns the current reduction's assignment of original to
// reduced dimensions, or nil when the engine runs unreduced.
func (e *Engine) Reduction() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.red == nil {
		return nil
	}
	return e.red.Assignment()
}

// snapshot returns the current immutable query pipeline, building and
// installing a fresh one if a mutation invalidated it. The fast path
// is a single RLock.
func (e *Engine) snapshot() (*snapshot, error) {
	e.mu.RLock()
	s := e.snap
	e.mu.RUnlock()
	if s != nil {
		return s, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.snap == nil {
		s, err := e.buildSnapshotLocked()
		if err != nil {
			return nil, err
		}
		e.snap = s
		e.metrics.snapshotBuilt(s)
	}
	return e.snap, nil
}

// resolveWorkers maps Options.Workers to an effective worker count.
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w == 0 {
		return 1
	}
	return w
}

// buildSnapshotLocked assembles the query pipeline for the current
// data. The caller must hold e.mu for writing.
func (e *Engine) buildSnapshotLocked() (*snapshot, error) {
	if e.store.Len() == 0 {
		return nil, fmt.Errorf("emdsearch: no indexed histograms")
	}
	vectors := e.store.Vectors()
	labels := make([]string, e.store.Len())
	for i := range labels {
		labels[i] = e.store.Item(i).Label
	}
	deleted := make(map[int]bool, len(e.deleted))
	for i := range e.deleted {
		deleted[i] = true
	}
	snap := &snapshot{
		vectors: vectors,
		labels:  labels,
		deleted: deleted,
		dist:    e.dist,
		dim:     e.store.Dim(),
		red:     e.red,
		hook:    e.opts.RefineHook,
	}
	greedyBase, err := lb.NewGreedyUpper(e.cost)
	if err != nil {
		return nil, err
	}
	snap.greedy.New = func() interface{} { return greedyBase.Clone() }
	s := &search.Searcher{
		N:       len(vectors),
		Workers: resolveWorkers(e.opts.Workers),
		Refine:  snap.refine,
	}
	if e.opts.UnboundedRefine {
		// No RefineBounded: the Searcher publishes no threshold, so the
		// stages below are always asked for the full distance.
		s.Refine = snap.refineUnbounded
	} else {
		s.RefineBounded = snap.refineBounded
		s.RefineBoundedIntr = snap.refineBoundedIntr
	}
	if e.opts.Positions != nil {
		cb, err := lb.NewCentroid(e.opts.Positions, e.opts.Positions, e.opts.PositionNorm)
		if err != nil {
			return nil, err
		}
		if err := cb.CheckAgainst(e.cost, 1e-6); err != nil {
			return nil, fmt.Errorf("emdsearch: Positions do not match the cost matrix: %w", err)
		}
		// Precompute database centroids and index them in a k-d tree:
		// the centroid distance lower-bounds the EMD, so an incremental
		// nearest-centroid stream is a valid base ranking — no filter
		// stage ever scans all n items.
		centroids := make([][]float64, len(vectors))
		for i, v := range vectors {
			centroids[i] = vecmath.Centroid(v, e.opts.Positions)
		}
		tree, err := kdtree.Build(centroids, e.opts.PositionNorm)
		if err != nil {
			return nil, err
		}
		positions := e.opts.Positions
		s.BaseRanking = func(q Histogram) (search.Ranking, error) {
			stream, err := tree.Query(vecmath.Centroid(q, positions))
			if err != nil {
				return nil, err
			}
			return &centroidRanking{stream: stream}, nil
		}
	}
	if e.red != nil {
		// Levels to filter with, coarsest first: the hierarchy cascade
		// when configured, otherwise just the single reduction.
		levels := []*core.Reduction{e.red}
		if len(e.cascade) > 1 {
			levels = make([]*core.Reduction, 0, len(e.cascade))
			for i := len(e.cascade) - 1; i >= 0; i-- {
				levels = append(levels, e.cascade[i])
			}
		}
		snap.cascade = levels

		type levelState struct {
			red     *core.Reduction
			reduced *core.ReducedEMD
			vecs    []Histogram      // Options.ReferenceScan only
			cols    *colscan.Columns // default columnar layout
		}
		states := make([]levelState, len(levels))
		for li, lr := range levels {
			lred, err := core.NewReducedEMD(e.cost, lr, lr)
			if err != nil {
				return nil, err
			}
			snap.sspCounters = append(snap.sspCounters, lred.SSPFallbacks)
			st := levelState{red: lr, reduced: lred}
			if e.opts.ReferenceScan {
				st.vecs = make([]Histogram, len(vectors))
				for i, v := range vectors {
					st.vecs[i] = lr.Apply(v)
				}
			} else {
				st.cols, err = colscan.Build(len(vectors), lr.ReducedDims(), e.opts.FilterBlockSize,
					func(i int, dst []float64) { copy(dst, lr.Apply(vectors[i])) })
				if err != nil {
					return nil, err
				}
				e.metrics.columnsBuilt()
			}
			states[li] = st
		}
		// The finest level's reduced data also serves the certified
		// approximate and membership query paths (ApproxKNN, RangeIDs,
		// EpsilonForCount), which previously re-derived it per query.
		finest := states[len(states)-1]
		snap.reduced = finest.reduced
		snap.reducedVecs = finest.vecs
		snap.reducedCols = finest.cols
		if snap.redUpper, err = core.NewReducedEMDUpper(e.cost, finest.red, finest.red); err != nil {
			return nil, err
		}
		snap.sspCounters = append(snap.sspCounters, snap.redUpper.SSPFallbacks)

		if !e.opts.DisableIMFilter {
			coarsest := states[0]
			im, err := lb.NewIM(coarsest.reduced.Cost())
			if err != nil {
				return nil, err
			}
			if e.opts.ReferenceScan {
				s.Stages = append(s.Stages, search.FilterStage{
					Name:         "Red-IM",
					PrepareQuery: coarsest.red.Apply,
					Distance: search.Exact(func(qr Histogram, i int) float64 {
						return im.Distance(qr, coarsest.vecs[i])
					}),
				})
			} else {
				// The quantized pre-filter leads the chain unless
				// disabled or displaced by a BaseRanking (with a lazy
				// ranking at the bottom there is no eager first scan for
				// the batched kernel to accelerate, and its per-item
				// tangent recompilation would cost more than it prunes).
				if !e.opts.DisableQuantizedFilter && s.BaseRanking == nil {
					hash := persist.ReductionHash(coarsest.red.Assignment(), coarsest.red.ReducedDims())
					qz := e.reusableQuant(coarsest.cols, hash)
					if qz == nil {
						if qz, err = colscan.Quantize(coarsest.cols, maxCost(im.Cost())); err != nil {
							return nil, err
						}
					}
					// Stash for Save and for the next rebuild (hash and
					// geometry guard staleness; see reusableQuant).
					e.savedQuant, e.savedQuantHash = qz, hash
					qsc, err := colscan.NewQuantScanner(im, qz)
					if err != nil {
						return nil, err
					}
					s.Stages = append(s.Stages, search.FilterStage{
						Name:         "Q-Red-IM",
						PrepareQuery: coarsest.red.Apply,
						Distance:     search.Exact(qsc.DistanceAt),
						ScanAll:      qsc.ScanAll,
					})
					snap.quant = qz
				}
				sc, err := colscan.NewIMScanner(im, coarsest.cols)
				if err != nil {
					return nil, err
				}
				s.Stages = append(s.Stages, search.FilterStage{
					Name:         "Red-IM",
					PrepareQuery: coarsest.red.Apply,
					Distance:     search.Exact(sc.DistanceAt),
					ScanAll:      sc.ScanAll,
				})
			}
		}
		// Hierarchical mode: one Red-EMD stage per level, coarsest
		// (cheapest) first; each lower-bounds the next by nesting.
		if len(states) > 1 {
			for li := range states {
				st := states[li]
				stage := search.FilterStage{
					Name:         fmt.Sprintf("Red-EMD-%d", st.red.ReducedDims()),
					PrepareQuery: st.red.Apply,
				}
				redEMDStage(&stage, st.reduced, st.vecs, st.cols)
				s.Stages = append(s.Stages, stage)
			}
			snap.searcher = s
			return snap, nil
		}
		st := states[0]
		if e.opts.AsymmetricQuery {
			// Rectangular filter EMD: unreduced query against reduced
			// database vectors. It dominates the symmetric reduced EMD
			// item-wise, so chaining after Red-IM stays valid.
			asym, err := core.NewReducedEMD(e.cost, core.Identity(e.store.Dim()), e.red)
			if err != nil {
				return nil, err
			}
			snap.sspCounters = append(snap.sspCounters, asym.SSPFallbacks)
			stage := search.FilterStage{
				Name:         "Asym-Red-EMD",
				PrepareQuery: func(q Histogram) Histogram { return q },
			}
			redEMDStage(&stage, asym, st.vecs, st.cols)
			s.Stages = append(s.Stages, stage)
		} else {
			stage := search.FilterStage{
				Name:         "Red-EMD",
				PrepareQuery: e.red.Apply,
			}
			redEMDStage(&stage, st.reduced, st.vecs, st.cols)
			s.Stages = append(s.Stages, stage)
		}
	}
	if err := e.attachIndexLocked(snap, s); err != nil {
		return nil, err
	}
	snap.searcher = s
	return snap, nil
}

// maxCost returns the largest entry of a cost matrix — the Cmax the
// quantized filter's error margins are calibrated against.
func maxCost(c emd.CostMatrix) float64 {
	var m float64
	for _, row := range c {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// reusableQuant returns the stashed quantized filter (restored from a
// persisted snapshot, or built by a previous pipeline assembly) if it
// provably matches what Quantize would produce for the current
// columns: same item count and geometry, and the same reduction
// fingerprint. The store is append-only and deletes are soft, so
// (item count, reduction) pins the reduced content exactly; the cost
// maximum is a function of the reduction, covered by the fingerprint.
// Otherwise nil, and the caller requantizes. Caller holds e.mu.
func (e *Engine) reusableQuant(cols *colscan.Columns, hash uint64) *colscan.Quantized {
	qz := e.savedQuant
	if qz == nil || e.savedQuantHash != hash {
		return nil
	}
	if qz.Len() != cols.Len() || qz.Dims() != cols.Dims() || qz.BlockSize() != cols.BlockSize() {
		return nil
	}
	e.metrics.quantizedReused()
	return qz
}

// redEMDStage fills in the distance functions of a reduced-EMD filter
// stage over the per-item vectors vecs (Options.ReferenceScan) or, when
// those are nil, the columnar layout cols. Distance is threshold-aware:
// it hands the query's live pruning threshold to the transport kernel,
// which stops on a certified bound above it. The eager ScanAll form has
// no threshold yet and solves every item to optimality.
func redEMDStage(stage *search.FilterStage, red *core.ReducedEMD, vecs []Histogram, cols *colscan.Columns) {
	dist := func(qr, v Histogram, abortAbove float64) (float64, bool) {
		r := red.DistanceReducedBounded(qr, v, abortAbove)
		return r.Value, r.Aborted
	}
	if vecs != nil {
		stage.Distance = func(qr Histogram, i int, abortAbove float64) (float64, bool) {
			return dist(qr, vecs[i], abortAbove)
		}
		return
	}
	// Gather into pooled scratch, evaluate. The closure is shared by all
	// queries of a snapshot, hence the pool (stage Distance functions
	// must be concurrency-safe).
	pool := &sync.Pool{New: func() interface{} {
		b := make([]float64, cols.Dims())
		return &b
	}}
	stage.Distance = func(qr Histogram, i int, abortAbove float64) (float64, bool) {
		bp := pool.Get().(*[]float64)
		d, aborted := dist(qr, cols.Gather(i, *bp), abortAbove)
		pool.Put(bp)
		return d, aborted
	}
	stage.ScanAll = scanGatherAll(cols, red.DistanceReduced)
}

// scanGatherAll adapts a distance over per-item reduced vectors to the
// eager batched form used when the stage sits at the bottom of the
// chain: one block transpose per block instead of n pooled gathers.
func scanGatherAll(cols *colscan.Columns, dist func(qr, v Histogram) float64) func(Histogram, []float64) int {
	return func(qr Histogram, out []float64) int {
		return cols.ScanGather(out, func(i int, row []float64) float64 {
			return dist(qr, row)
		})
	}
}

// validateQuery checks a query histogram against the engine's
// dimensionality. Failures wrap ErrBadQuery.
func (e *Engine) validateQuery(q Histogram) error {
	if err := emd.Validate(q); err != nil {
		return fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	if len(q) != e.Dim() {
		return badQueryf("query has %d dimensions, index stores %d", len(q), e.Dim())
	}
	return nil
}

// validateKNN validates a k-NN query's inputs; failures wrap
// ErrBadQuery. Every public k-NN entry point goes through it.
func (e *Engine) validateKNN(q Histogram, k int) error {
	if k < 1 {
		return badQueryf("k = %d, want >= 1", k)
	}
	return e.validateQuery(q)
}

// validateRange validates a range query's inputs; failures wrap
// ErrBadQuery. Every public range entry point goes through it.
func (e *Engine) validateRange(q Histogram, eps float64) error {
	if eps < 0 || math.IsNaN(eps) {
		return badQueryf("eps = %g, want >= 0", eps)
	}
	return e.validateQuery(q)
}

// KNN returns the k nearest neighbors of q under the exact EMD,
// computed losslessly through the filter chain. Safe for concurrent
// use. It is a thin wrapper over KNNCtx with context.Background():
// results are byte-identical, and no cancellation machinery is
// engaged for a context that can never be cancelled.
func (e *Engine) KNN(q Histogram, k int) ([]Result, *QueryStats, error) {
	ans, err := e.KNNCtx(context.Background(), q, k)
	if err != nil {
		return nil, nil, err
	}
	return ans.Results, ans.Stats, nil
}

// Range returns all items within exact EMD eps of q. Safe for
// concurrent use. It is a thin wrapper over RangeCtx with
// context.Background(); results are byte-identical.
func (e *Engine) Range(q Histogram, eps float64) ([]Result, *QueryStats, error) {
	return e.RangeCtx(context.Background(), q, eps)
}

// Distance computes the exact EMD between q and indexed item i. It
// returns an error — rather than panicking — on an invalid query or
// out-of-range index (both wrapping ErrBadQuery), matching the rest of
// the query API; a solver invariant failure surfaces as ErrInternal
// instead of unwinding into the caller.
func (e *Engine) Distance(q Histogram, i int) (d float64, err error) {
	if verr := e.validateQuery(q); verr != nil {
		return 0, verr
	}
	e.mu.RLock()
	if i < 0 || i >= e.store.Len() {
		n := e.store.Len()
		e.mu.RUnlock()
		return 0, badQueryf("Distance(%d): index out of range [0, %d)", i, n)
	}
	v := e.store.Vector(i)
	e.mu.RUnlock()
	defer func() {
		if r := recover(); r != nil {
			e.metrics.queryPanicked()
			err = &InternalError{Op: "distance", Index: i, Value: r}
		}
	}()
	return e.dist.Distance(q, v), nil
}

// centroidRanking adapts an incremental k-d tree stream over database
// centroids to the search.Ranking interface.
type centroidRanking struct {
	stream *kdtree.Stream
}

// Next yields the next-nearest centroid's item.
func (r *centroidRanking) Next() (search.Candidate, bool) {
	id, dist, ok := r.stream.Next()
	if !ok {
		return search.Candidate{}, false
	}
	return search.Candidate{Index: id, Dist: dist}, true
}
