package emdsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"emdsearch/internal/cluster"
	"emdsearch/internal/colscan"
	"emdsearch/internal/core"
	"emdsearch/internal/db"
	"emdsearch/internal/emd"
	"emdsearch/internal/flowred"
	"emdsearch/internal/lb"
	"emdsearch/internal/persist"
	"emdsearch/internal/search"
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

// Options configures an Engine. NewEngine compiles them into the
// engine's filter chain and rejects what cannot be one: ReducedDims or
// a Hierarchy level outside the histogram dimensionality, repeated
// Hierarchy levels, a ReducedDims that is not the largest Hierarchy
// level, a negative SampleSize, and an unknown Method or IndexKind.
// The filter chain is exactly what ReducedDims and Hierarchy configure.
type Options struct {
	// ReducedDims is d', the filter dimensionality. 0 disables
	// filtering: queries degrade to an exact sequential scan.
	ReducedDims int
	// Method selects the reduction heuristic; default FBAll.
	Method ReductionMethod
	// SampleSize is the database sample used for flow collection by
	// the flow-based methods; default 64.
	SampleSize int
	// FilterBlockSize is the item-block length of the reduced-EMD
	// levels' columnar store; 0 selects the default (256). Those levels
	// read one item at a time, so it changes neither pruning nor
	// answers.
	FilterBlockSize int
	// Hierarchy configures a multi-level filter cascade (generalizing
	// the fixed factor-4 hierarchy of the prior grid-tiling approach):
	// the listed reduced dimensionalities are built as *nested*
	// reductions (each coarser level merges groups of the finer one),
	// and queries run them coarsest-first. Example: {32, 8, 2} on
	// 96-dimensional data.
	Hierarchy []int
	// IndexKind has no effect: every query is served by the filter
	// chain. IndexAuto ("") and IndexOff are accepted; "vptree", the
	// removed VP-tree candidate generator (DESIGN.md §13), is rejected.
	IndexKind string
	// Workers bounds the goroutines used for the exact-EMD refinement
	// stage of a single query, of any shape: 0 or 1 runs sequentially,
	// n > 1 uses up to n goroutines, and a negative value uses
	// GOMAXPROCS. Results are identical to the sequential path; only
	// the work counters in QueryStats may differ slightly. Worthwhile
	// when refinement dominates the query cost (large d); for small,
	// cheap refinements the coordination overhead can outweigh the
	// gain. It multiplies with the caller's own concurrency: keep
	// workers × concurrent queries near GOMAXPROCS.
	Workers int
	// Seed drives all randomized components; the default 0 is a valid
	// fixed seed, so runs are reproducible unless the caller varies it.
	Seed int64

	// refineHook, when set, is invoked at the start of every exact
	// refinement with the candidate's database index. Only the
	// in-package fault-injection tests set it: a hook that panics
	// exercises the engine's panic containment exactly as a solver
	// invariant failure would (the query fails with ErrInternal; the
	// process and other queries are unaffected), and a hook that sleeps
	// simulates a slow solve. It runs on refinement worker goroutines
	// and must be safe for concurrent use.
	refineHook func(index int)
	// unboundedRefine makes the whole pipeline threshold-oblivious:
	// every surviving candidate is refined to optimality by the dense,
	// cold-started, validating solver, and every chained Red-EMD filter
	// solve runs to optimality too. Results, Pulled and Refinements are
	// byte-identical either way; only the in-package identity suites set
	// it, as their oracle.
	unboundedRefine bool
}

func (o Options) withDefaults() Options {
	if o.Method == "" {
		o.Method = FBAll
	}
	if o.SampleSize == 0 {
		o.SampleSize = 64
	}
	return o
}

// IndexKind values for Options.IndexKind. Neither changes how a query
// is served.
const (
	IndexAuto = ""
	IndexOff  = "off"
)

// Engine is the high-level similarity-search index: a histogram
// database plus a multistep EMD query processor with a reduced-EMD
// filter chain.
//
// An Engine is safe for concurrent use: any number of goroutines may
// run Search, Rank and the other query methods while
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
	plan    *plan        // the filter chain; never nil, replaced whole (Build, load)
	deleted map[int]bool // soft-deleted item ids
	snap    *snapshot    // current immutable query pipeline, nil after mutations
	wal     *persist.WAL // open write-ahead log, nil when not logging

	// pot is the dual-potential bound of the cost matrix, compiled by the
	// first pipeline build of a reduced plan; potCol holds the m
	// projections of every stored item, item i at potCol[i·m:(i+1)·m].
	// The store is append-only and deletes are soft, so each build only
	// projects the items added since the last one, and a snapshot holds
	// a prefix of the column.
	pot    *lb.Potentials
	potCol []float64

	metrics engineMetrics

	// testHookProjected, set only by in-package tests before the engine
	// is shared, observes each pipeline build: it projected n items into
	// the potential column. Nil in production.
	testHookProjected func(n int)
}

// snapshot is an immutable view of everything the query path needs:
// the assembled searcher with its filter chain, the plan it was
// assembled from, the original and reduced database vectors and the
// derived bound evaluators. Once built it is never mutated, so any number of
// concurrent queries can share it without synchronization while
// mutators install a replacement.
type snapshot struct {
	searcher *search.Searcher
	vectors  []Histogram
	labels   []string     // captured at build time; lock-free predicate reads
	deleted  map[int]bool // copied at build time; read-only afterwards
	dist     *emd.Dist
	dim      int

	plan *plan
	// The finest level's symmetric bounds and columnar reduced database
	// (nil when unreduced); they also serve the certified approximate
	// query path (ApproxKNN).
	reduced     *core.ReducedEMD
	reducedCols *colscan.Columns

	// hook is Options.refineHook, captured at build time; nil outside
	// fault-injection runs.
	hook func(index int)

	// greedy hands out per-goroutine clones of the greedy-flow upper
	// bound (its scratch buffer is not safe for concurrent use).
	greedy sync.Pool
}

// refine is the exact-EMD refinement distance over the snapshot's
// vectors, with soft-deleted items at infinity. Snapshot vectors are
// validated on insert and the query once per query, so the fast
// trusted-input kernel applies. It is threshold-aware: the solver may
// abandon item i once a certified lower bound on its exact distance
// exceeds abortAbove (see emd.DistanceBounded; +Inf runs to
// optimality). intr, when non-nil, is the query's cancel flag, threaded
// into the simplex pivot loop: once it is set the solve stops within
// one pivot and returns Interrupted with a certified lower bound, so a
// deadline takes effect inside a single large refinement instead of
// only between refinements.
func (s *snapshot) refine(q Histogram, i int, abortAbove float64, intr *atomic.Bool) search.Refinement {
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
// the identity suites' threshold-oblivious oracle.
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
	p, err := compilePlan(opts, rows)
	if err != nil {
		return nil, err
	}
	store, err := db.New(rows)
	if err != nil {
		return nil, err
	}
	return &Engine{opts: opts, cost: cost, dist: dist, store: store, plan: p}, nil
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

// Build derives the reduction chain that ReducedDims or Hierarchy
// configures from the indexed data, with the configured method. It must
// be called once after the initial bulk load, and may be called again
// later to re-derive the chain from grown data. With ReducedDims == 0
// and no Hierarchy it is a no-op. Build blocks new queries only while
// installing the result; queries in flight continue on the previous
// pipeline.
func (e *Engine) Build() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, err := compilePlan(e.opts, e.Dim())
	if err != nil {
		return err
	}
	if dims := p.dims(); len(dims) > 0 {
		if e.store.Len() == 0 {
			return fmt.Errorf("emdsearch: Build on empty engine")
		}
		rng := rand.New(rand.NewSource(e.opts.Seed))
		chain, err := e.deriveChain(dims, e.store.Vectors(), rng)
		if err != nil {
			return err
		}
		p = boundPlan(chain)
	}
	e.plan, e.snap = p, nil
	return nil
}

// deriveChain materializes the chain for levels (ascending coarse→fine)
// and returns it in the same order: it collects the sample flows, derives
// the finest reduction and composes the coarser levels below it.
func (e *Engine) deriveChain(levels []int, vectors []Histogram, rng *rand.Rand) ([]*core.Reduction, error) {
	flows, err := e.collectFlows(vectors, rng)
	if err != nil {
		return nil, err
	}
	n := len(levels)
	chain := make([]*core.Reduction, n)
	if chain[n-1], err = e.deriveReduction(e.cost, levels[n-1], flows, rng); err != nil {
		return nil, err
	}
	if err := e.coarsen(chain, levels, flows, rng); err != nil {
		return nil, err
	}
	return chain, nil
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

// deriveReduction derives a combining reduction of the problem (cost,
// flows) to dims reduced dimensions with the configured method: the
// engine's own cost matrix for the finest level, an already reduced
// problem for a coarser one. flows is the sample flow matrix at cost's
// dimensionality (used by the flow-based methods only; see
// collectFlows).
func (e *Engine) deriveReduction(cost emd.CostMatrix, dims int, flows [][]float64, rng *rand.Rand) (*core.Reduction, error) {
	if e.opts.Method == Adjacent {
		return core.Adjacent(len(cost), dims)
	}
	res, err := cluster.BestOfRestarts(cost, dims, 3, rng)
	if err != nil {
		return nil, err
	}
	red := res.Reduction
	switch e.opts.Method {
	case FBMod:
		red, _, err = flowred.OptimizeMod(red.Assignment(), dims, flows, cost, flowred.Options{})
	case FBAll:
		red, _, err = flowred.OptimizeAll(red.Assignment(), dims, flows, cost, flowred.Options{})
	}
	return red, err
}

// coarsen fills chain[:n-1] with the nested levels below the finest
// reduction chain[n-1], at the dimensionalities levels (ascending):
// each level clusters (or locally searches) the next finer level's
// *reduced* problem — reduced cost matrix and, for the flow-based
// methods, aggregated flows — and is composed with it, so every level's
// optimal reduced EMD lower-bounds the next finer one.
func (e *Engine) coarsen(chain []*core.Reduction, levels []int, flows [][]float64, rng *rand.Rand) error {
	cost, step := e.cost, chain[len(chain)-1]
	for i := len(chain) - 2; i >= 0; i-- {
		// step took the previous problem to level i+1; follow it.
		var err error
		if cost, err = core.ReduceCost(cost, step, step); err != nil {
			return err
		}
		if flows != nil {
			if flows, err = core.AggregateFlows(flows, step); err != nil {
				return err
			}
		}
		if step, err = e.deriveReduction(cost, levels[i], flows, rng); err != nil {
			return err
		}
		if chain[i], err = core.Compose(chain[i+1], step); err != nil {
			return err
		}
	}
	return nil
}

// Reduction returns the current reduction's assignment of original to
// reduced dimensions, or nil when the engine runs unreduced.
func (e *Engine) Reduction() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if red := e.plan.finest(); red != nil {
		return red.Assignment()
	}
	return nil
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
		s, err := e.buildSnapshotLocked(e.plan)
		if err != nil {
			return nil, err
		}
		e.snap = s
		e.metrics.snapshotBuilt()
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

// buildSnapshotLocked assembles the query pipeline of plan p over the
// current data: one pass over p's levels, cheapest bound first. It does
// not install anything. The caller must hold e.mu for writing.
func (e *Engine) buildSnapshotLocked(p *plan) (*snapshot, error) {
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
		plan:    p,
		hook:    e.opts.refineHook,
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
	if e.opts.unboundedRefine {
		// The Searcher publishes no threshold, so the stages below are
		// always asked for the full distance.
		s.Refine, s.Oblivious = search.ExactRefine(snap.refineUnbounded), true
	}
	levels := p.levels
	if p.finest() == nil {
		levels = nil // Build has not bound the chain yet: exact scan
	}
	for _, lv := range levels {
		if lv.kind == kindPotential {
			stage, err := e.potentialStageLocked(p.stageName(lv), vectors)
			if err != nil {
				return nil, err
			}
			s.Stages = append(s.Stages, stage)
			continue
		}
		red := lv.red
		reduced, err := core.NewReducedEMD(e.cost, red, red)
		if err != nil {
			return nil, err
		}
		cols, err := colscan.Build(len(vectors), red.ReducedDims(), e.opts.FilterBlockSize,
			func(i int, dst []float64) { copy(dst, red.Apply(vectors[i])) })
		if err != nil {
			return nil, err
		}
		e.metrics.columnsBuilt()
		// Each level lower-bounds the next finer one by nesting, and the
		// loop ends on the finest.
		s.Stages = append(s.Stages, redEMDStage(p.stageName(lv), red, reduced, cols))
		snap.reduced, snap.reducedCols = reduced, cols
	}
	snap.searcher = s
	return snap, nil
}

// potentialCount is m, the number of dual potentials the first level
// of a reduced plan evaluates per item.
const potentialCount = 8

// potentialStageLocked extends the potential column to the stored
// items and returns the eager potential level over its prefix: the
// first level of every reduced plan, O(m) per item. ScanAll and
// Distance evaluate the same Key on the same projections, so they
// agree bit for bit. Caller holds e.mu for writing.
func (e *Engine) potentialStageLocked(name string, vectors []Histogram) (search.FilterStage, error) {
	if e.pot == nil {
		pot, err := lb.NewPotentials(e.cost, potentialCount)
		if err != nil {
			return search.FilterStage{}, err
		}
		e.pot = pot
	}
	pot, m := e.pot, e.pot.Len()
	from := len(e.potCol) / m
	for _, h := range vectors[from:] {
		e.potCol = pot.Project(e.potCol, h)
	}
	if e.testHookProjected != nil {
		e.testHookProjected(len(vectors) - from)
	}
	col := e.potCol[:len(e.potCol):len(e.potCol)]
	return search.FilterStage{
		Name:         name,
		PrepareQuery: func(q Histogram) Histogram { return pot.Project(make([]float64, 0, m), q) },
		Distance: search.Exact(func(qp Histogram, i int) float64 {
			return pot.Key(qp, col[i*m:(i+1)*m])
		}),
		ScanAll: func(qp Histogram, out []float64) int { return pot.Scan(qp, col, out) },
	}, nil
}

// redEMDStage is a reduced-EMD filter level over the columnar layout
// cols. Distance is threshold-aware: it hands the query's live pruning
// threshold to the transport kernel, which stops on a certified bound
// above it. The level always sits behind the potential scan, so it has
// no eager form.
func redEMDStage(name string, red *core.Reduction, reduced *core.ReducedEMD, cols *colscan.Columns) search.FilterStage {
	// Gather into pooled scratch, evaluate. The closure is shared by all
	// queries of a snapshot, hence the pool (stage Distance functions
	// must be concurrency-safe).
	pool := &sync.Pool{New: func() interface{} {
		b := make([]float64, cols.Dims())
		return &b
	}}
	return search.FilterStage{
		Name:         name,
		PrepareQuery: red.Apply,
		Distance: func(qr Histogram, i int, abortAbove float64) (float64, bool) {
			bp := pool.Get().(*[]float64)
			r := reduced.DistanceReducedBounded(qr, cols.Gather(i, *bp), abortAbove)
			pool.Put(bp)
			return r.Value, r.Aborted
		},
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

// Distance computes the exact EMD between q and indexed item i. An
// invalid query or out-of-range index is rejected with an error
// wrapping ErrBadQuery, and a solver invariant failure surfaces as
// ErrInternal instead of unwinding into the caller. ctx's cancel flag is
// threaded into the simplex pivot loop, so even a single large solve is
// interrupted within one pivot; an interrupted computation returns
// ctx.Err(), never a partial value.
func (e *Engine) Distance(ctx context.Context, q Histogram, i int) (d float64, err error) {
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
	defer e.contain("distance", i, &err)
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
