package search

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"emdsearch/internal/emd"
)

func errNoRefine() error {
	return fmt.Errorf("search: Searcher has no refinement distance")
}

// PendingCandidate is a candidate that was pulled from the filter
// ranking but left unresolved when a query was cancelled: its exact
// distance is only known to be at least Lower (the tightest of the
// filter lower bound and, when the solve was interrupted mid-pivot,
// the simplex's certified dual bound). Pending candidates are the raw
// material of anytime answers — a caller with an upper-bound function
// can turn each into a certified [Lower, Upper] interval.
type PendingCandidate struct {
	Index int
	Lower float64
}

// KNNOutcome is the full return of a context-aware k-NN query.
type KNNOutcome struct {
	// Results are the neighbors whose exact distances were confirmed.
	// When Stats.Cancelled is false this is the complete k-NN answer,
	// identical to the context-free path's; otherwise it holds the
	// (certified-exact) neighbors found before cancellation.
	Results []Result
	// Pending lists the candidates pulled but unresolved at
	// cancellation, each with its best certified lower bound. Empty
	// when the query completed.
	Pending []PendingCandidate
	// Stats carries the per-query work counters; Stats.Cancelled
	// distinguishes complete from anytime outcomes.
	Stats *QueryStats
}

// WatchContext converts ctx cancellation into a polled atomic flag.
// The flag doubles as the simplex interrupt: the same pointer is
// handed to the bounded refinement so a deadline stops even a single
// large solve within one pivot. For contexts that can never be
// cancelled (ctx.Done() == nil, e.g. context.Background()) it returns
// a nil flag and spawns nothing, which keeps the context-free wrappers
// byte-identical to the legacy paths. The returned stop function
// releases the watcher goroutine and must be called exactly once.
func WatchContext(ctx context.Context) (flag *atomic.Bool, stop func()) {
	done := ctx.Done()
	if done == nil {
		return nil, func() {}
	}
	flag = new(atomic.Bool)
	quit := make(chan struct{})
	go func() {
		select {
		case <-done:
			flag.Store(true)
		case <-quit:
		}
	}()
	return flag, func() { close(quit) }
}

// KNNCtx answers a k-nearest-neighbor query for q under ctx. It is
// the context-aware form of KNN: a cancel flag derived from ctx is
// polled once per candidate in the KNOP loop (sequential or parallel)
// and once per pivot inside each bounded simplex solve, so
// cancellation takes effect within microseconds even mid-refinement.
// On cancellation the outcome carries Stats.Cancelled=true, the
// confirmed neighbors, and the pending candidates with certified
// lower bounds; ctx's error is NOT returned — callers decide whether
// a partial answer is useful. With a never-cancellable ctx the
// results are byte-identical to KNN's.
func (s *Searcher) KNNCtx(ctx context.Context, q emd.Histogram, k int) (*KNNOutcome, error) {
	return s.knnCtx(ctx, q, k, knnConfig{})
}

// KNNWhereCtx is KNNCtx restricted to items satisfying pred. The
// predicate runs on the query's calling goroutine only — never on
// refinement workers — after the threshold check and before
// refinement, so rejected items cost a predicate call but no exact
// solve. pred must be non-nil.
func (s *Searcher) KNNWhereCtx(ctx context.Context, q emd.Histogram, k int, pred func(index int) bool) (*KNNOutcome, error) {
	return s.knnCtx(ctx, q, k, knnConfig{pred: pred})
}

// knnCtx runs one k-NN query with the hooks the caller set in cfg
// (pred, shared, toGlobal); the cancel flag of ctx and the chain's
// threshold cell are filled in here.
func (s *Searcher) knnCtx(ctx context.Context, q emd.Histogram, k int, cfg knnConfig) (*KNNOutcome, error) {
	if s.Refine == nil && s.RefineBounded == nil {
		return nil, errNoRefine()
	}
	start := time.Now()
	ranking, probes, bound, err := s.buildRanking(q, IndexHint{Kind: IndexKNN, K: k})
	if err != nil {
		return nil, err
	}
	cancel, stopWatch := WatchContext(ctx)
	defer stopWatch()
	cfg.cancel, cfg.bound = cancel, bound

	refineTime := new(atomicDuration)
	refine := s.timedBoundedRefineIntr(q, refineTime.Add, cancel)
	var out KNNOutcome
	out.Results, out.Pending, out.Stats, err = parallelKNNBoundedCore(ranking, refine, k, s.Workers, cfg)
	if err != nil {
		return nil, err
	}
	out.Stats.RefineTime = refineTime.Load()
	finishStats(out.Stats, probes, time.Since(start))
	return &out, nil
}

// RangeCtx answers a range query for q under ctx; the context-aware
// form of Range. A cancelled range query returns the results whose
// exact distances were confirmed to be <= eps before the cancel —
// each is individually certified, so the partial set is sound, only
// possibly incomplete — with Stats.Cancelled=true. pred, when
// non-nil, restricts results to items satisfying it (evaluated on the
// calling goroutine only).
func (s *Searcher) RangeCtx(ctx context.Context, q emd.Histogram, eps float64, pred func(index int) bool) ([]Result, *QueryStats, error) {
	if s.Refine == nil && s.RefineBounded == nil {
		return nil, nil, errNoRefine()
	}
	start := time.Now()
	ranking, probes, bound, err := s.buildRanking(q, IndexHint{Kind: IndexRange, Eps: eps})
	if err != nil {
		return nil, nil, err
	}
	cancel, stopWatch := WatchContext(ctx)
	defer stopWatch()
	cfg := knnConfig{cancel: cancel, pred: pred, bound: bound}

	refineTime := new(atomicDuration)
	refine := s.timedBoundedRefineIntr(q, refineTime.Add, cancel)
	results, stats, err := parallelRangeBoundedCore(ranking, refine, eps, s.Workers, cfg)
	if err != nil {
		return nil, nil, err
	}
	stats.RefineTime = refineTime.Load()
	finishStats(stats, probes, time.Since(start))
	return results, stats, nil
}

// timedBoundedRefineIntr is timedBoundedRefine with the cooperative
// interrupt flag threaded into the solver when the searcher exposes an
// interrupt-aware refinement. A nil intr (never-cancellable context)
// always falls back to the plain closure, keeping that path identical
// to the context-free API.
func (s *Searcher) timedBoundedRefineIntr(q emd.Histogram, add func(d time.Duration), intr *atomic.Bool) BoundedRefine {
	if intr != nil && s.RefineBoundedIntr != nil {
		return func(i int, abortAbove float64) Refinement {
			t0 := time.Now()
			r := s.RefineBoundedIntr(q, i, abortAbove, intr)
			add(time.Since(t0))
			return r
		}
	}
	return s.timedBoundedRefine(q, add)
}
