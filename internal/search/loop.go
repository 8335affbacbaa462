package search

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// query parameterises one run of the candidate loop — the multistep
// algorithm of the paper's Figure 11 and its range variant: pull
// candidates from a lower-bounding ranking until the filter distance
// passes the pruning distance, refine what survives. k-NN, range and
// membership search differ only in the acceptance policy, sequential
// and parallel only in the worker count. The zero value of every hook
// is "off" behind a nil guard, so the plain forms pay nothing for them.
type query struct {
	// The acceptance policy. k >= 1 keeps the k best exact distances and
	// prunes with the live k-th of them (+Inf until k are known). k == 0
	// is the range policy: accept every exact distance <= eps, prune
	// with eps. upper, when non-nil, is the range policy's short-cut: a
	// candidate whose upper bound is already <= eps is accepted without
	// being refined (it then carries that bound as its Dist).
	k     int
	eps   float64
	upper func(index int) float64

	// workers <= 1 settles every candidate on the calling goroutine — no
	// channel, no spawned goroutine — so the work counters are a function
	// of the inputs alone. workers > 1 hands the same settle function to
	// a pool of that many goroutines.
	workers int

	// cancel, when non-nil, is polled once per candidate (and, through
	// the refinement it is bound into, once per simplex pivot): once set
	// the loop stops early with stats.Cancelled and reports the
	// candidates it pulled but could not resolve as pending.
	cancel *atomic.Bool
	// pred, when non-nil, filters candidates after the threshold check
	// and before refinement; failing candidates count as Pulled but are
	// never refined. Like upper it runs on the calling goroutine only, so
	// neither needs to be goroutine-safe even when refinements fan out.
	pred func(index int) bool
	// shared, when non-nil, joins a k-NN search to a cross-partition
	// neighbor set: the loop prunes against min(local k-th, global k-th)
	// and offers every confirmed exact distance under its global id.
	// toGlobal maps local to global indices (nil = identity).
	shared   *SharedKNN
	toGlobal func(local int) int
	// bound, when non-nil, is the cell the ranking's chained stages read
	// the live pruning threshold from (Searcher.buildRanking hands it
	// out); the loop publishes the threshold there before every Next.
	// Only the goroutine that calls Next writes it.
	bound *float64
}

// loop is the state of one run.
type loop struct {
	query
	refine BoundedRefine
	// best is the top-k policy's local neighbor set, nil under the range
	// policy.
	best *kBest
	// dispatch carries candidates to the pool; nil when settling inline.
	dispatch chan Candidate
	// halted is set by the first contained panic and by the first
	// observed cancellation: the feeder stops pulling, and settle files
	// whatever is still in flight as pending instead of refining it.
	halted atomic.Bool

	// mu guards what settle writes from pool goroutines: the refinement
	// counters and Cancelled in stats (Pulled and AcceptedByUpper belong
	// to the feeder alone), accepted, pending and err.
	mu       sync.Mutex
	stats    QueryStats
	accepted []Result
	pending  []PendingCandidate
	err      error
}

// run executes the query over the ranking open returns, refining with
// refine. open is called under the loop's panic barrier, so building
// the ranking (an eager scan, an index descent) is contained like
// everything after it. Under the top-k policy results is the
// (Dist, Index)-sorted neighbor set; under the range policy it is every
// accepted candidate in the same order. pending lists the candidates
// left unresolved by a cancellation, each with its best certified lower
// bound — the confirmed results of a cancelled run are individually
// certified either way, so a partial answer is sound, just not complete.
func (q query) run(open func() (Ranking, error), refine BoundedRefine) (results []Result, pending []PendingCandidate, stats *QueryStats, err error) {
	if q.k < 1 && !(q.eps >= 0) {
		return nil, nil, nil, fmt.Errorf("search: eps = %g, want >= 0", q.eps)
	}
	if refine == nil {
		return nil, nil, nil, fmt.Errorf("search: nil refine")
	}
	l := &loop{query: q, refine: refine}
	l.stats.Workers = 1
	if q.k >= 1 {
		l.best = newKBest(q.k)
	}
	l.runPool(open)
	if l.err != nil {
		// The pool has drained and exited: the query fails with the first
		// contained panic as its error, and no other query sharing the
		// snapshot is affected.
		return nil, nil, nil, l.err
	}
	if l.best != nil {
		return l.best.results, l.pending, &l.stats, nil
	}
	sortResults(l.accepted)
	return l.accepted, l.pending, &l.stats, nil
}

// runPool brackets the feeder with the worker pool, when there is one.
// The dispatch channel is closed and the workers are waited for on every
// way out of the feeder, so no goroutine outlives the query.
func (l *loop) runPool(open func() (Ranking, error)) {
	if l.workers > 1 {
		l.stats.Workers = l.workers
		// The buffer is the dispatch chunk: the feeder can run at most
		// workers + cap(dispatch) candidates ahead of the slowest
		// refiner, so lazily chained filter stages are not evaluated much
		// further than the inline loop would evaluate them.
		l.dispatch = make(chan Candidate, l.workers)
		var wg sync.WaitGroup
		for w := 0; w < l.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := range l.dispatch {
					l.settle(c, l.threshold())
				}
			}()
		}
		defer wg.Wait()
		defer close(l.dispatch)
	}
	l.feed(open)
}

// feed is the one place candidates are pulled: it runs the ranking on
// the calling goroutine and passes every candidate that survives the
// threshold, the predicate and the upper-bound short-cut on to settle —
// directly, or through the pool.
func (l *loop) feed(open func() (Ranking, error)) {
	defer l.contain(-1)
	ranking, err := open()
	if err != nil {
		l.fail(err)
		return
	}
	for !l.halted.Load() {
		if l.cancel != nil && l.cancel.Load() {
			l.halt(nil)
			return
		}
		if l.bound != nil {
			// The chain may now answer any item with a certified bound
			// above this value instead of a finished filter distance;
			// because thresholds only fall, the loop will stop at such an
			// item whenever it surfaces.
			*l.bound = l.threshold()
		}
		c, ok := ranking.Next()
		if !ok {
			return
		}
		l.stats.Pulled++
		// Read the threshold again: pool workers or other partitions may
		// have tightened it while the chain was evaluating filters.
		threshold := l.threshold()
		if c.Dist > threshold {
			// Lower-bounding filter in ascending order: every remaining
			// item is at least this far away, and the threshold only
			// tightens.
			return
		}
		if l.pred != nil && !l.pred(c.Index) {
			continue
		}
		if l.upper != nil {
			if ub := l.upper(c.Index); ub <= l.eps {
				l.stats.AcceptedByUpper++
				l.accept(Result{Index: c.Index, Dist: ub})
				continue
			}
		}
		if l.dispatch != nil {
			l.dispatch <- c
		} else {
			l.settle(c, threshold)
		}
	}
}

// threshold is the distance the loop currently prunes with: eps, or the
// local k-th best folded with the shared global one. The shared
// threshold is monotonically non-increasing and always >= the final
// global k-th distance, so pruning against the minimum of the two
// discards only items provably outside the final answer — the same
// argument that makes the per-query pool threshold sound.
func (l *loop) threshold() float64 {
	if l.best == nil {
		return l.eps
	}
	t := l.best.Threshold()
	if l.shared != nil {
		if s := l.shared.Threshold(); s < t {
			t = s
		}
	}
	return t
}

// settle resolves one candidate against abortAbove, the pruning
// threshold its caller read: the feeder's own (so the inline path never
// skips), or a pool worker's fresh one. It is the only place a candidate
// is refined. An aborted candidate carries a certified lower bound above
// a threshold that only tightens, so its exact distance exceeds the
// final pruning distance too and it is discarded exactly as a finished
// refinement past the threshold would be; the bounded solver's guard
// keeps ties from aborting.
func (l *loop) settle(c Candidate, abortAbove float64) {
	defer l.contain(c.Index)
	if l.halted.Load() || (l.cancel != nil && l.cancel.Load()) {
		l.halt(&PendingCandidate{Index: c.Index, Lower: c.Dist})
		return
	}
	if c.Dist > abortAbove {
		// Dispatched before the threshold dropped below its filter
		// distance.
		l.mu.Lock()
		l.stats.RefinementsSkipped++
		l.mu.Unlock()
		return
	}
	r := l.refine(c.Index, abortAbove)
	l.mu.Lock()
	l.stats.observe(r)
	l.mu.Unlock()
	switch {
	case r.Interrupted:
		// The solve was cut short by the cancel flag: the exact distance
		// is unresolved, only bounded below by the filter distance and
		// the solver's certified dual bound.
		l.halt(&PendingCandidate{Index: c.Index, Lower: math.Max(c.Dist, r.Dist)})
	case r.Aborted:
	case l.best != nil:
		if l.shared != nil {
			gid := c.Index
			if l.toGlobal != nil {
				gid = l.toGlobal(gid)
			}
			l.shared.Offer(gid, r.Dist)
		}
		l.best.add(Result{Index: c.Index, Dist: r.Dist}, false)
	case r.Dist <= l.eps:
		l.accept(Result{Index: c.Index, Dist: r.Dist})
	}
}

// accept adds r to the range policy's answer.
func (l *loop) accept(r Result) {
	l.mu.Lock()
	l.accepted = append(l.accepted, r)
	l.mu.Unlock()
}

// halt records that the query was cancelled, with the candidate the
// observer was holding (if any) left unresolved.
func (l *loop) halt(unresolved *PendingCandidate) {
	l.mu.Lock()
	l.stats.Cancelled = true
	if unresolved != nil {
		l.pending = append(l.pending, *unresolved)
	}
	l.mu.Unlock()
	l.halted.Store(true)
}

// fail makes err the query's outcome unless an earlier failure already
// is; later ones are dropped, the query has its error.
func (l *loop) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	l.halted.Store(true)
}

// contain is the loop's panic barrier; it must be deferred directly. A
// panic anywhere below it — the transport simplex's invariant checks,
// the trusted-input solver wrapper in a refinement or a filter stage, a
// predicate, a chaos-injection hook — becomes the
// query's *PanicError instead of unwinding through the caller (or, on a
// pool goroutine, killing the process): one poisoned call fails one
// query. feed defers it around the whole iteration, settle around each
// refinement, because a pool goroutine can only be guarded from its own
// stack. index is the candidate being refined, -1 on the feeder.
func (l *loop) contain(index int) {
	if v := recover(); v != nil {
		l.fail(&PanicError{Index: index, Value: v, Stack: debug.Stack()})
	}
}

// kBest is a k-best result set under a mutex that publishes its k-th
// distance: the local neighbor set of one k-NN run and, with
// de-duplication, the set several runs share (SharedKNN). Insertion
// keeps the (Dist, Index) order of the sequential KNOP algorithm, so the
// final contents are independent of the order in which refinements
// complete.
type kBest struct {
	k int
	// kth holds the float64 bits of the k-th best distance, +Inf until k
	// results are held: the threshold the feeder and the refinement
	// workers (of this run, or of every run sharing the set) read without
	// the mutex. It only ever decreases, so a reader observing c.Dist >
	// threshold may safely discard the candidate — the bound can only
	// tighten further.
	kth atomic.Uint64

	mu      sync.Mutex
	results []Result // (Dist, Index)-sorted, len <= k
}

func newKBest(k int) *kBest {
	b := &kBest{k: k, results: make([]Result, 0, k+1)}
	b.kth.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Threshold returns the k-th best distance added so far, +Inf until k
// are held. Monotonically non-increasing.
func (b *kBest) Threshold() float64 { return math.Float64frombits(b.kth.Load()) }

// add inserts r, trims to k and publishes the new k-th distance. With
// dedup, r replaces an entry already held for r.Index if it is tighter
// and is dropped otherwise, so one item never occupies two slots.
func (b *kBest) add(r Result, dedup bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if dedup {
		for i, held := range b.results {
			if held.Index != r.Index {
				continue
			}
			if held.Dist <= r.Dist {
				return
			}
			b.results = append(b.results[:i], b.results[i+1:]...)
			break
		}
	}
	pos := sort.Search(len(b.results), func(i int) bool { return r.before(b.results[i]) })
	b.results = append(b.results, Result{})
	copy(b.results[pos+1:], b.results[pos:])
	b.results[pos] = r
	if len(b.results) > b.k {
		b.results = b.results[:b.k]
	}
	if len(b.results) == b.k {
		b.kth.Store(math.Float64bits(b.results[b.k-1].Dist))
	}
}
