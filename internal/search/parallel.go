package search

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// atomicDuration accumulates wall time from multiple goroutines.
type atomicDuration struct{ ns int64 }

func (a *atomicDuration) Add(d time.Duration) { atomic.AddInt64(&a.ns, int64(d)) }
func (a *atomicDuration) Load() time.Duration { return time.Duration(atomic.LoadInt64(&a.ns)) }

// atomicThreshold is a monotonically non-increasing float64 shared
// between the candidate feeder and the refinement workers: the current
// k-th neighbor distance (+Inf until k neighbors are known). Because
// it only ever decreases, a reader observing c.Dist > threshold may
// safely discard the candidate — the bound can only tighten further.
type atomicThreshold struct{ bits uint64 }

func newAtomicThreshold() *atomicThreshold {
	t := &atomicThreshold{}
	t.Store(math.Inf(1))
	return t
}

func (t *atomicThreshold) Store(v float64) { atomic.StoreUint64(&t.bits, math.Float64bits(v)) }
func (t *atomicThreshold) Load() float64   { return math.Float64frombits(atomic.LoadUint64(&t.bits)) }

// neighborSet is the mutex-guarded k-best result set shared by the
// refinement workers. Insertion keeps the (Dist, Index)-sorted order
// of the sequential KNOP algorithm, so the final contents are
// independent of the order in which workers complete.
type neighborSet struct {
	mu        sync.Mutex
	k         int
	results   []Result
	threshold *atomicThreshold
}

func newNeighborSet(k int, threshold *atomicThreshold) *neighborSet {
	return &neighborSet{k: k, results: make([]Result, 0, k+1), threshold: threshold}
}

// insert adds r, trims to k and publishes the new k-th distance.
func (ns *neighborSet) insert(r Result) {
	ns.mu.Lock()
	pos := sort.Search(len(ns.results), func(i int) bool {
		if ns.results[i].Dist != r.Dist {
			return ns.results[i].Dist > r.Dist
		}
		return ns.results[i].Index > r.Index
	})
	ns.results = append(ns.results, Result{})
	copy(ns.results[pos+1:], ns.results[pos:])
	ns.results[pos] = r
	if len(ns.results) > ns.k {
		ns.results = ns.results[:ns.k]
	}
	if len(ns.results) == ns.k {
		ns.threshold.Store(ns.results[ns.k-1].Dist)
	}
	ns.mu.Unlock()
}

// ParallelKNN is the concurrent form of the KNOP k-NN algorithm: it
// pulls candidates from the lower-bounding filter ranking in ascending
// order and refines them with up to `workers` goroutines. A shared
// atomic threshold carries the current k-th neighbor distance; the
// feeder stops — and in-flight workers skip — as soon as a candidate's
// filter distance exceeds it. Dispatch is bounded (a small channel
// buffer), so the feeder stays only one chunk ahead of the workers and
// lazily chained filter stages are not evaluated further than the
// sequential algorithm would, beyond that bounded look-ahead.
//
// The result set is exactly that of the sequential KNN: any candidate
// left unrefined had a filter distance above the threshold at some
// point, the threshold never increases, and the filter lower-bounds
// the exact distance — so no unrefined item can belong to the answer.
// Work counters may differ from the sequential path: candidates in
// flight when the threshold tightens are refined speculatively
// (counted in Refinements) or skipped (RefinementsSkipped).
func ParallelKNN(ranking Ranking, refine func(index int) float64, k, workers int) ([]Result, *QueryStats, error) {
	return ParallelKNNBounded(ranking, adaptRefine(refine), k, workers)
}

// parallelCounters accumulates per-refinement outcomes from multiple
// workers without locking; flush copies the totals into stats.
type parallelCounters struct {
	refined, skipped, aborted, rows, cols int64
}

func (pc *parallelCounters) observe(r Refinement) {
	atomic.AddInt64(&pc.refined, 1)
	atomic.AddInt64(&pc.rows, int64(r.Rows))
	atomic.AddInt64(&pc.cols, int64(r.Cols))
	if r.Aborted {
		atomic.AddInt64(&pc.aborted, 1)
	}
}

func (pc *parallelCounters) flush(stats *QueryStats) {
	stats.Refinements = int(atomic.LoadInt64(&pc.refined))
	stats.RefinementsSkipped = int(atomic.LoadInt64(&pc.skipped))
	stats.RefinesAborted = int(atomic.LoadInt64(&pc.aborted))
	stats.RefineRows = atomic.LoadInt64(&pc.rows)
	stats.RefineCols = atomic.LoadInt64(&pc.cols)
}

// ParallelKNNBounded is ParallelKNN with a threshold-aware refinement.
// Each worker reads the shared threshold once per candidate and passes
// it to refine as the abort bound. Because the threshold only ever
// tightens, a certified bound above the threshold-at-call-time also
// exceeds the final k-th distance, so discarding aborted candidates
// leaves the result set exactly equal to the sequential KNN's.
func ParallelKNNBounded(ranking Ranking, refine BoundedRefine, k, workers int) ([]Result, *QueryStats, error) {
	res, _, stats, err := parallelKNNBoundedCore(ranking, refine, k, workers, knnConfig{})
	return res, stats, err
}

// pendingSet collects unresolved candidates from multiple workers when
// a query is cancelled mid-flight.
type pendingSet struct {
	mu   sync.Mutex
	list []PendingCandidate
}

func (ps *pendingSet) add(p PendingCandidate) {
	ps.mu.Lock()
	ps.list = append(ps.list, p)
	ps.mu.Unlock()
}

// parallelKNNBoundedCore is the worker-pool KNOP core shared by
// ParallelKNNBounded and the context-aware searcher entry points. On
// cancellation the feeder stops pulling and the workers record each
// remaining dispatched candidate as pending instead of refining it;
// candidates whose solve was interrupted mid-pivot join the pending
// set with the solver's certified lower bound.
func parallelKNNBoundedCore(ranking Ranking, refine BoundedRefine, k, workers int, cfg knnConfig) ([]Result, []PendingCandidate, *QueryStats, error) {
	if k < 1 {
		return nil, nil, nil, fmt.Errorf("search: k = %d, want >= 1", k)
	}
	if workers <= 1 {
		return knnBoundedCore(ranking, refine, k, cfg)
	}
	threshold := newAtomicThreshold()
	neighbors := newNeighborSet(k, threshold)
	var counters parallelCounters
	var pending pendingSet
	var cancelled atomic.Bool
	var faulted fault

	// The buffer is the dispatch chunk: the feeder can run at most
	// workers + cap(dispatch) candidates ahead of the slowest refiner.
	dispatch := make(chan Candidate, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range dispatch {
				if faulted.Load() {
					// A sibling worker's solve panicked: the query is
					// failing with its error; just drain the channel.
					continue
				}
				if cfg.cancelled() {
					cancelled.Store(true)
					pending.add(PendingCandidate{Index: c.Index, Lower: c.Dist})
					continue
				}
				ab := cfg.tighten(threshold.Load())
				if c.Dist > ab {
					atomic.AddInt64(&counters.skipped, 1)
					continue
				}
				r, rerr := callRefine(refine, c.Index, ab)
				if rerr != nil {
					faulted.record(rerr)
					continue
				}
				counters.observe(r)
				if r.Interrupted {
					cancelled.Store(true)
					pending.add(PendingCandidate{Index: c.Index, Lower: math.Max(c.Dist, r.Dist)})
					continue
				}
				if r.Aborted {
					continue
				}
				cfg.offer(c.Index, r.Dist)
				neighbors.insert(Result{Index: c.Index, Dist: r.Dist})
			}
		}()
	}

	stats := &QueryStats{Workers: workers}
	for {
		if faulted.Load() {
			break
		}
		if cfg.cancelled() {
			cancelled.Store(true)
			break
		}
		cfg.publish(cfg.tighten(threshold.Load()))
		c, ok := ranking.Next()
		if !ok {
			break
		}
		stats.Pulled++
		if c.Dist > cfg.tighten(threshold.Load()) {
			// Lower-bounding filter in ascending order: every
			// remaining item is at least this far away, and the
			// threshold only tightens.
			break
		}
		if cfg.pred != nil && !cfg.pred(c.Index) {
			continue
		}
		dispatch <- c
	}
	close(dispatch)
	wg.Wait()

	if err := faulted.Err(); err != nil {
		// A refinement panicked: the worker pool drained and exited
		// cleanly, the query fails with the captured panic as its
		// error, and no other query sharing the snapshot is affected.
		return nil, nil, nil, err
	}
	counters.flush(stats)
	stats.Cancelled = cancelled.Load()
	return neighbors.results, pending.list, stats, nil
}

// ParallelRange is the concurrent form of the range query: candidates
// whose filter distance is within eps are refined by up to `workers`
// goroutines; items with exact distance <= eps are collected and
// sorted by (distance, index) as in the sequential algorithm. The
// result is identical to Range's.
func ParallelRange(ranking Ranking, refine func(index int) float64, eps float64, workers int) ([]Result, *QueryStats, error) {
	return ParallelRangeBounded(ranking, adaptRefine(refine), eps, workers)
}

// ParallelRangeBounded is ParallelRange with a threshold-aware
// refinement; eps is every candidate's abort bound, as in RangeBounded,
// so results are identical to the sequential Range's.
func ParallelRangeBounded(ranking Ranking, refine BoundedRefine, eps float64, workers int) ([]Result, *QueryStats, error) {
	return parallelRangeBoundedCore(ranking, refine, eps, workers, knnConfig{})
}

// parallelRangeBoundedCore is the worker-pool range core. A cancelled
// query returns the (individually certified) results confirmed so far.
func parallelRangeBoundedCore(ranking Ranking, refine BoundedRefine, eps float64, workers int, cfg knnConfig) ([]Result, *QueryStats, error) {
	if eps < 0 {
		return nil, nil, fmt.Errorf("search: eps = %g, want >= 0", eps)
	}
	if workers <= 1 {
		return rangeBoundedCore(ranking, refine, eps, cfg)
	}
	var (
		mu        sync.Mutex
		results   []Result
		counters  parallelCounters
		cancelled atomic.Bool
		faulted   fault
	)
	cfg.publish(eps)
	dispatch := make(chan Candidate, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range dispatch {
				if faulted.Load() {
					continue
				}
				if cfg.cancelled() {
					cancelled.Store(true)
					continue
				}
				r, rerr := callRefine(refine, c.Index, eps)
				if rerr != nil {
					faulted.record(rerr)
					continue
				}
				counters.observe(r)
				if r.Interrupted {
					cancelled.Store(true)
					continue
				}
				if !r.Aborted && r.Dist <= eps {
					mu.Lock()
					results = append(results, Result{Index: c.Index, Dist: r.Dist})
					mu.Unlock()
				}
			}
		}()
	}

	stats := &QueryStats{Workers: workers}
	for {
		if faulted.Load() {
			break
		}
		if cfg.cancelled() {
			cancelled.Store(true)
			break
		}
		c, ok := ranking.Next()
		if !ok {
			break
		}
		stats.Pulled++
		if c.Dist > eps {
			break
		}
		if cfg.pred != nil && !cfg.pred(c.Index) {
			continue
		}
		dispatch <- c
	}
	close(dispatch)
	wg.Wait()

	if err := faulted.Err(); err != nil {
		return nil, nil, err
	}
	counters.flush(stats)
	stats.Cancelled = cancelled.Load()
	sort.Slice(results, func(i, j int) bool {
		if results[i].Dist != results[j].Dist {
			return results[i].Dist < results[j].Dist
		}
		return results[i].Index < results[j].Index
	})
	return results, stats, nil
}
