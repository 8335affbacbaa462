package search

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// RangeIDsStats reports the work of a RangeIDs query.
type RangeIDsStats struct {
	Pulled int
	// AcceptedByUpper counts results certified by the upper bound
	// alone — no exact EMD was computed for them.
	AcceptedByUpper int
	// Refinements counts exact computations (only for objects whose
	// interval straddles eps).
	Refinements int
	// RefinesAborted counts refinements the bounded solver abandoned
	// early on a certified lower bound above eps; 0 when the legacy
	// unbounded refinement is in use.
	RefinesAborted int
	// RefineRows and RefineCols accumulate the reduced problem shapes
	// over all refinements, as in QueryStats.
	RefineRows, RefineCols int64
	// Workers is the number of goroutines that served the refinement
	// stage (1 on the sequential path).
	Workers int
	// Cancelled reports the query stopped early on its cancel flag;
	// the returned ids are then a certified subset of the full answer.
	Cancelled bool
}

func (s *RangeIDsStats) observe(r Refinement) {
	s.Refinements++
	s.RefineRows += int64(r.Rows)
	s.RefineCols += int64(r.Cols)
	if r.Aborted {
		s.RefinesAborted++
	}
}

// RangeIDs answers a membership range query — *which* objects lie
// within eps — using a lower-bound ranking plus an upper-bound
// function. Objects with upper bound <= eps are accepted without any
// exact computation; objects with lower bound > eps are rejected
// wholesale (the ranking stops there); only objects whose envelope
// straddles eps are refined. For result sets where distances are not
// needed (counting, filtering, candidate generation) this cuts exact
// EMD work to the boundary cases only. The returned ids are exact —
// the same set an exhaustive scan would produce — in ascending order.
func RangeIDs(ranking Ranking, refine, upper func(index int) float64, eps float64) ([]int, *RangeIDsStats, error) {
	if refine == nil {
		return nil, nil, fmt.Errorf("search: nil refine")
	}
	return RangeIDsBounded(ranking, adaptRefine(refine), upper, eps, 1, nil)
}

// RangeIDsBounded is RangeIDs with a threshold-aware refinement and an
// optional worker pool: straddling candidates are refined with eps as
// the abort bound (an aborted solve certifies the object is out), by
// up to `workers` goroutines when workers > 1. The upper-bound
// function always runs on the calling goroutine — engine upper bounds
// draw from a per-goroutine pool and are not safe to share — so only
// the exact solves fan out. cancel, when non-nil, stops the query
// early: confirmed ids are returned with Cancelled=true (each id is
// individually certified, so the subset is sound). The id set is
// identical to RangeIDs' when the query runs to completion.
func RangeIDsBounded(ranking Ranking, refine BoundedRefine, upper func(index int) float64, eps float64, workers int, cancel *atomic.Bool) ([]int, *RangeIDsStats, error) {
	if eps < 0 {
		return nil, nil, fmt.Errorf("search: eps = %g, want >= 0", eps)
	}
	if upper == nil {
		return nil, nil, fmt.Errorf("search: nil upper bound")
	}
	if refine == nil {
		return nil, nil, fmt.Errorf("search: nil refine")
	}
	stats := &RangeIDsStats{Workers: 1}
	cancelled := func() bool { return cancel != nil && cancel.Load() }
	var ids []int

	if workers <= 1 {
		for {
			if cancelled() {
				stats.Cancelled = true
				break
			}
			c, ok := ranking.Next()
			if !ok {
				break
			}
			stats.Pulled++
			if c.Dist > eps {
				break // lower bound: every remaining object is out
			}
			if ub := upper(c.Index); ub <= eps {
				stats.AcceptedByUpper++
				ids = append(ids, c.Index)
				continue
			}
			r, rerr := callRefine(refine, c.Index, eps)
			if rerr != nil {
				return nil, nil, rerr
			}
			stats.observe(r)
			if r.Interrupted {
				stats.Cancelled = true
				break
			}
			if !r.Aborted && r.Dist <= eps {
				ids = append(ids, c.Index)
			}
		}
		sort.Ints(ids)
		return ids, stats, nil
	}

	stats.Workers = workers
	var (
		mu       sync.Mutex
		counters parallelCounters
		stopped  atomic.Bool
		faulted  fault
	)
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
				if cancelled() {
					stopped.Store(true)
					continue
				}
				r, rerr := callRefine(refine, c.Index, eps)
				if rerr != nil {
					faulted.record(rerr)
					continue
				}
				counters.observe(r)
				if r.Interrupted {
					stopped.Store(true)
					continue
				}
				if !r.Aborted && r.Dist <= eps {
					mu.Lock()
					ids = append(ids, c.Index)
					mu.Unlock()
				}
			}
		}()
	}
	for {
		if faulted.Load() {
			break
		}
		if cancelled() {
			stopped.Store(true)
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
		// The upper bound stays on the feeder goroutine; only the
		// boundary cases cross into the pool.
		if ub := upper(c.Index); ub <= eps {
			stats.AcceptedByUpper++
			mu.Lock()
			ids = append(ids, c.Index)
			mu.Unlock()
			continue
		}
		dispatch <- c
	}
	close(dispatch)
	wg.Wait()

	if err := faulted.Err(); err != nil {
		return nil, nil, err
	}
	stats.Refinements = int(atomic.LoadInt64(&counters.refined))
	stats.RefinesAborted = int(atomic.LoadInt64(&counters.aborted))
	stats.RefineRows = atomic.LoadInt64(&counters.rows)
	stats.RefineCols = atomic.LoadInt64(&counters.cols)
	stats.Cancelled = stopped.Load()
	sort.Ints(ids)
	return ids, stats, nil
}
