// Package search implements the lossless multistep query processing of
// Section 4 in Wichterich et al. (SIGMOD 2008): filter rankings with a
// getNext interface, the chained ranking of Figure 12 that stacks one
// lower-bounding filter on top of another, and the KNOP k-nearest-
// neighbor algorithm of Figure 11, which is optimal in the number of
// refinement computations for a given filter ranking. Range queries
// and an exact linear-scan baseline complete the query API.
package search

import (
	"math"

	"emdsearch/internal/heapx"
)

// Candidate is one database item together with a (filter) distance.
type Candidate struct {
	Index int
	Dist  float64
}

// Ranking yields database items in ascending order of a filter
// distance, one at a time (the paper's getNext method).
type Ranking interface {
	// Next returns the item with the smallest remaining filter
	// distance, or ok = false when the ranking is exhausted.
	Next() (c Candidate, ok bool)
}

// candBefore orders candidates by Dist, with Index as a deterministic
// tie-breaker; the rankings' heaps are min-heaps under it.
func candBefore(a, b Candidate) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Index < b.Index
}

// ScanRanking ranks all items by an eagerly computed distance slice.
// It is the bottom of every filter chain: the first filter is evaluated
// against the complete database (a sequential scan over the compact
// filter representation), and the heap then yields items incrementally.
type ScanRanking struct {
	h *heapx.Heap[Candidate]
}

// NewScanRanking builds a ranking over dists[i] for items 0..len-1.
func NewScanRanking(dists []float64) *ScanRanking {
	items := make([]Candidate, len(dists))
	for i, d := range dists {
		items[i] = Candidate{Index: i, Dist: d}
	}
	return &ScanRanking{h: heapx.From(items, candBefore)}
}

// Next pops the closest remaining item.
func (r *ScanRanking) Next() (Candidate, bool) {
	if r.h.Len() == 0 {
		return Candidate{}, false
	}
	return r.h.Pop(), true
}

// ChainedRanking implements Figure 12 of the paper: it consumes a base
// ranking ordered by a filter distance f1 and re-ranks by a second
// filter distance f2, evaluating f2 lazily — items are pulled from the
// base only while the base's next f1 value could still beat the best
// pending value.
//
// Each emitted candidate carries max(f1, f2), which is itself a lower
// bound whenever both filters are. Taking the maximum makes the chain
// correct for *any* pair of lower bounds — f2 need not dominate f1
// item-wise (two unrelated lower bounds, neither of which dominates
// the other) — and is a free tightening when it does.
//
// The chain is threshold-aware. Its consumer (the KNOP and range loops)
// publishes the query's live pruning threshold in *bound before each
// Next; the chain hands the value it reads to second as abortAbove, and
// does not call second at all for an item whose f1 already exceeds it.
// An item evaluated against bound b therefore stores either its true
// max(f1, f2) or some v with b < v <= max(f1, f2). Thresholds only
// fall, so such a v exceeds every later threshold too: the consumer
// stops at that item exactly as it would at the true value, and every
// item it goes on to refine carries its true value. Emission stays in
// nondecreasing stored order and every stored value lower-bounds what
// f2 lower-bounds, so results — and the consumer's Pulled and
// Refinements counters — are those of the threshold-oblivious chain.
type ChainedRanking struct {
	base     Ranking
	second   func(index int, abortAbove float64) (d float64, aborted bool)
	bound    *float64
	pending  *heapx.Heap[Candidate]
	lookNext Candidate
	lookOK   bool
	primed   bool
	// Evaluations counts the items taken from the base and put through
	// the second filter; the experiment harness reads it after each
	// query.
	Evaluations int
	// Aborted counts those of them that were answered by a bound
	// instead of a finished evaluation: second reported an early stop,
	// or was not called because f1 alone exceeded the threshold.
	Aborted int
}

// NewChainedRanking chains second on top of base. second must be a
// lower bound of whatever distance the consumer refines with, and must
// dominate the base's filter distance item-wise for the ranking to be
// correctly ordered. It receives the live threshold as abortAbove and
// returns the filter distance, or — with aborted set — a certified
// lower bound on it that exceeds abortAbove. bound is the cell the
// consumer publishes that threshold in; nil means no consumer does
// (abortAbove is always +Inf and the chain never skips).
func NewChainedRanking(base Ranking, second func(index int, abortAbove float64) (d float64, aborted bool), bound *float64) *ChainedRanking {
	return &ChainedRanking{base: base, second: second, bound: bound, pending: heapx.New(0, candBefore)}
}

// Next returns the remaining item with the smallest second-filter
// distance.
func (r *ChainedRanking) Next() (Candidate, bool) {
	if !r.primed {
		r.lookNext, r.lookOK = r.base.Next()
		r.primed = true
	}
	abortAbove := math.Inf(1)
	if r.bound != nil {
		abortAbove = *r.bound
	}
	for {
		if r.pending.Len() > 0 {
			top := r.pending.Peek()
			if !r.lookOK || top.Dist <= r.lookNext.Dist {
				// No unseen item can have a smaller f2: their f1 (and
				// hence f2) is at least the base's next distance.
				return r.pending.Pop(), true
			}
		} else if !r.lookOK {
			return Candidate{}, false
		}
		c := r.lookNext
		r.lookNext, r.lookOK = r.base.Next()
		r.Evaluations++
		if c.Dist > abortAbove {
			r.Aborted++
		} else {
			d, aborted := r.second(c.Index, abortAbove)
			if aborted {
				r.Aborted++
			}
			if d > c.Dist {
				c.Dist = d
			}
		}
		r.pending.Push(c)
	}
}
