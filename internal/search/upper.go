package search

import (
	"fmt"
	"sort"

	"emdsearch/internal/heapx"
)

// Interval is a per-object distance interval [Lower, Upper] computed
// from reduced representations: the exact EMD is guaranteed to lie
// inside it.
type Interval struct {
	Index        int
	Lower, Upper float64
}

// Certificate bounds the quality of an approximate answer. The true
// k-th nearest distance lies in [LowerK, UpperK]; every returned
// object's exact distance is at most UpperK.
type Certificate struct {
	LowerK, UpperK float64
	// Pulled counts candidates examined (lower+upper evaluations);
	// no exact EMD is ever computed.
	Pulled int
}

// ApproxKNN answers a k-nearest-neighbor query *without a single
// exact EMD computation*, using a lower-bound ranking plus a matching
// upper-bound function (Engine.ApproxKNN pairs the reduced EMD with
// lb.GreedyUpper). It is the guaranteed-approximation counterpart to
// the exact multistep KNN, in the spirit of the upper-bound-based
// approximate EMD retrieval the paper cites as related work.
//
// Candidates are pulled in ascending lower-bound order while the next
// lower bound does not exceed the k-th smallest upper bound seen (U).
// At that point the true k nearest neighbors are all among the pulled
// candidates: the k objects attaining the k smallest upper bounds have
// exact distance <= U, and every unpulled object has exact distance
// >= lower bound > U. The k pulled candidates with the smallest upper
// bounds are returned with their intervals, plus a certificate:
// each returned object's exact distance is <= Certificate.UpperK, and
// the true k-th distance is >= Certificate.LowerK.
func ApproxKNN(ranking Ranking, upper func(index int) float64, k int) ([]Interval, *Certificate, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("search: k = %d, want >= 1", k)
	}
	if upper == nil {
		return nil, nil, fmt.Errorf("search: nil upper bound")
	}
	var pulled []Interval
	// The k smallest upper bounds seen, the largest of them on top.
	kUppers := heapx.New(0, func(a, b float64) bool { return a > b })
	for {
		c, ok := ranking.Next()
		if !ok {
			break
		}
		if kUppers.Len() == k && c.Dist > kUppers.Peek() {
			// All unseen candidates are at least this far: the true
			// top-k is now certainly among the pulled ones.
			break
		}
		ub := upper(c.Index)
		pulled = append(pulled, Interval{Index: c.Index, Lower: c.Dist, Upper: ub})
		kUppers.Push(ub)
		if kUppers.Len() > k {
			kUppers.Pop()
		}
	}
	if len(pulled) == 0 {
		return nil, &Certificate{}, nil
	}

	// Select the k intervals with the smallest upper bounds.
	sort.Slice(pulled, func(i, j int) bool {
		if pulled[i].Upper != pulled[j].Upper {
			return pulled[i].Upper < pulled[j].Upper
		}
		return pulled[i].Index < pulled[j].Index
	})
	kk := k
	if kk > len(pulled) {
		kk = len(pulled)
	}
	results := make([]Interval, kk)
	copy(results, pulled[:kk])

	// Certificate: k-th smallest lower bound and upper bound over the
	// pulled set.
	lowers := make([]float64, len(pulled))
	for i, iv := range pulled {
		lowers[i] = iv.Lower
	}
	sort.Float64s(lowers)
	cert := &Certificate{
		LowerK: lowers[kk-1],
		UpperK: results[kk-1].Upper,
		Pulled: len(pulled),
	}
	// Results are presented in ascending upper-bound order already.
	return results, cert, nil
}
