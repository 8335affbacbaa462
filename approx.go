package emdsearch

import (
	"context"
	"fmt"
	"math"

	"emdsearch/internal/search"
)

// ApproxResult is one approximate answer: a database item with a
// guaranteed interval [Lower, Upper] containing its exact EMD to the
// query.
type ApproxResult struct {
	Index        int
	Lower, Upper float64
}

// ApproxCertificate bounds the quality of an ApproxKNN answer: the
// true k-th nearest distance lies in [LowerK, UpperK] and every
// returned item's exact distance is at most UpperK. Pulled counts the
// candidates examined; no full-dimensional transportation LP was
// solved for any of them.
type ApproxCertificate struct {
	LowerK, UpperK float64
	Pulled         int
}

// ApproxKNN answers a k-NN query approximately but with guarantees,
// without solving a single full-dimensional transportation LP: the
// optimal (min-cost) reduced EMD lower-bounds each distance from the
// precomputed reduced vectors, and a greedy feasible flow on the
// original vectors (O(d^2), roughly two orders of magnitude cheaper
// than the exact solver) upper-bounds it. Candidates are pulled in
// lower-bound order until the certificate closes; the k candidates
// with the smallest upper bounds are returned with their intervals.
// Requires a built reduction (ReducedDims > 0 and Build called). Safe
// for concurrent use: the reduced database vectors come precomputed
// from the engine snapshot and the greedy bound evaluator (whose
// scratch state is goroutine-private) is drawn from a pool. The method
// computes no exact EMDs — its per-candidate work is bounded — so ctx
// is checked between pipeline phases and once per item of the scan; on
// expiry it returns ctx.Err() with no partial answer.
func (e *Engine) ApproxKNN(ctx context.Context, q Histogram, k int) ([]ApproxResult, *ApproxCertificate, error) {
	if err := e.validate(Query{Hist: q, K: k}); err != nil {
		return nil, nil, err
	}
	s, err := e.snapshot()
	if err != nil {
		return nil, nil, err
	}
	red := s.plan.finest()
	if red == nil {
		return nil, nil, fmt.Errorf("emdsearch: ApproxKNN needs a built reduction (set ReducedDims and call Build)")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	upper := s.greedyUpper()
	defer s.putGreedy(upper)
	qr := red.Apply(q)
	lowers := make([]float64, len(s.vectors))
	buf := make([]float64, s.reducedCols.Dims())
	for i := range s.vectors {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if s.deleted[i] {
			lowers[i] = math.Inf(1)
			continue
		}
		lowers[i] = s.reduced.DistanceReduced(qr, s.reducedCols.Gather(i, buf))
	}
	intervals, cert, err := search.ApproxKNN(search.NewScanRanking(lowers), func(i int) float64 {
		if s.deleted[i] {
			return math.Inf(1)
		}
		return upper.Distance(q, s.vectors[i])
	}, k)
	if err != nil {
		return nil, nil, err
	}
	out := make([]ApproxResult, len(intervals))
	for i, iv := range intervals {
		out[i] = ApproxResult{Index: iv.Index, Lower: iv.Lower, Upper: iv.Upper}
	}
	return out, &ApproxCertificate{LowerK: cert.LowerK, UpperK: cert.UpperK, Pulled: cert.Pulled}, nil
}
