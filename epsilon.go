package emdsearch

import (
	"context"
	"fmt"

	"emdsearch/internal/stats"
)

// EpsilonForCount returns a range radius guaranteed to make
// Range(q, eps) return at least `count` live results, computed from
// reduced representations only: it is the count-th smallest
// *upper-bound* distance (max-cost reduced EMD) from q to the live
// database. Because the upper bound dominates the exact EMD, at least
// `count` live objects lie within the returned radius; soft-deleted
// items are excluded from the distribution, so deletions can never
// make the radius under-deliver. Typical use is result-size-targeted
// range search ("give me roughly fifty matches") without guessing in
// distance units. Requires a built reduction. Safe for concurrent use;
// the reduced database vectors and the upper-bound cost matrix come
// precomputed from the engine snapshot. The upper-bound scan checks ctx
// between items and returns ctx.Err() on expiry.
func (e *Engine) EpsilonForCount(ctx context.Context, q Histogram, count int) (float64, error) {
	if err := e.validateQuery(q); err != nil {
		return 0, err
	}
	s, err := e.snapshot()
	if err != nil {
		return 0, err
	}
	live := len(s.vectors) - len(s.deleted)
	if count < 1 || count > live {
		return 0, badQueryf("count %d out of range [1, %d]", count, live)
	}
	red := s.plan.finest()
	if red == nil {
		return 0, fmt.Errorf("emdsearch: EpsilonForCount needs a built reduction (set ReducedDims and call Build)")
	}
	qr := red.Apply(q)
	uppers := make([]float64, 0, live)
	buf := make([]float64, s.reducedCols.Dims())
	for i := range s.vectors {
		if s.deleted[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		uppers = append(uppers, s.redUpper.DistanceReduced(qr, s.reducedCols.Gather(i, buf)))
	}
	d, err := stats.NewDistribution(uppers)
	if err != nil {
		return 0, err
	}
	return d.KthSmallest(count), nil
}

// DistanceDistribution summarizes the exact EMDs from q to a sample of
// up to sampleSize live database objects (deterministic stride
// sampling over the live set; soft-deleted items are never sampled,
// and the stride adapts so deletions do not shrink the sample below
// min(sampleSize, live)). Useful for choosing range radii and judging
// workload difficulty; for guaranteed result counts prefer
// EpsilonForCount, which needs no exact EMDs at all. The sampling loop
// checks ctx between items and returns ctx.Err() on expiry.
func (e *Engine) DistanceDistribution(ctx context.Context, q Histogram, sampleSize int) (*stats.Distribution, error) {
	if err := e.validateQuery(q); err != nil {
		return nil, err
	}
	if sampleSize < 1 {
		return nil, badQueryf("sample size %d, want >= 1", sampleSize)
	}
	s, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	liveIdx := make([]int, 0, len(s.vectors))
	for i := range s.vectors {
		if !s.deleted[i] {
			liveIdx = append(liveIdx, i)
		}
	}
	if len(liveIdx) == 0 {
		return nil, fmt.Errorf("emdsearch: no live items to sample")
	}
	stride := len(liveIdx) / sampleSize
	if stride < 1 {
		stride = 1
	}
	var dists []float64
	for j := 0; j < len(liveIdx) && len(dists) < sampleSize; j += stride {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dists = append(dists, s.dist.Distance(q, s.vectors[liveIdx[j]]))
	}
	return stats.NewDistribution(dists)
}
