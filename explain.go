package emdsearch

import (
	"context"
	"sort"
)

// FlowComponent is one mass movement of an optimal EMD flow: Mass
// units moved from query bin From to database bin To, contributing
// Cost = Mass * groundDistance(From, To) to the total distance.
type FlowComponent struct {
	From, To int
	Mass     float64
	Cost     float64
}

// Explanation decomposes one exact EMD into its dominant mass
// movements — the answer to "why did these two histograms match (or
// not)". Components are sorted by descending cost contribution;
// zero-cost movements (mass staying in place under a zero-diagonal
// ground distance) are omitted.
type Explanation struct {
	Distance   float64
	Components []FlowComponent
}

// Explain computes the exact EMD between q and indexed item i together
// with its optimal flow decomposition, keeping the topK costliest
// components (0 keeps all non-zero-cost components). For multimedia
// retrieval this names the bins — colors, tiles, spectral bands —
// whose displacement drives the dissimilarity. The decomposition runs
// one full solve with no interrupt hook, so ctx is checked on entry
// only.
func (e *Engine) Explain(ctx context.Context, q Histogram, i int, topK int) (*Explanation, error) {
	if err := e.validateQuery(q); err != nil {
		return nil, err
	}
	if n := e.Len(); i < 0 || i >= n {
		return nil, badQueryf("Explain(%d): index out of range [0, %d)", i, n)
	}
	if topK < 0 {
		return nil, badQueryf("topK = %d, want >= 0", topK)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dist, flow := e.dist.DistanceWithFlow(q, e.Vector(i))
	var comps []FlowComponent
	for from, row := range flow {
		for to, mass := range row {
			if mass <= 1e-12 {
				continue
			}
			cost := mass * e.cost[from][to]
			if cost <= 1e-12 {
				continue
			}
			comps = append(comps, FlowComponent{From: from, To: to, Mass: mass, Cost: cost})
		}
	}
	sort.Slice(comps, func(a, b int) bool {
		if comps[a].Cost != comps[b].Cost {
			return comps[a].Cost > comps[b].Cost
		}
		if comps[a].From != comps[b].From {
			return comps[a].From < comps[b].From
		}
		return comps[a].To < comps[b].To
	})
	if topK > 0 && len(comps) > topK {
		comps = comps[:topK]
	}
	return &Explanation{Distance: dist, Components: comps}, nil
}
