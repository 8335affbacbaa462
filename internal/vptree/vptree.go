// Package vptree implements a vantage-point tree, the classic metric
// index the multimedia-retrieval literature compares filter-and-refine
// architectures against. It answers exact k-NN queries for any metric
// distance using triangle-inequality pruning.
//
// The EMD is a metric whenever its ground distance is one, so a
// VP-tree over the full-dimensional EMD is a valid — and historically
// popular — alternative to the paper's reduction filters. The Fig23
// extension experiment contrasts the two: metric pruning attacks the
// number of distance computations from geometry alone, while the
// paper's filters attack the *cost* of each pruning test; on
// high-dimensional EMDs with concentrated distances the filter chain
// wins decisively. The engine does not use it: its dual-potential scan
// beat a VP-tree over the reduced EMD at every corpus size measured
// (DESIGN.md §13).
package vptree

import (
	"fmt"
	"math/rand"
	"sort"

	"emdsearch/internal/heapx"
)

// DistFunc is a metric distance between two indexed items.
type DistFunc func(i, j int) float64

// QueryDistFunc is a metric distance between the query and item i.
type QueryDistFunc func(i int) float64

// Tree is a vantage-point tree over integer item ids.
type Tree struct {
	root *node
	n    int
}

type node struct {
	vantage int     // item index of the vantage point, -1 for leaves
	radius  float64 // median distance of the subtree items to vantage
	inside  *node   // items with d(vantage, x) <= radius
	outside *node   // items with d(vantage, x) > radius
	bucket  []int32 // the items of a leaf
}

// leafSize is the bucket size below which subtrees are stored flat.
const leafSize = 8

// Build constructs a VP-tree over items 0..n-1 with the given pairwise
// metric. dist is called O(n log n) times; rng picks vantage points.
func Build(n int, dist DistFunc, rng *rand.Rand) (*Tree, error) {
	if n < 0 {
		return nil, fmt.Errorf("vptree: negative size %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("vptree: nil rng")
	}
	if dist == nil {
		return nil, fmt.Errorf("vptree: nil distance")
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	b := &builder{dist: dist, rng: rng, d: make([]float64, n), order: make([]int, n)}
	return &Tree{root: b.build(ids), n: n}, nil
}

// builder holds one build's inputs and the scratch every level shares.
type builder struct {
	dist  DistFunc
	rng   *rand.Rand
	d     []float64
	order []int
	tmp   []int32
}

// build constructs the subtree over ids, which it reorders in place: a
// random vantage first, then the rest by their distance to it, the
// lower half (median included) inside.
func (b *builder) build(ids []int32) *node {
	if len(ids) == 0 {
		return nil
	}
	if len(ids) <= leafSize {
		return &node{vantage: -1, bucket: ids}
	}
	vi := b.rng.Intn(len(ids))
	ids[0], ids[vi] = ids[vi], ids[0]
	vantage, rest := int(ids[0]), ids[1:]
	d, order := b.d[:len(rest)], b.order[:len(rest)]
	for i, id := range rest {
		d[i] = b.dist(vantage, int(id))
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return d[order[x]] < d[order[y]] })
	b.tmp = append(b.tmp[:0], rest...)
	for j, oi := range order {
		rest[j] = b.tmp[oi]
	}
	in := len(rest)/2 + 1
	nd := &node{vantage: vantage, radius: d[order[in-1]]}
	nd.inside = b.build(rest[:in])
	nd.outside = b.build(rest[in:])
	return nd
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.n }

// Result is one query answer.
type Result struct {
	Index int
	Dist  float64
}

// Stats reports the work of one query.
type Stats struct {
	// DistanceCalls counts evaluations of the query distance — the
	// quantity metric indexing tries to minimize.
	DistanceCalls int
}

// KNN returns the k nearest items to the query described by qdist,
// exactly, using triangle-inequality pruning. Results are sorted by
// distance, then index.
func (t *Tree) KNN(qdist QueryDistFunc, k int) ([]Result, *Stats, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("vptree: k = %d, want >= 1", k)
	}
	stats := &Stats{}
	best := heapx.New(k+1, func(a, b Result) bool { return a.Dist > b.Dist })
	tau := func() float64 {
		if best.Len() < k {
			return inf
		}
		return best.Peek().Dist
	}
	add := func(idx int, d float64) {
		best.Push(Result{Index: idx, Dist: d})
		if best.Len() > k {
			best.Pop()
		}
	}
	var visit func(nd *node)
	visit = func(nd *node) {
		if nd == nil {
			return
		}
		if nd.vantage < 0 {
			for _, it := range nd.bucket {
				stats.DistanceCalls++
				add(int(it), qdist(int(it)))
			}
			return
		}
		stats.DistanceCalls++
		dv := qdist(nd.vantage)
		add(nd.vantage, dv)
		// Visit the more promising side first; prune with the
		// triangle inequality: inside can contain items closer than
		// tau only if dv - radius <= tau, outside only if
		// radius - dv <= tau.
		if dv <= nd.radius {
			visit(nd.inside)
			if dv+tau() >= nd.radius {
				visit(nd.outside)
			}
		} else {
			visit(nd.outside)
			if dv-tau() <= nd.radius {
				visit(nd.inside)
			}
		}
	}
	visit(t.root)

	out := make([]Result, 0, best.Len())
	for best.Len() > 0 {
		out = append(out, best.Pop())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Index < out[j].Index
	})
	return out, stats, nil
}

var inf = 1e308
