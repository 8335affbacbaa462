// Package vptree implements a vantage-point tree, the classic metric
// index the multimedia-retrieval literature compares filter-and-refine
// architectures against. It answers exact k-NN queries for any metric
// distance using triangle-inequality pruning, and exposes a
// best-first Stream that emits items in nondecreasing lower-bound
// order for use as an incremental candidate generator.
//
// The EMD is a metric whenever its ground distance is one, so a
// VP-tree over the full-dimensional EMD is a valid — and historically
// popular — alternative to the paper's reduction filters. The Fig23
// extension experiment contrasts the two: metric pruning attacks the
// number of distance computations from geometry alone, while the
// paper's filters attack the *cost* of each pruning test; on
// high-dimensional EMDs with concentrated distances the filter chain
// wins decisively. The engine combines both: a VP-tree over the
// *reduced* EMD prunes the filter stage itself.
package vptree

import (
	"fmt"
	"math"
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
	root  *node
	n     int
	nodes int
}

type node struct {
	vantage int     // item index of the vantage point, -1 for leaves
	radius  float64 // median distance of the subtree items to vantage

	// Subtree annuli to this node's vantage, recorded at build time
	// from distances the construction computes anyway: the inside
	// (resp. outside) child's items all lie within [ilo, ihi] (resp.
	// [olo, ohi]) of the vantage. They give the best-first stream a
	// tighter child bound than the single median radius.
	ilo, ihi float64
	olo, ohi float64

	// Subtree annulus to the PARENT's vantage (covering this node's
	// entire subtree, vantage included) and the vantage's own distance
	// to it; NaN at the root. No traversal reads them. They are built,
	// persisted and restored only to keep the Flat wire format fixed:
	// a snapshot must stay byte-identical to one written by releases
	// that still had the four-point bound, and such a release reading
	// it prunes with these values, so they must stay correct.
	plo, phi float64
	dvp      float64

	inside  *node // items with d(vantage, x) <= radius
	outside *node // items with d(vantage, x) > radius

	// bucket holds the items of small leaves (including the vantage);
	// bdist holds each bucket item's distance to the parent vantage
	// (nil when the whole tree is one leaf).
	bucket []int32
	bdist  []float64
}

// leafSize is the bucket size below which subtrees are stored flat.
const leafSize = 8

// Build constructs a VP-tree over items 0..n-1 with the given pairwise
// metric. dist is called O(n log n) times; rng picks vantage points.
func Build(n int, dist DistFunc, rng *rand.Rand) (*Tree, error) {
	if n < 0 {
		return nil, fmt.Errorf("vptree: negative size %d", n)
	}
	items := make([]int32, n)
	for i := range items {
		items[i] = int32(i)
	}
	return BuildIDs(items, dist, rng)
}

// BuildIDs constructs a VP-tree over an explicit id set (e.g. the live
// items of a store with soft deletes). The slice is taken over and
// reordered in place.
func BuildIDs(ids []int32, dist DistFunc, rng *rand.Rand) (*Tree, error) {
	if rng == nil {
		return nil, fmt.Errorf("vptree: nil rng")
	}
	if dist == nil {
		return nil, fmt.Errorf("vptree: nil distance")
	}
	t := &Tree{n: len(ids)}
	t.root = t.build(ids, nil, dist, rng)
	return t, nil
}

// build constructs the subtree over items; pdists[i] is the distance
// of items[i] to the parent's vantage (nil at the root).
func (t *Tree) build(items []int32, pdists []float64, dist DistFunc, rng *rand.Rand) *node {
	if len(items) == 0 {
		return nil
	}
	t.nodes++
	nd := &node{plo: math.NaN(), phi: math.NaN(), dvp: math.NaN()}
	if pdists != nil {
		nd.plo, nd.phi = minMax(pdists)
	}
	if len(items) <= leafSize {
		nd.vantage = -1
		nd.bucket = items
		if pdists != nil {
			nd.bdist = pdists
		}
		return nd
	}
	// Choose a random vantage and swap it to the front.
	vi := rng.Intn(len(items))
	items[0], items[vi] = items[vi], items[0]
	if pdists != nil {
		pdists[0], pdists[vi] = pdists[vi], pdists[0]
		nd.dvp = pdists[0]
	}
	vantage := int(items[0])
	rest := items[1:]

	// Partition the rest by the median distance to the vantage.
	dists := make([]float64, len(rest))
	for i, it := range rest {
		dists[i] = dist(vantage, int(it))
	}
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	mid := len(rest) / 2
	radius := dists[order[mid]]

	insideItems := make([]int32, 0, mid+1)
	insideDists := make([]float64, 0, mid+1)
	outsideItems := make([]int32, 0, len(rest)-mid)
	outsideDists := make([]float64, 0, len(rest)-mid)
	for _, oi := range order {
		if dists[oi] <= radius && len(insideItems) <= mid {
			insideItems = append(insideItems, rest[oi])
			insideDists = append(insideDists, dists[oi])
		} else {
			outsideItems = append(outsideItems, rest[oi])
			outsideDists = append(outsideDists, dists[oi])
		}
	}
	nd.vantage = vantage
	nd.radius = radius
	nd.ilo, nd.ihi = minMax(insideDists)
	nd.olo, nd.ohi = minMax(outsideDists)
	nd.inside = t.build(insideItems, insideDists, dist, rng)
	nd.outside = t.build(outsideItems, outsideDists, dist, rng)
	return nd
}

// minMax returns the minimum and maximum of a slice, or (0, 0) when it
// is empty (an empty child is never descended into, so the annulus is
// never read).
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.n }

// Nodes returns the total number of tree nodes — the denominator of
// the "subtrees pruned" statistic a best-first traversal reports.
func (t *Tree) Nodes() int { return t.nodes }

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
	NodesVisited  int
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
		stats.NodesVisited++
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
