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

	// rows holds every item's distances to its ancestor vantages, one
	// row of stride depth per item: the item at build position p (the
	// vantage of an internal node, or a bucket item) keeps its distance
	// to the vantage at tree depth a in rows[p·depth + a], for a below
	// the depth of its node. The build computes these distances anyway
	// to partition each subtree; keeping them lets the stream bound an
	// item by every ancestor pivot, not just its parent.
	rows  []float64
	depth int
}

type node struct {
	vantage int     // item index of the vantage point, -1 for leaves
	radius  float64 // median distance of the subtree items to vantage

	// anc is the annulus of the whole subtree (vantage included) around
	// every ancestor vantage, root first: the subtree's items all lie
	// within [anc[2a], anc[2a+1]] of the vantage at depth a. Its length
	// is twice the node's depth.
	anc []float64

	inside  *node // items with d(vantage, x) <= radius
	outside *node // items with d(vantage, x) > radius

	// rows are the ancestor rows of the node's items in the tree's
	// slab (stride Tree.depth, depth(node) entries used per row): the
	// vantage's one row at an internal node, one row per bucket item at
	// a leaf.
	rows []float64
	// bucket holds the items of small leaves.
	bucket []int32
}

// level returns the node's depth, the number of its ancestors.
func (nd *node) level() int { return len(nd.anc) / 2 }

// width returns the number of items the node holds rows for: its
// vantage, or its bucket.
func (nd *node) width() int {
	if nd.vantage < 0 {
		return len(nd.bucket)
	}
	return 1
}

// leafSize is the bucket size below which subtrees are stored flat.
const leafSize = 8

// split returns the item counts of the inside and outside children of
// an internal node over m items: the vantage, then the median split of
// the rest, whose lower half (median included) goes inside.
func split(m int) (in, out int) {
	mid := (m - 1) / 2
	return mid + 1, m - 2 - mid
}

// treeDepth returns the depth of the deepest node of a tree over m
// items. The split sizes depend on m alone and the inside child is
// never the smaller, so it follows the inside chain.
func treeDepth(m int) int {
	d := 0
	for m > leafSize {
		m, _ = split(m)
		d++
	}
	return d
}

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
	depth := treeDepth(len(ids))
	t := &Tree{n: len(ids), depth: depth, rows: make([]float64, len(ids)*depth)}
	b := &buildState{t: t, ids: ids, dist: dist, rng: rng, order: make([]int, len(ids))}
	t.root = b.build(0, len(ids), 0)
	return t, nil
}

// buildState holds one build's inputs and its working buffers, shared
// by every level: ids and the tree's rows are partitioned in place, so
// an item's row moves with it and each level writes one more entry.
type buildState struct {
	t      *Tree
	ids    []int32
	dist   DistFunc
	rng    *rand.Rand
	order  []int
	idTmp  []int32
	rowTmp []float64
}

// row returns the full-stride ancestor row of the item at build
// position p.
func (b *buildState) row(p int) []float64 {
	D := b.t.depth
	return b.t.rows[p*D : p*D+D]
}

// build constructs the subtree over build positions [lo, hi) at depth
// level; the rows of those items hold their distances to the level
// ancestor vantages above.
func (b *buildState) build(lo, hi, level int) *node {
	if lo == hi {
		return nil
	}
	t := b.t
	t.nodes++
	nd := &node{anc: make([]float64, 2*level)}
	if hi-lo <= leafSize {
		nd.vantage = -1
		nd.bucket = b.ids[lo:hi]
		nd.rows = t.rows[lo*t.depth : hi*t.depth]
		t.bound(nd)
		return nd
	}
	// Choose a random vantage and swap it, row and all, to the front.
	vi := lo + b.rng.Intn(hi-lo)
	b.ids[lo], b.ids[vi] = b.ids[vi], b.ids[lo]
	rv, ri := b.row(lo)[:level], b.row(vi)[:level]
	for a := range rv {
		rv[a], ri[a] = ri[a], rv[a]
	}
	vantage := int(b.ids[lo])

	// Record every other item's distance to the vantage as its row
	// entry at this level, then partition by the median of it.
	rest, m, w := lo+1, hi-lo-1, level+1
	for p := rest; p < hi; p++ {
		b.row(p)[level] = b.dist(vantage, int(b.ids[p]))
	}
	order := b.order[:m]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return b.row(rest + order[x])[level] < b.row(rest + order[y])[level] })
	b.idTmp = append(b.idTmp[:0], b.ids[rest:hi]...)
	b.rowTmp = b.rowTmp[:0]
	for p := rest; p < hi; p++ {
		b.rowTmp = append(b.rowTmp, b.row(p)[:w]...)
	}
	for j, oi := range order {
		b.ids[rest+j] = b.idTmp[oi]
		copy(b.row(rest+j), b.rowTmp[oi*w:oi*w+w])
	}
	in, _ := split(hi - lo)
	nd.vantage = vantage
	nd.radius = b.row(rest + in - 1)[level]
	nd.rows = b.row(lo)
	nd.inside = b.build(rest, rest+in, w)
	nd.outside = b.build(rest+in, hi, w)
	t.bound(nd)
	return nd
}

// row returns the ancestor row of a node's i-th item: the vantage of
// an internal node (i = 0) or a bucket item of a leaf.
func (t *Tree) row(nd *node, i int) []float64 {
	return nd.rows[i*t.depth : i*t.depth+nd.level()]
}

// bound sets nd.anc from the rows of the node's own items and the
// annuli of its children, which must be bound already.
func (t *Tree) bound(nd *node) {
	anc := nd.anc
	for a := 0; a < len(anc); a += 2 {
		anc[a], anc[a+1] = math.Inf(1), math.Inf(-1)
	}
	widen := func(a int, lo, hi float64) {
		anc[2*a] = min(anc[2*a], lo)
		anc[2*a+1] = max(anc[2*a+1], hi)
	}
	for i := range nd.width() {
		for a, x := range t.row(nd, i) {
			widen(a, x, x)
		}
	}
	for _, c := range [2]*node{nd.inside, nd.outside} {
		if c != nil {
			for a := 0; a < nd.level(); a++ {
				widen(a, c.anc[2*a], c.anc[2*a+1])
			}
		}
	}
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
