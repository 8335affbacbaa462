package vptree

import (
	"errors"
	"fmt"
	"math"
)

// Flat is the tree's serializable form: nodes in preorder, children
// addressed by index. It contains item ids and stored distances only —
// restoring is meaningful only against the same item set and metric,
// which the engine enforces with a content fingerprint.
type Flat struct {
	N     int
	Nodes []FlatNode
}

// FlatNode is one serialized node. Vantage is -1 for leaves; Inside
// and Outside are node indices, -1 for absent children.
//
// Rows carries the node's ancestor rows: each item's distances to the
// vantages of the node's ancestors, root first — the vantage's one row
// at an internal node, one row per bucket item at a leaf. Everything
// else a traversal needs is derived from them. The remaining distance
// fields are what releases before Rows read instead; they are still
// written, derived from the rows, so those releases keep loading the
// file, and RestoreFlat rejects a file where they disagree with the
// rows. ILo/IHi (OLo/OHi) are the inside (outside) child's annulus
// around this node's vantage, PLo/PHi this subtree's annulus around
// the parent's vantage, DVP the vantage's distance to it, BDist each
// bucket item's; the parent fields are NaN at the root and DVP at
// leaves.
type FlatNode struct {
	Vantage            int32
	Radius             float64
	ILo, IHi, OLo, OHi float64
	PLo, PHi, DVP      float64
	Inside, Outside    int32
	Bucket             []int32
	BDist              []float64
	Rows               []float64
}

// ErrNoRows reports a flat form written before FlatNode.Rows existed.
// It carries no ancestor rows, so it cannot be restored; the caller
// rebuilds the tree instead.
var ErrNoRows = errors.New("vptree: flat form has no ancestor rows")

// legacy returns the fields a flat node carried before Rows, derived
// from the restored or built node.
func (t *Tree) legacy(nd *node) FlatNode {
	nan := math.NaN()
	fn := FlatNode{Vantage: -1, Radius: nd.radius, PLo: nan, PHi: nan, DVP: nan, Inside: -1, Outside: -1}
	last := func(c *node) (lo, hi float64) {
		if c == nil {
			return 0, 0
		}
		return c.anc[len(c.anc)-2], c.anc[len(c.anc)-1]
	}
	if l := nd.level(); l > 0 {
		fn.PLo, fn.PHi = last(nd)
		if nd.vantage >= 0 {
			fn.DVP = t.row(nd, 0)[l-1]
		}
		for i := range nd.bucket {
			fn.BDist = append(fn.BDist, t.row(nd, i)[l-1])
		}
	}
	if nd.vantage >= 0 {
		fn.Vantage = int32(nd.vantage)
		fn.ILo, fn.IHi = last(nd.inside)
		fn.OLo, fn.OHi = last(nd.outside)
	}
	return fn
}

// Flatten serializes the tree structure.
func (t *Tree) Flatten() *Flat {
	f := &Flat{N: t.n}
	var walk func(n *node) int32
	walk = func(n *node) int32 {
		if n == nil {
			return -1
		}
		idx := int32(len(f.Nodes))
		f.Nodes = append(f.Nodes, FlatNode{})
		fn := t.legacy(n)
		// Copy buckets and rows: Flat owns its memory and must not
		// alias the live tree.
		if n.bucket != nil {
			fn.Bucket = append([]int32(nil), n.bucket...)
		}
		for i := range n.width() {
			fn.Rows = append(fn.Rows, t.row(n, i)...)
		}
		fn.Inside = walk(n.inside)
		fn.Outside = walk(n.outside)
		f.Nodes[idx] = fn
		return idx
	}
	walk(t.root)
	return f
}

// RestoreFlat rebuilds a tree from its serialized form after strict
// structural validation, for item ids in [0, n). Validation failures
// indicate corruption or version skew the snapshot layer's checksums
// missed, never a query-time panic. A form without ancestor rows fails
// with ErrNoRows.
func RestoreFlat(f *Flat, n int) (*Tree, error) {
	if f == nil {
		return nil, fmt.Errorf("vptree: nil flat form")
	}
	if f.N < 0 || f.N > n {
		return nil, fmt.Errorf("vptree: flat size %d out of range [0, %d]", f.N, n)
	}
	if len(f.Nodes) == 0 {
		if f.N != 0 {
			return nil, fmt.Errorf("vptree: %d items but no nodes", f.N)
		}
		return &Tree{}, nil
	}
	nodes := make([]*node, len(f.Nodes))
	refs := make([]int, len(f.Nodes))
	level := make([]int, len(f.Nodes))
	items, depth, rows := 0, 0, 0
	for i, fn := range f.Nodes {
		// The other distance fields must equal values derived from the
		// rows, checked below.
		if math.IsInf(fn.Radius, 0) {
			return nil, fmt.Errorf("vptree: node %d has an infinite radius", i)
		}
		nd := &node{vantage: -1, radius: fn.Radius}
		if fn.Vantage >= 0 {
			if int(fn.Vantage) >= n {
				return nil, fmt.Errorf("vptree: node %d vantage %d out of range [0, %d)", i, fn.Vantage, n)
			}
			if len(fn.Bucket) != 0 || len(fn.BDist) != 0 {
				return nil, fmt.Errorf("vptree: internal node %d carries a bucket", i)
			}
			if fn.Inside < 0 && fn.Outside < 0 {
				return nil, fmt.Errorf("vptree: internal node %d has no children", i)
			}
			nd.vantage = int(fn.Vantage)
			items++
		} else {
			if fn.Inside != -1 || fn.Outside != -1 {
				return nil, fmt.Errorf("vptree: leaf node %d has children", i)
			}
			for _, it := range fn.Bucket {
				if it < 0 || int(it) >= n {
					return nil, fmt.Errorf("vptree: leaf node %d item %d out of range [0, %d)", i, it, n)
				}
			}
			if len(fn.Bucket) == 0 {
				return nil, fmt.Errorf("vptree: leaf node %d holds no items", i)
			}
			items += len(fn.Bucket)
			nd.bucket = fn.Bucket
		}
		for _, c := range [2]int32{fn.Inside, fn.Outside} {
			if c == -1 {
				continue
			}
			if int(c) <= i || int(c) >= len(f.Nodes) {
				return nil, fmt.Errorf("vptree: node %d child %d violates preorder", i, c)
			}
			refs[c]++
			level[c] = level[i] + 1
		}
		// Preorder: every parent precedes its children, so level[i] is
		// final here.
		if want := nd.width() * level[i]; len(fn.Rows) != want {
			if i > 0 && len(fn.Rows) == 0 && noRows(f) {
				return nil, ErrNoRows
			}
			return nil, fmt.Errorf("vptree: node %d has %d row entries, want %d", i, len(fn.Rows), want)
		}
		for _, x := range fn.Rows {
			if !(x >= 0) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("vptree: node %d has invalid row entry %g", i, x)
			}
		}
		depth = max(depth, level[i])
		rows += nd.width()
		nodes[i] = nd
	}
	for i := 1; i < len(refs); i++ {
		if refs[i] != 1 {
			return nil, fmt.Errorf("vptree: node %d referenced %d times, want 1", i, refs[i])
		}
	}
	if items != f.N {
		return nil, fmt.Errorf("vptree: flat size %d, but %d items stored", f.N, items)
	}
	// A build over N items is exactly treeDepth(N) deep; a deeper form
	// would also make the row slab, of stride depth, grow beyond the
	// rows it carries.
	if depth > treeDepth(f.N) {
		return nil, fmt.Errorf("vptree: depth %d exceeds the %d of a tree over %d items", depth, treeDepth(f.N), f.N)
	}

	// Lay the rows out in one slab, link the nodes, then bound them
	// children first (reverse preorder) and check every derived legacy
	// field against the stored one.
	t := &Tree{n: f.N, nodes: len(f.Nodes), depth: depth, rows: make([]float64, rows*depth)}
	p := 0
	for i, fn := range f.Nodes {
		nd, l := nodes[i], level[i]
		w := nd.width()
		nd.rows = t.rows[p*depth : (p+w)*depth]
		for j := range w {
			copy(nd.rows[j*depth:j*depth+l], fn.Rows[j*l:])
		}
		p += w
		nd.anc = make([]float64, 2*l)
		if fn.Inside >= 0 {
			nd.inside = nodes[fn.Inside]
		}
		if fn.Outside >= 0 {
			nd.outside = nodes[fn.Outside]
		}
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		t.bound(nodes[i])
	}
	for i, fn := range f.Nodes {
		if err := checkLegacy(i, fn, t.legacy(nodes[i])); err != nil {
			return nil, err
		}
		// A present child's annulus feeds the stream's triangle keys, so
		// one on the wrong side of the median radius would push keys
		// above exact distances.
		if fn.Inside != -1 && !(fn.IHi <= fn.Radius) {
			return nil, fmt.Errorf("vptree: node %d inside annulus [%g, %g] not within radius %g", i, fn.ILo, fn.IHi, fn.Radius)
		}
		if fn.Outside != -1 && !(fn.Radius <= fn.OLo) {
			return nil, fmt.Errorf("vptree: node %d outside annulus [%g, %g] not beyond radius %g", i, fn.OLo, fn.OHi, fn.Radius)
		}
	}
	t.root = nodes[0]
	return t, nil
}

// noRows reports whether no node of f carries ancestor rows.
func noRows(f *Flat) bool {
	for _, fn := range f.Nodes {
		if len(fn.Rows) != 0 {
			return false
		}
	}
	return true
}

// checkLegacy compares a stored node's legacy distance fields with
// those derived from its rows.
func checkLegacy(i int, got, want FlatNode) error {
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	names := [7]string{"ILo", "IHi", "OLo", "OHi", "PLo", "PHi", "DVP"}
	g := [7]float64{got.ILo, got.IHi, got.OLo, got.OHi, got.PLo, got.PHi, got.DVP}
	w := [7]float64{want.ILo, want.IHi, want.OLo, want.OHi, want.PLo, want.PHi, want.DVP}
	for j := range g {
		if !same(g[j], w[j]) {
			return fmt.Errorf("vptree: node %d %s is %g, its rows give %g", i, names[j], g[j], w[j])
		}
	}
	if len(got.BDist) != len(want.BDist) {
		return fmt.Errorf("vptree: node %d has %d bucket distances, its rows give %d", i, len(got.BDist), len(want.BDist))
	}
	for j := range got.BDist {
		if !same(got.BDist[j], want.BDist[j]) {
			return fmt.Errorf("vptree: node %d bucket distance %d is %g, its rows give %g", i, j, got.BDist[j], want.BDist[j])
		}
	}
	return nil
}
