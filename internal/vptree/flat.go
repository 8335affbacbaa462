package vptree

import (
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
type FlatNode struct {
	Vantage            int32
	Radius             float64
	ILo, IHi, OLo, OHi float64
	PLo, PHi, DVP      float64
	Inside, Outside    int32
	Bucket             []int32
	BDist              []float64
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
		fn := FlatNode{
			Vantage: -1, Radius: n.radius,
			ILo: n.ilo, IHi: n.ihi, OLo: n.olo, OHi: n.ohi,
			PLo: n.plo, PHi: n.phi, DVP: n.dvp,
			Inside: -1, Outside: -1,
		}
		// Copy bucket slices: Flat owns its memory and must not alias
		// the live tree.
		if n.bucket != nil {
			fn.Bucket = append([]int32(nil), n.bucket...)
		}
		if n.bdist != nil {
			fn.BDist = append([]float64(nil), n.bdist...)
		}
		if n.vantage >= 0 {
			fn.Vantage = int32(n.vantage)
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
// missed, never a query-time panic.
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
	finiteOrNaN := func(x float64) bool { return !math.IsInf(x, 0) }
	nodes := make([]*node, len(f.Nodes))
	refs := make([]int, len(f.Nodes))
	items := 0
	for i, fn := range f.Nodes {
		for _, x := range [9]float64{fn.Radius, fn.ILo, fn.IHi, fn.OLo, fn.OHi, fn.PLo, fn.PHi, fn.DVP, 0} {
			if !finiteOrNaN(x) {
				return nil, fmt.Errorf("vptree: node %d has an infinite field", i)
			}
		}
		nd := &node{
			vantage: -1, radius: fn.Radius,
			ilo: fn.ILo, ihi: fn.IHi, olo: fn.OLo, ohi: fn.OHi,
			plo: fn.PLo, phi: fn.PHi, dvp: fn.DVP,
		}
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
			if fn.BDist != nil && len(fn.BDist) != len(fn.Bucket) {
				return nil, fmt.Errorf("vptree: leaf node %d: %d bucket distances for %d items", i, len(fn.BDist), len(fn.Bucket))
			}
			for _, it := range fn.Bucket {
				if it < 0 || int(it) >= n {
					return nil, fmt.Errorf("vptree: leaf node %d item %d out of range [0, %d)", i, it, n)
				}
				items++
			}
			for _, bd := range fn.BDist {
				if math.IsNaN(bd) || math.IsInf(bd, 0) || bd < 0 {
					return nil, fmt.Errorf("vptree: leaf node %d has invalid bucket distance %g", i, bd)
				}
			}
			nd.bucket = fn.Bucket
			nd.bdist = fn.BDist
		}
		// A present child's annulus feeds the stream's triangle keys, so
		// an inverted one, or one on the wrong side of the median radius,
		// would push keys above exact distances. The negated comparisons
		// reject NaN too.
		if fn.Inside != -1 && !(fn.ILo <= fn.IHi && fn.IHi <= fn.Radius) {
			return nil, fmt.Errorf("vptree: node %d inside annulus [%g, %g] not within radius %g", i, fn.ILo, fn.IHi, fn.Radius)
		}
		if fn.Outside != -1 && !(fn.OLo <= fn.OHi && fn.Radius <= fn.OLo) {
			return nil, fmt.Errorf("vptree: node %d outside annulus [%g, %g] not beyond radius %g", i, fn.OLo, fn.OHi, fn.Radius)
		}
		for _, c := range [2]int32{fn.Inside, fn.Outside} {
			if c == -1 {
				continue
			}
			if int(c) <= i || int(c) >= len(f.Nodes) {
				return nil, fmt.Errorf("vptree: node %d child %d violates preorder", i, c)
			}
			refs[c]++
		}
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
	for i, fn := range f.Nodes {
		if fn.Inside >= 0 {
			nodes[i].inside = nodes[fn.Inside]
		}
		if fn.Outside >= 0 {
			nodes[i].outside = nodes[fn.Outside]
		}
	}
	return &Tree{root: nodes[0], n: f.N, nodes: len(f.Nodes)}, nil
}
