package mtree

import (
	"fmt"
	"math"
	"math/rand"
)

// Clone returns a structural deep copy of the tree bound to a new
// distance function and rng, without evaluating any distances. The
// engine uses it to re-attach a persisted or stashed tree to the
// current snapshot's data before inserting new objects.
func (t *Tree) Clone(dist DistFunc, rng *rand.Rand) (*Tree, error) {
	if dist == nil {
		return nil, fmt.Errorf("mtree: nil distance")
	}
	if rng == nil {
		return nil, fmt.Errorf("mtree: nil rng")
	}
	nt := &Tree{dist: dist, capacity: t.capacity, size: t.size, nodes: t.nodes, height: t.height, rng: rng}
	nt.root = cloneNode(t.root, nil)
	return nt, nil
}

func cloneNode(n *node, parent *node) *node {
	c := &node{leaf: n.leaf, parent: parent, entries: make([]entry, len(n.entries))}
	copy(c.entries, n.entries)
	for i := range c.entries {
		if child := c.entries[i].child; child != nil {
			c.entries[i].child = cloneNode(child, c)
		}
	}
	return c
}

// Flat is the tree's serializable form: nodes in preorder, children
// addressed by index. It contains object ids and stored distances only
// — restoring needs the same object set and metric to be meaningful,
// which the engine enforces with a content fingerprint.
type Flat struct {
	Capacity int
	Size     int
	Nodes    []FlatNode
}

// FlatNode is one serialized node.
type FlatNode struct {
	Leaf    bool
	Entries []FlatEntry
}

// FlatEntry is one serialized entry. Child is the index of the subtree
// node for routing entries and -1 for leaf entries.
type FlatEntry struct {
	Object  int32
	DistPar float64
	Radius  float64
	Child   int32
}

// Flatten serializes the tree structure.
func (t *Tree) Flatten() *Flat {
	f := &Flat{Capacity: t.capacity, Size: t.size}
	var walk func(n *node) int32
	walk = func(n *node) int32 {
		idx := int32(len(f.Nodes))
		f.Nodes = append(f.Nodes, FlatNode{Leaf: n.leaf})
		entries := make([]FlatEntry, len(n.entries))
		for i := range n.entries {
			e := &n.entries[i]
			fe := FlatEntry{Object: int32(e.object), DistPar: e.distPar, Radius: e.radius, Child: -1}
			if e.child != nil {
				fe.Child = walk(e.child)
			}
			entries[i] = fe
		}
		f.Nodes[idx].Entries = entries
		return idx
	}
	walk(t.root)
	return f
}

// RestoreFlat rebuilds a tree from its serialized form after strict
// structural validation, for object ids in [0, n). The restored tree
// answers queries but has no distance function: call Clone before
// Insert. Validation failures indicate corruption or a version skew
// the snapshot layer's checksums missed, never a query-time panic.
func RestoreFlat(f *Flat, n int, rng *rand.Rand) (*Tree, error) {
	if rng == nil {
		return nil, fmt.Errorf("mtree: nil rng")
	}
	if f == nil || len(f.Nodes) == 0 {
		return nil, fmt.Errorf("mtree: flat form has no nodes")
	}
	if f.Capacity < 4 {
		return nil, fmt.Errorf("mtree: flat capacity %d, want >= 4", f.Capacity)
	}
	if f.Size < 0 || f.Size > n {
		return nil, fmt.Errorf("mtree: flat size %d out of range [0, %d]", f.Size, n)
	}
	nodes := make([]*node, len(f.Nodes))
	for i := range nodes {
		nodes[i] = &node{leaf: f.Nodes[i].Leaf}
	}
	refs := make([]int, len(f.Nodes))
	leafEntries := 0
	for i, fn := range f.Nodes {
		if !fn.Leaf && len(fn.Entries) == 0 {
			return nil, fmt.Errorf("mtree: internal node %d has no entries", i)
		}
		for j, e := range fn.Entries {
			if e.Object < 0 || int(e.Object) >= n {
				return nil, fmt.Errorf("mtree: node %d entry %d: object %d out of range [0, %d)", i, j, e.Object, n)
			}
			if math.IsInf(e.DistPar, 0) || (!math.IsNaN(e.DistPar) && e.DistPar < 0) {
				return nil, fmt.Errorf("mtree: node %d entry %d: invalid parent distance %g", i, j, e.DistPar)
			}
			if math.IsNaN(e.Radius) || math.IsInf(e.Radius, 0) || e.Radius < 0 {
				return nil, fmt.Errorf("mtree: node %d entry %d: invalid radius %g", i, j, e.Radius)
			}
			ne := entry{object: int(e.Object), distPar: e.DistPar, radius: e.Radius}
			if fn.Leaf {
				if e.Child != -1 {
					return nil, fmt.Errorf("mtree: node %d entry %d: leaf entry has child %d", i, j, e.Child)
				}
				leafEntries++
			} else {
				if int(e.Child) <= i || int(e.Child) >= len(f.Nodes) {
					return nil, fmt.Errorf("mtree: node %d entry %d: child %d violates preorder", i, j, e.Child)
				}
				refs[e.Child]++
				ne.child = nodes[e.Child]
				nodes[e.Child].parent = nodes[i]
			}
			nodes[i].entries = append(nodes[i].entries, ne)
		}
	}
	for i := 1; i < len(refs); i++ {
		if refs[i] != 1 {
			return nil, fmt.Errorf("mtree: node %d referenced %d times, want 1", i, refs[i])
		}
	}
	if leafEntries != f.Size {
		return nil, fmt.Errorf("mtree: flat size %d, but %d leaf entries", f.Size, leafEntries)
	}
	// Preorder puts every parent before its children, so one forward
	// pass yields each node's depth; the height is the deepest one.
	depth := make([]int, len(f.Nodes))
	height := 0
	for i, fn := range f.Nodes {
		height = max(height, depth[i])
		for _, e := range fn.Entries {
			if !fn.Leaf {
				depth[e.Child] = depth[i] + 1
			}
		}
	}
	return &Tree{capacity: f.Capacity, root: nodes[0], size: f.Size, nodes: len(f.Nodes), height: height, rng: rng}, nil
}
