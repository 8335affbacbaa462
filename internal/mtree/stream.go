package mtree

import (
	"math"

	"emdsearch/internal/heapx"
)

// Frame kinds of the best-first stream, in heap tie-break order: nodes
// expand before items emit at equal keys, so candidate items enter the
// heap before ties are resolved.
const (
	frameNode         int8 = iota // subtree, routing-object distance known
	frameNodeDeferred             // subtree, routing-object distance pending
	frameItemUneval               // leaf object, query distance pending
	frameItemEval                 // leaf object, query distance known
)

// frame is one element of the stream's priority queue. key is a
// certified lower bound on the query distance of everything beneath
// the frame; it is nondecreasing along every root-to-frame chain.
type frame struct {
	key    float64
	kind   int8
	idx    int32   // object id (item and deferred-node frames)
	node   *node   // subtree (node frames)
	dqr    float64 // d(query, routing object) for frameNode, NaN at root
	radius float64 // covering radius (frameNodeDeferred)
}

// Stream is an incremental best-first traversal emitting indexed
// objects in nondecreasing distance order. It is the index-as-filter
// primitive: a consumer that stops after k results (or past a
// threshold) pays only for the subtrees whose lower bounds qualify,
// while the emission order makes early termination provably lossless.
//
// A Stream must not outlive the Tree it came from and is not safe for
// concurrent use; the Tree itself is not mutated and can serve many
// Streams.
type Stream struct {
	t     *Tree
	qdist QueryDistFunc
	skip  func(id int) bool
	// itemSlack and nodeSlack are subtracted from the triangle keys of
	// leaf objects and of subtrees (see Stream).
	itemSlack, nodeSlack float64
	heap                 *heapx.Heap[frame]
	memo                 map[int32]float64
	stats                Stats
}

// Stream starts a best-first traversal for the query described by
// qdist. skip, when non-nil, filters objects (e.g. soft deletes) at
// emission time — skipped objects cost no distance evaluation.
//
// slack bounds how far the metric may under-report: every distance the
// tree stores and every query distance must lie in [d − slack, d] of
// the exact metric d. A leaf object's key |d(q,P) − d(P,o)| combines
// two such values and can overshoot its exact lower bound by slack. A
// subtree's key also subtracts a covering radius, and a radius formed
// at a split is a sum of one distance per level below it, so it can
// fall short of the exact radius by slack per level: a tree of height
// h needs (h+1)·slack on subtree keys. The stream subtracts those
// amounts, which keeps every emitted Dist at or below the object's
// exact metric distance. Pass 0 for an exactly evaluated metric.
func (t *Tree) Stream(qdist QueryDistFunc, skip func(id int) bool, slack float64) *Stream {
	s := &Stream{
		t:         t,
		qdist:     qdist,
		skip:      skip,
		itemSlack: slack,
		nodeSlack: float64(t.height+1) * slack,
		heap: heapx.New(64, func(a, b frame) bool {
			if a.key != b.key {
				return a.key < b.key
			}
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			return a.idx < b.idx
		}),
		memo: make(map[int32]float64),
	}
	s.heap.Push(frame{kind: frameNode, node: t.root, dqr: math.NaN()})
	return s
}

// Result is one emission; Stats reports the traversal work so far.
func (s *Stream) Stats() Stats { return s.stats }

// qd evaluates the query distance to object id, memoized: routing
// objects are copies of leaf objects, so the same id can surface in
// several frames but is solved once.
func (s *Stream) qd(id int32) float64 {
	if d, ok := s.memo[id]; ok {
		return d
	}
	s.stats.DistanceCalls++
	d := s.qdist(int(id))
	s.memo[id] = d
	return d
}

// expand pushes the children of a node whose routing-object distance
// dqr is known (NaN at the root, which has no routing object). Leaf
// entries become deferred items bounded by |dqr - distPar|; routing
// entries become deferred nodes bounded by |dqr - distPar| - radius —
// both without any distance evaluation, per the M-tree's stored
// parent-distance optimization.
func (s *Stream) expand(n *node, dqr, key float64) {
	s.stats.NodesVisited++
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			k := key
			if !math.IsNaN(dqr) && !math.IsNaN(e.distPar) {
				if b := math.Abs(dqr-e.distPar) - s.itemSlack; b > k {
					k = b
				}
			}
			s.heap.Push(frame{key: k, kind: frameItemUneval, idx: int32(e.object)})
		}
		return
	}
	for i := range n.entries {
		e := &n.entries[i]
		k := key
		if !math.IsNaN(dqr) && !math.IsNaN(e.distPar) {
			if b := math.Abs(dqr-e.distPar) - e.radius - s.nodeSlack; b > k {
				k = b
			}
		}
		s.heap.Push(frame{key: k, kind: frameNodeDeferred, idx: int32(e.object), node: e.child, radius: e.radius})
	}
}

// Next returns the next object in nondecreasing lower-bound order, or
// ok = false when the tree is exhausted. The emitted Dist is the
// reported metric distance, raised to the frame key where that is
// larger (only ever within the slack); it never exceeds the exact
// metric distance and never falls below an earlier emission, so a
// consumer may stop as soon as it exceeds its search threshold without
// losing any qualifying object.
func (s *Stream) Next() (Result, bool) {
	h := s.heap
	for h.Len() > 0 {
		f := h.Pop()
		switch f.kind {
		case frameNode:
			s.expand(f.node, f.dqr, f.key)
		case frameNodeDeferred:
			// Deferred evaluation: only now pay for the routing-object
			// distance, and re-queue rather than expand if the sharpened
			// bound no longer wins.
			d := s.qd(f.idx)
			key := f.key
			if k := d - f.radius - s.nodeSlack; k > key {
				key = k
			}
			if h.Len() > 0 && key > h.Peek().key {
				h.Push(frame{key: key, kind: frameNode, idx: f.idx, node: f.node, dqr: d})
				continue
			}
			s.expand(f.node, d, key)
		case frameItemUneval:
			id := int(f.idx)
			if s.skip != nil && s.skip(id) {
				continue
			}
			d := s.qd(f.idx)
			if f.key > d {
				d = f.key // within the slack only; keeps emissions monotone
			}
			if h.Len() == 0 || d <= h.Peek().key {
				return Result{Index: id, Dist: d}, true
			}
			h.Push(frame{key: d, kind: frameItemEval, idx: f.idx})
		case frameItemEval:
			return Result{Index: int(f.idx), Dist: f.key}, true
		}
	}
	return Result{}, false
}
