package vptree

import (
	"math"

	"emdsearch/internal/heapx"
)

// Frame kinds of the best-first stream, in heap tie-break order.
const (
	frameNode   int8 = iota // subtree to expand
	frameUneval             // item, query distance pending
	frameEval               // item, query distance known
)

// frame is one priority-queue element; key is a certified lower bound
// on the query distance of everything beneath it.
type frame struct {
	key  float64
	node *node // subtree (node frames)
	idx  int32 // item id (item frames)
	// qrow is the offset in Stream.qanc of the query's distances to
	// the node's ancestor vantages, root first (node frames).
	qrow int32
	kind int8
}

// Stream is an incremental best-first traversal emitting items in
// nondecreasing distance order, pruning with the triangle inequality
// against every ancestor vantage. It is not safe for concurrent use;
// the Tree is never mutated and can serve many Streams.
type Stream struct {
	t     *Tree
	qdist QueryDistFunc
	skip  func(id int) bool
	slack float64
	heap  *heapx.Heap[frame]
	// qanc is the stream's one slab of query-to-ancestor rows: each
	// expanded internal node appends its parent's row and its own
	// vantage distance, the row its children's frames point at.
	qanc  []float64
	stats Stats
}

// Stream starts a best-first traversal. skip, when non-nil, filters
// items (e.g. soft deletes) before their distance is evaluated; a
// skipped vantage still serves as a pruning pivot but is not emitted.
//
// slack bounds how far the metric may under-report: every distance the
// tree stores and every query distance must lie in [d − slack, d] of
// the exact metric d. Each triangle term combines one stored and one
// query distance, so it can overshoot the exact lower bound by up to
// slack; the stream subtracts slack from every term, which keeps every
// emitted Dist at or below the item's exact metric distance. Pass 0
// for an exactly evaluated metric.
func (t *Tree) Stream(qdist QueryDistFunc, skip func(id int) bool, slack float64) *Stream {
	s := &Stream{
		t:     t,
		qdist: qdist,
		skip:  skip,
		slack: slack,
		heap: heapx.New(64, func(a, b frame) bool {
			if a.key != b.key {
				return a.key < b.key
			}
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			return a.idx < b.idx
		}),
		// Room for 64 expanded internal nodes' rows; a k-NN for small
		// k over a few thousand items expands about 50.
		qanc: make([]float64, 0, 64*(t.depth+1)),
	}
	if t.root != nil {
		s.heap.Push(frame{kind: frameNode, node: t.root})
	}
	return s
}

// Stats reports the traversal work so far.
func (s *Stream) Stats() Stats { return s.stats }

// ancKey raises k to the triangle bound of every ancestor pivot: for
// the query at distances q from the ancestor vantages and items at
// distances within the annuli anc (lo, hi pairs, root first) of them,
// each pivot bounds the query distance below by q − hi and by lo − q,
// less the metric slack.
func (s *Stream) ancKey(k float64, q, anc []float64) float64 {
	for a, qa := range q {
		if b := qa - anc[2*a+1] - s.slack; b > k {
			k = b
		}
		if b := anc[2*a] - qa - s.slack; b > k {
			k = b
		}
	}
	return k
}

// Next returns the next item in nondecreasing lower-bound order, or
// ok = false when the tree is exhausted. Emitted Dist values are the
// reported metric distances (raised to the frame key where the key is
// larger, which it can be only within the slack), never exceed the
// exact metric distance and never decrease, so a consumer may stop at
// its threshold without losing any qualifying item.
func (s *Stream) Next() (Result, bool) {
	h := s.heap
	for h.Len() > 0 {
		f := h.Pop()
		switch f.kind {
		case frameNode:
			nd := f.node
			s.stats.NodesVisited++
			q := s.qanc[f.qrow : int(f.qrow)+nd.level()]
			if nd.vantage < 0 {
				// A bucket item's own row is the degenerate annulus
				// [x, x] of each pivot: the bound is |q − x| − slack.
				for i, it := range nd.bucket {
					row := s.t.row(nd, i)
					k := f.key
					for a, qa := range q {
						if b := math.Abs(qa-row[a]) - s.slack; b > k {
							k = b
						}
					}
					h.Push(frame{key: k, kind: frameUneval, idx: it})
				}
				continue
			}
			s.stats.DistanceCalls++
			dv := s.qdist(nd.vantage)
			if s.skip == nil || !s.skip(nd.vantage) {
				k := dv
				if f.key > k {
					k = f.key // within the slack only; keeps emissions monotone
				}
				h.Push(frame{key: k, kind: frameEval, idx: int32(nd.vantage)})
			}
			qrow := int32(len(s.qanc))
			s.qanc = append(append(s.qanc, q...), dv)
			q = s.qanc[qrow:]
			for _, c := range [2]*node{nd.inside, nd.outside} {
				if c != nil {
					h.Push(frame{key: s.ancKey(f.key, q, c.anc), kind: frameNode, node: c, qrow: qrow})
				}
			}
		case frameUneval:
			id := int(f.idx)
			if s.skip != nil && s.skip(id) {
				continue
			}
			s.stats.DistanceCalls++
			d := s.qdist(id)
			if f.key > d {
				d = f.key
			}
			if h.Len() == 0 || d <= h.Peek().key {
				return Result{Index: id, Dist: d}, true
			}
			h.Push(frame{key: d, kind: frameEval, idx: f.idx})
		case frameEval:
			return Result{Index: int(f.idx), Dist: f.key}, true
		}
	}
	return Result{}, false
}
