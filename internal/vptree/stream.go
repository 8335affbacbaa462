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
	kind int8
	idx  int32   // item id (item frames)
	node *node   // subtree (node frames)
	dqp  float64 // d(query, node's parent vantage), NaN at root
}

// Stream is an incremental best-first traversal emitting items in
// nondecreasing distance order, pruning with the triangle inequality
// against the stored subtree annuli. It is not safe for concurrent
// use; the Tree is never mutated and can serve many Streams.
type Stream struct {
	t     *Tree
	qdist QueryDistFunc
	skip  func(id int) bool
	slack float64
	heap  *heapx.Heap[frame]
	stats Stats
}

// Stream starts a best-first traversal. skip, when non-nil, filters
// items (e.g. soft deletes) before their distance is evaluated; a
// skipped vantage still serves as a pruning pivot but is not emitted.
//
// slack bounds how far the metric may under-report: every distance the
// tree stores and every query distance must lie in [d − slack, d] of
// the exact metric d. Each triangle key combines one stored and one
// query distance, so it can overshoot the exact lower bound by up to
// slack; the stream subtracts slack from every key, which keeps every
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
	}
	if t.root != nil {
		s.heap.Push(frame{kind: frameNode, node: t.root, dqp: math.NaN()})
	}
	return s
}

// Stats reports the traversal work so far.
func (s *Stream) Stats() Stats { return s.stats }

// childKey lower-bounds the query distance to a child subtree whose
// items lie within [lo, hi] of its parent's vantage (query distance
// dv): the triangle bound against the annulus, less the metric slack,
// and never below the parent frame's key.
func (s *Stream) childKey(f *frame, dv, lo, hi float64) float64 {
	k := f.key
	if b := dv - hi - s.slack; b > k {
		k = b
	}
	if b := lo - dv - s.slack; b > k {
		k = b
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
			if nd.vantage < 0 {
				for i, it := range nd.bucket {
					k := f.key
					if nd.bdist != nil && !math.IsNaN(f.dqp) {
						if b := math.Abs(f.dqp-nd.bdist[i]) - s.slack; b > k {
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
			if nd.inside != nil {
				h.Push(frame{
					key:  s.childKey(&f, dv, nd.ilo, nd.ihi),
					kind: frameNode, node: nd.inside, dqp: dv,
				})
			}
			if nd.outside != nil {
				h.Push(frame{
					key:  s.childKey(&f, dv, nd.olo, nd.ohi),
					kind: frameNode, node: nd.outside, dqp: dv,
				})
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
