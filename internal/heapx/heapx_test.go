package heapx

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

func TestHeapSortsRandomInts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(100) - 50
		}
		less := func(a, b int) bool { return a < b }
		h := New(0, less)
		if trial%2 == 0 {
			for _, v := range in {
				h.Push(v)
			}
		} else {
			h = From(append([]int(nil), in...), less)
		}
		want := append([]int(nil), in...)
		sort.Ints(want)
		for i, w := range want {
			if h.Len() != n-i {
				t.Fatalf("trial %d: Len = %d, want %d", trial, h.Len(), n-i)
			}
			if got := h.Peek(); got != w {
				t.Fatalf("trial %d: Peek = %d, want %d", trial, got, w)
			}
			if got := h.Pop(); got != w {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, got, w)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d elements left", trial, h.Len())
		}
	}
}

// intHeap is a reference container/heap implementation for the
// interleaved-operation cross-check.
type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

func TestHeapMatchesContainerHeapInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := New(8, func(a, b int) bool { return a < b })
	ref := &intHeap{}
	heap.Init(ref)
	for op := 0; op < 5000; op++ {
		if ref.Len() == 0 || rng.Intn(3) != 0 {
			v := rng.Intn(1000)
			h.Push(v)
			heap.Push(ref, v)
		} else {
			got, want := h.Pop(), heap.Pop(ref).(int)
			if got != want {
				t.Fatalf("op %d: Pop = %d, container/heap = %d", op, got, want)
			}
		}
		if h.Len() != ref.Len() {
			t.Fatalf("op %d: Len = %d, want %d", op, h.Len(), ref.Len())
		}
	}
}

func TestHeapStructKeys(t *testing.T) {
	type frame struct {
		key float64
		idx int
	}
	less := func(a, b frame) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.idx < b.idx
	}
	h := New(0, less)
	rng := rand.New(rand.NewSource(3))
	var all []frame
	for i := 0; i < 300; i++ {
		f := frame{key: float64(rng.Intn(40)), idx: i}
		all = append(all, f)
		h.Push(f)
	}
	sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
	for i, w := range all {
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}
