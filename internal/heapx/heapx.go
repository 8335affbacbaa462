// Package heapx provides a typed binary min-heap. It replaces the
// interface{}-boxed container/heap implementations on the index
// traversal hot paths: every container/heap Push allocates (the value
// escapes through the interface), while Heap[T] stores elements
// inline in a slice and moves them by value.
package heapx

// Heap is a binary heap of T ordered by the less function given at
// construction (a min-heap when less is "strictly before"). The zero
// value is not usable; call New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less, with room for hint
// elements.
func New[T any](hint int, less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{items: make([]T, 0, hint), less: less}
}

// From returns a heap over items ordered by less, establishing the heap
// order in place in O(len(items)) — cheaper than len(items) pushes. The
// heap takes ownership of items.
func From[T any](items []T, less func(a, b T) bool) *Heap[T] {
	h := &Heap[T]{items: items, less: less}
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Peek returns the minimum element without removing it. It must not
// be called on an empty heap.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element. It must not be called
// on an empty heap.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release references held by pointerful T
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
