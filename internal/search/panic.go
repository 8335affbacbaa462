package search

import "fmt"

// PanicError reports a panic recovered by the candidate loop's barrier
// (loop.contain): an invariant failure inside the exact solver, a filter
// stage or a caller-supplied hook that would
// otherwise have killed the whole process — and, on the pool path, every
// other query sharing it. The barrier converts it into an ordinary error
// on the failing query only; the engine wraps it into the public typed
// ErrInternal.
type PanicError struct {
	// Index is the database item whose refinement panicked, or -1 when
	// the panic came from the feeder side of the loop: building or
	// advancing the ranking, the predicate, the upper bound.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the stack of the panicking goroutine, captured at
	// recovery time.
	Stack []byte
}

func (p *PanicError) Error() string {
	if p.Index < 0 {
		return fmt.Sprintf("search: panic generating candidates: %v", p.Value)
	}
	return fmt.Sprintf("search: panic refining candidate %d: %v", p.Index, p.Value)
}
