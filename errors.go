package emdsearch

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"emdsearch/internal/admission"
	"emdsearch/internal/search"
)

// Sentinel errors of the serving API. Each is matched with errors.Is;
// the concrete wrappers (OverloadError, InternalError) add structured
// context and are reachable with errors.As.
var (
	// ErrBadQuery marks a query rejected by input validation before any
	// search work: wrong dimensionality, invalid histogram (NaN,
	// negative mass, zero total), k < 1, eps < 0 or NaN, a Query that
	// mixes the k-NN and range verbs, or an item index out of range.
	// Every public query entry point returns an error wrapping
	// ErrBadQuery for these, so callers can separate caller bugs from
	// serving conditions with a single errors.Is check.
	ErrBadQuery = errors.New("emdsearch: bad query")

	// ErrOverloaded marks a query shed by an admission Gate: the
	// concurrency limit and wait queue were full, or the query's
	// deadline would provably have expired before it could start. The
	// concrete *OverloadError carries queue depth and retry-after
	// guidance.
	ErrOverloaded = errors.New("emdsearch: overloaded")

	// ErrInternal marks a query that failed on a contained internal
	// invariant violation (a recovered panic in the exact solver, a
	// filter stage or a caller's predicate): the
	// failing query gets this error, the process and all other in-flight
	// queries are unaffected. The concrete *InternalError carries the
	// item index, panic value and stack.
	ErrInternal = errors.New("emdsearch: internal error")
)

// badQueryf builds an ErrBadQuery-wrapping validation error.
func badQueryf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadQuery, fmt.Sprintf(format, args...))
}

// OverloadError is the typed rejection of a query shed by a Gate.
// errors.Is(err, ErrOverloaded) matches it.
type OverloadError struct {
	// QueueDepth and InFlight describe the gate at rejection time.
	QueueDepth int
	InFlight   int
	// RetryAfter is the gate's estimate of when capacity frees up —
	// clients should back off at least this long (plus jitter) before
	// retrying.
	RetryAfter time.Duration
	// Reason says why: "queue full", "deadline would expire before
	// start", or "breaker open" style strings.
	Reason string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("emdsearch: overloaded (%s): %d queued, %d in flight, retry after %v",
		e.Reason, e.QueueDepth, e.InFlight, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// overloadError converts the admission layer's rejection to the public
// typed error.
func overloadError(ov *admission.Overload) *OverloadError {
	return &OverloadError{
		QueueDepth: ov.QueueDepth,
		InFlight:   ov.InFlight,
		RetryAfter: ov.RetryAfter,
		Reason:     ov.Reason,
	}
}

// InternalError reports a contained invariant failure: a panic inside
// the exact refinement (transport simplex invariant checks, or an
// injected fault hook) or on the candidate-generating side of the query
// (a filter stage, a predicate) that the engine
// recovered and converted into an error on the failing query only.
// errors.Is(err, ErrInternal) matches it.
type InternalError struct {
	// Op is the query kind that hit the fault ("knn", "range", ...).
	Op string
	// Index is the database item whose refinement panicked, -1 when the
	// panic did not come from a refinement.
	Index int
	// Value is the recovered panic value; Stack the panicking
	// goroutine's stack, captured at recovery time.
	Value any
	Stack []byte
}

func (e *InternalError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("emdsearch: internal error in %s generating candidates: %v", e.Op, e.Value)
	}
	return fmt.Sprintf("emdsearch: internal error in %s refining item %d: %v", e.Op, e.Index, e.Value)
}

func (e *InternalError) Unwrap() error { return ErrInternal }

// internalErr converts a recovered refinement panic into the public
// typed error and counts it. Returns err unchanged when it is not a
// panic report.
func (e *Engine) internalErr(op string, err error) error {
	var pe *search.PanicError
	if !errors.As(err, &pe) {
		return err
	}
	e.metrics.queryPanicked()
	return &InternalError{Op: op, Index: pe.Index, Value: pe.Value, Stack: pe.Stack}
}

// contain is the panic barrier of the query paths that run outside the
// candidate loop's own: deferred, it converts a panic into an
// *InternalError on *err and counts it.
func (e *Engine) contain(op string, index int, err *error) {
	if r := recover(); r != nil {
		e.metrics.queryPanicked()
		*err = &InternalError{Op: op, Index: index, Value: r, Stack: debug.Stack()}
	}
}
