package search

import (
	"context"
	"sync/atomic"
)

// PendingCandidate is a candidate that was pulled from the filter
// ranking but left unresolved when a query was cancelled: its exact
// distance is only known to be at least Lower (the tightest of the
// filter lower bound and, when the solve was interrupted mid-pivot,
// the simplex's certified dual bound). Pending candidates are the raw
// material of anytime answers — a caller with an upper-bound function
// can turn each into a certified [Lower, Upper] interval.
type PendingCandidate struct {
	Index int
	Lower float64
}

// KNNOutcome is the full return of a context-aware k-NN query.
type KNNOutcome struct {
	// Results are the neighbors whose exact distances were confirmed.
	// When Stats.Cancelled is false this is the complete k-NN answer,
	// identical to the context-free path's; otherwise it holds the
	// (certified-exact) neighbors found before cancellation.
	Results []Result
	// Pending lists the candidates pulled but unresolved at
	// cancellation, each with its best certified lower bound. Empty
	// when the query completed.
	Pending []PendingCandidate
	// Stats carries the per-query work counters; Stats.Cancelled
	// distinguishes complete from anytime outcomes.
	Stats *QueryStats
}

// WatchContext converts ctx cancellation into a polled atomic flag.
// The flag doubles as the simplex interrupt: the same pointer is
// handed to the bounded refinement so a deadline stops even a single
// large solve within one pivot. For contexts that can never be
// cancelled (ctx.Done() == nil, e.g. context.Background()) it returns
// a nil flag and registers nothing, which keeps the context-free
// wrappers byte-identical to an uncancellable query. Otherwise the flag
// store is registered with context.AfterFunc — no goroutine and no
// channel per query — and stop, which is idempotent, unregisters it.
func WatchContext(ctx context.Context) (flag *atomic.Bool, stop func() bool) {
	if ctx.Done() == nil {
		return nil, func() bool { return false }
	}
	flag = new(atomic.Bool)
	return flag, context.AfterFunc(ctx, func() { flag.Store(true) })
}
