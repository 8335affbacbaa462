package emdsearch

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"emdsearch/internal/admission"
)

// GateOptions configures a Gate. The zero value is usable: every field
// has a sensible default.
type GateOptions struct {
	// MaxConcurrent bounds the queries running at once; <= 0 defaults
	// to GOMAXPROCS. At most 2 × MaxConcurrent queries wait for a slot:
	// a deep queue converts overload into tail latency instead of fast,
	// typed rejection.
	MaxConcurrent int

	// maxQueue, when > 0, replaces the 2 × MaxConcurrent queue bound.
	// Only the in-package gate tests set it, to reach the queue's
	// shed and degrade levels with few queries.
	maxQueue int
	// breakerCooldown, when > 0, replaces gateBreakerCooldown. Only the
	// in-package tests set it, to probe a tripped breaker quickly (or
	// never).
	breakerCooldown time.Duration
}

const (
	// gateDegradeBudget is the per-query time budget imposed on
	// queries admitted at the degrade level (past half the queue). The
	// budget drives the engine's certified anytime machinery, so
	// degraded answers still carry sound [Lower, Upper] intervals.
	gateDegradeBudget = 25 * time.Millisecond
	// gateBreakerThreshold is the number of consecutive contained
	// internal faults that trips the fault breaker.
	gateBreakerThreshold = 3
	// gateBreakerCooldown is how long the tripped fault breaker holds
	// the engine in lower-bound-only degraded serving before probing
	// the full path again.
	gateBreakerCooldown = time.Second
)

func (o GateOptions) withDefaults() GateOptions {
	if o.breakerCooldown <= 0 {
		o.breakerCooldown = gateBreakerCooldown
	}
	return o
}

// GateMetrics is a point-in-time aggregate of a Gate's serving
// decisions, JSON-marshalable for expvar like Engine.Metrics.
type GateMetrics struct {
	// Admitted counts queries served immediately; Queued those that
	// waited for a slot; Shed those rejected with ErrOverloaded
	// (including deadline-implausible and breaker-open rejections);
	// Degraded those served a certified degraded answer because of gate
	// pressure (tightened budget or breaker-open LB-only serving).
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	Shed     int64 `json:"shed"`
	Degraded int64 `json:"degraded"`
	// InternalFaults counts queries that failed with ErrInternal — a
	// contained solver panic — through this gate.
	InternalFaults int64 `json:"internal_faults"`
	// QueueDepth and InFlight are current gauges; QueueWait is the
	// cumulative time queries spent waiting, and EstServiceTime the
	// admission layer's moving service-time estimate.
	QueueDepth     int           `json:"queue_depth"`
	InFlight       int           `json:"in_flight"`
	QueueWait      time.Duration `json:"queue_wait_ns"`
	EstServiceTime time.Duration `json:"est_service_time_ns"`
	// BreakerState is "closed", "open" or "half-open"; BreakerTrips
	// counts how often repeated faults opened it.
	BreakerState string `json:"breaker_state"`
	BreakerTrips int64  `json:"breaker_trips"`
}

// Gate wraps an Engine with overload resilience: admission control
// (bounded concurrency plus a bounded, deadline-aware wait queue),
// load shedding with typed ErrOverloaded rejections carrying
// retry-after guidance, graceful degradation (under pressure, k-NN
// queries ride the engine's certified anytime machinery with a
// tightened budget instead of being dropped), and a fault breaker
// (repeated contained solver panics switch k-NN to lower-bound-only
// certified answers until a cooldown probe succeeds).
//
// Every query submitted to a Gate resolves to exactly one of: a full
// answer, a certified degraded answer, or a typed error (ErrBadQuery,
// ErrOverloaded, ErrInternal, or the caller's context error). Nothing
// is silently dropped, and no query waits past the point where its
// deadline makes admission pointless.
//
// A Gate is safe for concurrent use. The wrapped Engine remains fully
// usable directly — mutations (Add, Delete, Build, Checkpoint) are
// intentionally *not* gated, and ungated queries bypass admission.
type Gate struct {
	e    *Engine
	opts GateOptions
	lim  *admission.Limiter
	brk  *admission.Breaker

	degraded atomic.Int64
	faults   atomic.Int64
}

// NewGate wraps e with an admission gate (zero-value opts take
// defaults).
func NewGate(e *Engine, opts GateOptions) *Gate {
	opts = opts.withDefaults()
	return &Gate{
		e:    e,
		opts: opts,
		lim: admission.New(admission.Config{
			MaxConcurrent: opts.MaxConcurrent,
			MaxQueue:      opts.maxQueue,
		}),
		brk: admission.NewBreaker(gateBreakerThreshold, opts.breakerCooldown),
	}
}

// Engine returns the wrapped engine.
func (g *Gate) Engine() *Engine { return g.e }

// acquire runs admission for one query: a ticket, or the typed
// overload rejection. Bad queries never reach here — callers validate
// first so malformed input is rejected without consuming capacity.
func (g *Gate) acquire(ctx context.Context) (*admission.Ticket, error) {
	tk, err := g.lim.Acquire(ctx)
	if err != nil {
		var ov *admission.Overload
		if errors.As(err, &ov) {
			return nil, overloadError(ov)
		}
		return nil, err
	}
	return tk, nil
}

// budgetCtx derives the query context for an admitted ticket: at the
// degrade level the gate imposes gateDegradeBudget (unless the caller's
// own deadline is already tighter). The bool reports whether the gate,
// not the caller, owns the resulting deadline.
func (g *Gate) budgetCtx(ctx context.Context, tk *admission.Ticket) (context.Context, context.CancelFunc, bool) {
	if tk.Level() != admission.LevelDegrade {
		return ctx, nil, false
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= gateDegradeBudget {
		return ctx, nil, false
	}
	qctx, cancel := context.WithTimeout(ctx, gateDegradeBudget)
	return qctx, cancel, true
}

// settle feeds a full-path query outcome into the breaker and
// classifies it: internal faults count against the breaker, everything
// else counts as a healthy traversal of the exact path.
func (g *Gate) settle(err error) {
	if errors.Is(err, ErrInternal) {
		g.faults.Add(1)
		g.brk.Fault()
		return
	}
	g.brk.Success()
}

// Search answers q through the gate: validate → acquire → breaker →
// budget → settle, one sequence for every query shape. Under normal
// load it is Engine.Search with admission accounting. Under pressure it
// degrades rather than drops: past half the queue the query runs
// under gateDegradeBudget, and a budget-expired answer is
// returned as a certified degraded KNNAnswer with a nil error (the
// caller asked the gate to keep serving under load; a sound partial
// answer is the contract, not a failure). With the fault breaker open,
// a k-NN query is served from lower bounds and greedy upper bounds
// alone — zero exact solves — again as a certified degraded answer,
// while a range query, which has no exact-solve-free certified form, is
// shed with ErrOverloaded. Shed queries fail fast with an error
// wrapping ErrOverloaded; a caller-cancelled query returns its
// certified degraded answer with the context error, exactly like
// Engine.Search.
func (g *Gate) Search(ctx context.Context, q Query) (*KNNAnswer, error) {
	if err := g.e.validate(q); err != nil {
		g.e.metrics.queryError()
		return nil, err
	}
	tk, err := g.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer tk.Release()

	if !g.brk.Allow() {
		if q.Range {
			return nil, g.breakerOpenErr()
		}
		g.degraded.Add(1)
		return g.e.knnLBOnly(q)
	}

	qctx, cancel, gateOwned := g.budgetCtx(ctx, tk)
	if cancel != nil {
		defer cancel()
	}
	ans, err := g.e.Search(qctx, q)
	g.settle(err)
	if err != nil && gateOwned && ans != nil && ans.Degraded && ctx.Err() == nil {
		// The gate's budget, not the caller's deadline, cut the query
		// short: the certified degraded answer is the intended result.
		g.degraded.Add(1)
		return ans, nil
	}
	return ans, err
}

// KNN is the k-NN query through the gate: Search with one Query
// literal.
func (g *Gate) KNN(ctx context.Context, q Histogram, k int) (*KNNAnswer, error) {
	return g.Search(ctx, Query{Hist: q, K: k})
}

// breakerOpenErr is the typed rejection served while the fault breaker
// holds the exact path open.
func (g *Gate) breakerOpenErr() error {
	st := g.lim.Stats()
	return &OverloadError{
		QueueDepth: st.QueueDepth,
		InFlight:   st.InFlight,
		RetryAfter: g.opts.breakerCooldown,
		Reason:     "breaker open after repeated internal faults",
	}
}

// Metrics snapshots the gate's serving counters and gauges.
func (g *Gate) Metrics() GateMetrics {
	st := g.lim.Stats()
	return GateMetrics{
		Admitted:       st.Admitted,
		Queued:         st.Queued,
		Shed:           st.Shed,
		Degraded:       g.degraded.Load(),
		InternalFaults: g.faults.Load(),
		QueueDepth:     st.QueueDepth,
		InFlight:       st.InFlight,
		QueueWait:      st.WaitTime,
		EstServiceTime: st.EstServiceTime,
		BreakerState:   g.brk.State().String(),
		BreakerTrips:   g.brk.Trips(),
	}
}

// knnLBOnly serves a k-NN query from bounds alone: the filter chain's
// lower-bound ranking and the greedy-flow upper bound, zero exact
// simplex solves. It returns a certified degraded KNNAnswer whose
// Anytime items are the k best by guaranteed worst case (Upper, then
// Lower); the exact distance of every listed item provably lies in its
// interval. The scan terminates once the ranking's ascending lower
// bound exceeds the current k-th best upper bound — past that point no
// remaining item can improve the answer. This is the breaker-open
// serving mode: the exact solver is quarantined, yet answers remain
// sound. Items q.Where rejects are skipped like deleted ones. The
// filter stages and the predicate run behind a panic barrier of their
// own: this path bypasses the candidate loop's.
func (e *Engine) knnLBOnly(q Query) (_ *KNNAnswer, err error) {
	s, err := e.snapshot()
	if err != nil {
		e.metrics.queryError()
		return nil, err
	}
	defer e.contain("knn", -1, &err)
	ranking, err := s.searcher.Ranking(q.Hist)
	if err != nil {
		e.metrics.queryError()
		return nil, err
	}
	g := s.greedyUpper()
	defer s.putGreedy(g)

	k := q.K
	items := make([]AnytimeItem, 0, k+1)
	kthUpper := math.Inf(1)
	pulled := 0
	for {
		c, ok := ranking.Next()
		if !ok {
			break
		}
		pulled++
		if len(items) >= k && c.Dist > kthUpper {
			break
		}
		if s.deleted[c.Index] || q.Where != nil && !q.Where(c.Index, s.labels[c.Index]) {
			continue
		}
		ub := g.Distance(q.Hist, s.vectors[c.Index])
		lo := c.Dist
		if lo > ub {
			lo = ub
		}
		it := AnytimeItem{Index: c.Index, Lower: lo, Upper: ub}
		pos := sort.Search(len(items), func(i int) bool {
			if items[i].Upper != it.Upper {
				return items[i].Upper > it.Upper
			}
			if items[i].Lower != it.Lower {
				return items[i].Lower > it.Lower
			}
			return items[i].Index > it.Index
		})
		items = append(items, AnytimeItem{})
		copy(items[pos+1:], items[pos:])
		items[pos] = it
		if len(items) > k {
			items = items[:k]
		}
		if len(items) == k {
			kthUpper = items[k-1].Upper
		}
	}
	stats := &QueryStats{Pulled: pulled, SnapshotLen: len(s.vectors)}
	e.metrics.observe(metricKNN, stats)
	e.metrics.queryDegraded()
	return &KNNAnswer{
		Stats:    stats,
		Degraded: true,
		Anytime:  items,
		Unpulled: len(s.vectors) - pulled,
	}, nil
}
