package shardset

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// ErrQuarantined marks a dispatch suppressed because the shard's
// health tracker holds it in quarantine; no attempt was made.
var ErrQuarantined = errors.New("shardset: shard quarantined")

// PanicError reports a panic recovered from a shard call. The scatter
// executor converts it into an ordinary per-shard failure so one
// panicking shard can never take down the query, the process, or the
// other shards' answers.
type PanicError struct {
	Shard int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("shardset: shard %d panicked: %v", e.Shard, e.Value)
}

// Config is the scatter executor's per-query policy.
type Config struct {
	// MaxAttempts bounds the dispatch attempts per shard, counting the
	// first try and its retries; < 1 defaults to 2 (one retry).
	MaxAttempts int
	// Backoff paces retries; nil uses a default jittered 1ms..250ms
	// schedule.
	Backoff *Backoff
	// Retryable classifies an attempt error: retry reports whether a
	// fresh attempt is worthwhile (transient overload, not a bad
	// query), and after is a server-supplied floor for the backoff
	// delay (e.g. ErrOverloaded's RetryAfter). nil never retries.
	Retryable func(err error) (retry bool, after time.Duration)
	// Faulty reports whether an error should count against the shard's
	// health (quarantine threshold). nil counts every error. Shedding
	// under load, for example, is backpressure — not shard death — and
	// ought not to quarantine.
	Faulty func(err error) bool
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 2
	}
	if c.Backoff == nil {
		c.Backoff = &Backoff{}
	}
	return c
}

// Outcome is one shard's final disposition for one scatter.
type Outcome[T any] struct {
	Shard int
	// Value is the shard's answer when Err is nil.
	Value T
	// Err is the last attempt's error; nil on success. ErrQuarantined
	// when the dispatch was suppressed without an attempt.
	Err error
	// Tries counts dispatch attempts actually launched, the first and
	// every retry; 0 when quarantined. A failover re-dispatch is not a
	// try — it goes to a different replica (see FailedOver).
	Tries int
	// Retries counts backoff-paced re-attempts after a retryable
	// error.
	Retries int
	// Skipped reports the quarantine suppressed the dispatch.
	Skipped bool
	// FailedOver reports Value came from the shard's follower replica
	// after the primary hard-faulted or was quarantined.
	FailedOver bool
}

// Failover re-dispatches one shard's query to its follower replica.
// The scatter executor invokes it only after the primary's attempt
// loop resolved to a hard fault (an error Faulty counts against
// health) or the quarantine suppressed the dispatch — never for
// retryable overload or the caller's own context expiry, where a
// second replica would either be hit by the same backpressure or
// arrive past the deadline anyway.
type Failover[T any] func(ctx context.Context, shard int) (T, error)

// ScatterFailover dispatches call to shards 0..n-1 concurrently and
// gathers every outcome. Each shard runs its own attempt loop:
// quarantine check, panic-contained call, retry with jittered backoff
// on retryable errors (within ctx's budget). ScatterFailover returns
// when every shard's loop has resolved. The deadline bound is
// cooperative: provided call honors its context's cancellation (the
// engine query paths poll it once per candidate and once per simplex
// pivot), each loop resolves no later than ctx's deadline plus one
// cancellation latency. A call that ignores its context — a stuck syscall, a hook
// that never checks ctx — blocks its shard's loop, and therefore the
// gather, until it returns; ScatterFailover deliberately waits rather
// than abandon it, because a cooperative call that outlives its
// deadline by one poll interval is how certified degraded partial
// answers arrive.
//
// When a shard's loop resolves to a hard fault or a quarantine skip
// and failover is non-nil, the shard's slice is served by its replica
// instead of being written off. A failover success clears the
// outcome's error and sets FailedOver; a failover failure annotates
// the primary's error (errors.Is still matches the primary fault).
// Health tracking is unaffected — the primary's fault is recorded
// either way, so quarantine and probing see the true primary state.
//
// health may be nil (no quarantine tracking) or hold one tracker per
// shard; failover may be nil (no follower).
func ScatterFailover[T any](ctx context.Context, n int, health []*Health, cfg Config, call func(ctx context.Context, shard, try int) (T, error), failover Failover[T]) []Outcome[T] {
	cfg = cfg.withDefaults()
	out := make([]Outcome[T], n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var h *Health
			if health != nil {
				h = health[s]
			}
			out[s] = runShard(ctx, s, h, cfg, call, failover)
		}(s)
	}
	wg.Wait()
	return out
}

// runShard is one shard's attempt loop.
func runShard[T any](ctx context.Context, shard int, h *Health, cfg Config, call func(ctx context.Context, shard, try int) (T, error), failover Failover[T]) Outcome[T] {
	out := Outcome[T]{Shard: shard}
	if h != nil && !h.Allow() {
		out.Skipped = true
		out.Err = ErrQuarantined
		tryFailover(ctx, shard, failover, &out)
		return out
	}
	for {
		v, err := safeCall(ctx, shard, out.Tries, call)
		out.Tries++
		if err == nil {
			if h != nil {
				h.Success()
			}
			out.Value = v
			out.Err = nil
			return out
		}
		out.Err = err
		if cfg.Retryable != nil && out.Tries < cfg.MaxAttempts && ctx.Err() == nil {
			if retry, after := cfg.Retryable(err); retry {
				if cfg.Backoff.Sleep(ctx, out.Retries, after) {
					out.Retries++
					continue
				}
			}
		}
		if cfg.Faulty == nil || cfg.Faulty(err) {
			if h != nil {
				h.Fault(err)
			}
			tryFailover(ctx, shard, failover, &out)
		}
		return out
	}
}

// tryFailover re-dispatches a failed shard to its follower, panic-
// contained like any other attempt. No-op when no failover is wired
// or the query's own budget is already spent.
func tryFailover[T any](ctx context.Context, shard int, failover Failover[T], out *Outcome[T]) {
	if failover == nil || ctx.Err() != nil {
		return
	}
	v, err := safeCall(ctx, shard, out.Tries, func(ctx context.Context, shard, _ int) (T, error) {
		return failover(ctx, shard)
	})
	if err != nil {
		out.Err = fmt.Errorf("%w (failover: %v)", out.Err, err)
		return
	}
	out.Value = v
	out.Err = nil
	out.FailedOver = true
}

// safeCall invokes call with panic containment.
func safeCall[T any](ctx context.Context, shard, try int, call func(ctx context.Context, shard, try int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Shard: shard, Value: p, Stack: debug.Stack()}
		}
	}()
	return call(ctx, shard, try)
}

// CarveBudget derives the per-shard query context from the caller's:
// with a caller deadline, the shard budget ends `reserve` before it so
// the gather and merge finish inside the caller's deadline (but never
// less than half the remaining time, so a tight deadline still reaches
// the shards); without one, the shards run unbounded but cancellable.
func CarveBudget(ctx context.Context, reserve time.Duration) (context.Context, context.CancelFunc) {
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		budget := remaining - reserve
		if budget < remaining/2 {
			budget = remaining / 2
		}
		return context.WithTimeout(ctx, budget)
	}
	return context.WithCancel(ctx)
}
