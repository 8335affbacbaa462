// Package shardset holds the fault-tolerance machinery behind the
// public ShardSet type: jittered capped retry backoff, a per-shard
// health tracker with quarantine and probing re-admission, and a
// scatter executor that dispatches one query to many shards under
// carved deadline budgets with retries and panic containment.
//
// The package is deliberately ignorant of EMD search: it moves
// opaque results around so its policies can be unit-tested (and bound
// proofs pinned) without building an engine.
package shardset

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// jitter is the fraction of a nominal backoff delay randomized away.
const jitter = 0.5

// Backoff computes jittered, capped exponential retry delays. The
// nominal delay of attempt i (0-based) is min(Cap, Base·2^i); the
// returned delay is drawn uniformly from [nominal/2, nominal], seeded
// from the clock. The jitter decorrelates retries across shards and
// callers — N shards reopening their WALs or retrying an overloaded
// peer after the same fault would otherwise stampede in lockstep at
// exactly Base, 2·Base, 4·Base, ...
//
// A Backoff is safe for concurrent use.
type Backoff struct {
	// Base is the nominal delay of attempt 0; <= 0 defaults to 1ms.
	Base time.Duration
	// Cap bounds the nominal delay; <= 0 defaults to 250ms.
	Cap time.Duration

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

func (b *Backoff) init() {
	b.once.Do(func() {
		if b.Base <= 0 {
			b.Base = time.Millisecond
		}
		if b.Cap <= 0 {
			b.Cap = 250 * time.Millisecond
		}
		b.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	})
}

// Nominal returns the un-jittered delay of attempt i: min(Cap,
// Base·2^i). Attempts < 0 count as 0.
func (b *Backoff) Nominal(attempt int) time.Duration {
	b.init()
	if attempt < 0 {
		attempt = 0
	}
	d := b.Base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= b.Cap || d <= 0 { // d <= 0 guards shift overflow
			return b.Cap
		}
	}
	if d > b.Cap {
		d = b.Cap
	}
	return d
}

// Delay returns the jittered delay for attempt i, uniform in
// [Nominal/2, Nominal].
func (b *Backoff) Delay(attempt int) time.Duration {
	nominal := b.Nominal(attempt)
	b.mu.Lock()
	f := b.rng.Float64()
	b.mu.Unlock()
	lo := float64(nominal) * (1 - jitter)
	return time.Duration(lo + f*(float64(nominal)-lo))
}

// Sleep blocks for the attempt's jittered delay (at least floor, when
// a server supplied retry-after guidance) or until ctx is done,
// whichever comes first. It reports whether the full delay elapsed;
// false means the context was cancelled and the caller should stop
// retrying.
func (b *Backoff) Sleep(ctx context.Context, attempt int, floor time.Duration) bool {
	d := b.Delay(attempt)
	if floor > d {
		d = floor
	}
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
