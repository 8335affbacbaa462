package shardset

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var errPrimaryDown = errors.New("primary down")

func failoverCfg() Config {
	return Config{
		MaxAttempts: 1,
		Backoff:     &Backoff{Base: time.Microsecond, Cap: time.Microsecond},
	}
}

// TestScatterFailoverOnHardFault: a hard primary fault re-dispatches
// to the follower; the outcome resolves successfully, marked
// FailedOver, and the primary's fault still lands in health.
func TestScatterFailoverOnHardFault(t *testing.T) {
	health := []*Health{NewHealth(3, time.Minute)}
	var followerCalls atomic.Int64
	out := ScatterFailover(context.Background(), 1, health, failoverCfg(),
		func(ctx context.Context, shard, try int) (string, error) {
			return "", errPrimaryDown
		},
		func(ctx context.Context, shard int) (string, error) {
			followerCalls.Add(1)
			return fmt.Sprintf("follower-%d", shard), nil
		})
	o := out[0]
	if o.Err != nil || !o.FailedOver || o.Value != "follower-0" {
		t.Fatalf("outcome %+v, want failed-over follower answer", o)
	}
	if o.Skipped || o.Tries != 1 {
		t.Fatalf("outcome %+v: failover must not count as a try or a skip", o)
	}
	if followerCalls.Load() != 1 {
		t.Fatalf("follower called %d times, want 1", followerCalls.Load())
	}
	if st := health[0].Stats(); st.Failures != 1 {
		t.Fatalf("primary fault not recorded: %+v", st)
	}
}

// TestScatterFailoverOnQuarantineSkip: a quarantined shard's slice is
// served by the follower without touching the primary.
func TestScatterFailoverOnQuarantineSkip(t *testing.T) {
	h := NewHealth(1, time.Minute)
	h.Fault(errPrimaryDown) // trip the quarantine
	if !quarantined(h) {
		t.Fatal("setup: shard not quarantined")
	}
	var primaryCalls atomic.Int64
	out := ScatterFailover(context.Background(), 1, []*Health{h}, failoverCfg(),
		func(ctx context.Context, shard, try int) (string, error) {
			primaryCalls.Add(1)
			return "primary", nil
		},
		func(ctx context.Context, shard int) (string, error) {
			return "follower", nil
		})
	o := out[0]
	if !o.Skipped || !o.FailedOver || o.Err != nil || o.Value != "follower" {
		t.Fatalf("outcome %+v, want skipped primary served by follower", o)
	}
	if primaryCalls.Load() != 0 {
		t.Fatal("quarantined primary was dispatched to")
	}
}

// TestScatterFailoverFailureAnnotates: when the follower also fails,
// the outcome keeps the primary's error identity (errors.Is) with the
// failover failure annotated.
func TestScatterFailoverFailureAnnotates(t *testing.T) {
	out := ScatterFailover(context.Background(), 1, nil, failoverCfg(),
		func(ctx context.Context, shard, try int) (string, error) {
			return "", errPrimaryDown
		},
		func(ctx context.Context, shard int) (string, error) {
			return "", errors.New("follower also down")
		})
	o := out[0]
	if o.FailedOver || o.Err == nil {
		t.Fatalf("outcome %+v, want dual failure", o)
	}
	if !errors.Is(o.Err, errPrimaryDown) {
		t.Fatalf("error lost primary identity: %v", o.Err)
	}
	if got := o.Err.Error(); !strings.Contains(got, "failover") || !strings.Contains(got, "follower also down") {
		t.Fatalf("failover failure not annotated: %v", got)
	}
}

// TestScatterFailoverSkippedForNonFaulty: errors the Faulty classifier
// exempts (backpressure, caller deadline) must not fail over — a
// replica would be hit by the same overload or arrive too late.
func TestScatterFailoverSkippedForNonFaulty(t *testing.T) {
	var followerCalls atomic.Int64
	cfg := failoverCfg()
	cfg.Faulty = func(err error) bool { return false }
	out := ScatterFailover(context.Background(), 1, nil, cfg,
		func(ctx context.Context, shard, try int) (string, error) {
			return "", errPrimaryDown
		},
		func(ctx context.Context, shard int) (string, error) {
			followerCalls.Add(1)
			return "follower", nil
		})
	if out[0].FailedOver || out[0].Err == nil || followerCalls.Load() != 0 {
		t.Fatalf("non-faulty error failed over: %+v (follower calls %d)", out[0], followerCalls.Load())
	}
}

// TestScatterFailoverPanicContained: a panicking follower degrades to
// a dual failure, never a crash.
func TestScatterFailoverPanicContained(t *testing.T) {
	out := ScatterFailover(context.Background(), 1, nil, failoverCfg(),
		func(ctx context.Context, shard, try int) (string, error) {
			return "", errPrimaryDown
		},
		func(ctx context.Context, shard int) (string, error) {
			panic("follower exploded")
		})
	o := out[0]
	if o.FailedOver || o.Err == nil || !errors.Is(o.Err, errPrimaryDown) {
		t.Fatalf("outcome %+v, want contained dual failure", o)
	}
	if !strings.Contains(o.Err.Error(), "panicked") {
		t.Fatalf("panic not surfaced in error: %v", o.Err)
	}
}

// TestHealthTransitionLifecycle walks a shard through closed → open →
// half-open → closed and asserts the transition clock tracks each
// edge.
func TestHealthTransitionLifecycle(t *testing.T) {
	h := NewHealth(2, 20*time.Millisecond)
	st := h.Stats()
	if st.State != "closed" || st.LastTransition.IsZero() {
		t.Fatalf("fresh tracker: %+v", st)
	}
	born := st.LastTransition
	time.Sleep(2 * time.Millisecond)
	if st = h.Stats(); st.TimeInState <= 0 {
		t.Fatalf("time-in-state not advancing: %+v", st)
	}
	if !st.LastTransition.Equal(born) {
		t.Fatal("transition clock moved without a state change")
	}

	h.Fault(errPrimaryDown)
	h.Fault(errPrimaryDown) // trips open
	st = h.Stats()
	if st.State != "open" || !st.LastTransition.After(born) {
		t.Fatalf("after trip: %+v (born %v)", st, born)
	}
	tripped := st.LastTransition

	time.Sleep(25 * time.Millisecond) // past cooldown: next Allow probes
	if !h.Allow() {
		t.Fatal("cooled-down shard denied its probe")
	}
	st = h.Stats()
	if st.State != "half-open" || !st.LastTransition.After(tripped) {
		t.Fatalf("probing: %+v", st)
	}
	probing := st.LastTransition

	h.Success()
	st = h.Stats()
	if st.State != "closed" || st.LastTransition.Before(probing) {
		t.Fatalf("after recovery: %+v", st)
	}
	if st.Quarantines != 1 {
		t.Fatalf("quarantine count %d, want 1", st.Quarantines)
	}
}
