package shardset

import (
	"context"
	"testing"
	"time"
)

// These tests pin the backoff bounds the scatter retry loop and the
// replica shipper rely on at the edges of the config space: shift
// overflow far past any sane attempt count, caps below the base,
// server-supplied floors above the cap, and zero/negative configs.

// TestBackoffOverflowPastShiftPoint: doubling a duration 63+ times
// wraps int64; every attempt past the overflow point must clamp to
// Cap, never go zero or negative.
func TestBackoffOverflowPastShiftPoint(t *testing.T) {
	b := &Backoff{Base: time.Millisecond, Cap: time.Second}
	for _, attempt := range []int{62, 63, 64, 100, 1 << 20} {
		if got := b.Nominal(attempt); got != time.Second {
			t.Fatalf("Nominal(%d) = %v, want cap %v", attempt, got, time.Second)
		}
	}
	// A base already huge enough that the FIRST doubling overflows.
	huge := &Backoff{Base: time.Duration(1) << 62, Cap: time.Second}
	if got := huge.Nominal(1); got != time.Second {
		t.Fatalf("huge base Nominal(1) = %v, want cap", got)
	}
	if got := huge.Nominal(2); got != time.Second {
		t.Fatalf("huge base Nominal(2) = %v, want cap", got)
	}
}

// TestBackoffCapBelowBase: a cap smaller than the base clamps every
// attempt — including attempt 0 — to the cap.
func TestBackoffCapBelowBase(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Cap: 10 * time.Millisecond}
	for attempt := 0; attempt < 5; attempt++ {
		if got := b.Nominal(attempt); got != 10*time.Millisecond {
			t.Fatalf("Nominal(%d) = %v, want cap 10ms", attempt, got)
		}
		if got := b.Delay(attempt); got < 5*time.Millisecond || got > 10*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want within [5ms, 10ms] of the 10ms cap", attempt, got)
		}
	}
}

// TestBackoffNegativeConfigDefaults: negative Base/Cap take the same
// defaults as zero — the scatter loop must never compute from a
// negative schedule.
func TestBackoffNegativeConfigDefaults(t *testing.T) {
	b := &Backoff{Base: -time.Second, Cap: -time.Second}
	if got := b.Nominal(0); got != time.Millisecond {
		t.Fatalf("negative base Nominal(0) = %v, want default 1ms", got)
	}
	for attempt := 0; attempt < 64; attempt++ {
		n := b.Nominal(attempt)
		if n <= 0 || n > 250*time.Millisecond {
			t.Fatalf("negative config Nominal(%d) = %v, out of (0, 250ms]", attempt, n)
		}
		d := b.Delay(attempt)
		if d < 0 || d > n {
			t.Fatalf("negative config Delay(%d) = %v, nominal %v", attempt, d, n)
		}
	}
}

// TestBackoffNegativeAttempt: attempts < 0 count as attempt 0.
func TestBackoffNegativeAttempt(t *testing.T) {
	b := &Backoff{Base: 4 * time.Millisecond, Cap: time.Second}
	if got := b.Nominal(-5); got != 4*time.Millisecond {
		t.Fatalf("Nominal(-5) = %v, want base", got)
	}
}

// TestBackoffSleepFloorAboveCap: a server-supplied RetryAfter floor
// larger than the cap must win — the server's guidance is a lower
// bound on when a retry can succeed, and truncating it to the cap
// would guarantee a wasted attempt.
func TestBackoffSleepFloorAboveCap(t *testing.T) {
	b := &Backoff{Base: time.Microsecond, Cap: 2 * time.Microsecond}
	floor := 30 * time.Millisecond
	start := time.Now()
	if !b.Sleep(context.Background(), 0, floor) {
		t.Fatal("Sleep reported cancellation without one")
	}
	if elapsed := time.Since(start); elapsed < floor {
		t.Fatalf("Sleep honored only %v of a %v floor above the cap", elapsed, floor)
	}
}

// TestBackoffSleepTinyDelay: a nanosecond-scale schedule (after
// clamping) still sleeps and returns promptly, and a pre-cancelled
// context stops a long sleep immediately.
func TestBackoffSleepTinyDelay(t *testing.T) {
	b := &Backoff{Base: time.Nanosecond, Cap: time.Nanosecond}
	if !b.Sleep(context.Background(), 0, 0) {
		t.Fatal("Sleep with live context reported cancellation")
	}
	long := &Backoff{Base: time.Hour, Cap: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if long.Sleep(ctx, 0, 0) {
		t.Fatal("Sleep with cancelled context reported the delay elapsed")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancelled Sleep did not return promptly")
	}
}
