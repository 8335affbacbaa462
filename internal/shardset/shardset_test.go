package shardset

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"emdsearch/internal/admission"
)

// quarantined reports whether h holds its shard out of dispatch.
func quarantined(h *Health) bool { return h.brk.State() == admission.BreakerOpen }

// TestBackoffBounds pins the delay schedule: attempt i's delay lies in
// [nominal/2, nominal] with nominal = min(Cap, Base·2^i), for
// every attempt and across many draws. This is the thundering-herd
// contract — retries are capped AND decorrelated.
func TestBackoffBounds(t *testing.T) {
	b := &Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond}
	wantNominal := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond, 8 * time.Millisecond,
	}
	for attempt, nominal := range wantNominal {
		if got := b.Nominal(attempt); got != nominal {
			t.Fatalf("Nominal(%d) = %v, want %v", attempt, got, nominal)
		}
		lo := time.Duration(float64(nominal) * 0.5)
		for draw := 0; draw < 200; draw++ {
			d := b.Delay(attempt)
			if d < lo || d > nominal {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", attempt, d, lo, nominal)
			}
		}
	}
}

// TestBackoffJitterVaries asserts the delays are actually randomized:
// 50 draws of the same attempt must not all collapse to one value.
func TestBackoffJitterVaries(t *testing.T) {
	b := &Backoff{Base: time.Millisecond, Cap: time.Second}
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[b.Delay(3)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("50 jittered draws produced only %d distinct delays", len(seen))
	}
}

// TestBackoffZeroValueDefaults pins the defaults a zero Backoff takes:
// 1ms base, 250ms cap, half jitter.
func TestBackoffZeroValueDefaults(t *testing.T) {
	b := &Backoff{}
	if got := b.Nominal(0); got != time.Millisecond {
		t.Fatalf("default base = %v, want 1ms", got)
	}
	if got := b.Nominal(30); got != 250*time.Millisecond {
		t.Fatalf("default cap = %v, want 250ms", got)
	}
	d := b.Delay(30)
	if d < 125*time.Millisecond || d > 250*time.Millisecond {
		t.Fatalf("default jitter put Delay(30) = %v outside [125ms, 250ms]", d)
	}
}

// TestBackoffNoOverflow: very large attempt numbers must clamp to Cap,
// not wrap negative.
func TestBackoffNoOverflow(t *testing.T) {
	b := &Backoff{Base: time.Millisecond, Cap: time.Second}
	if got := b.Nominal(200); got != time.Second {
		t.Fatalf("Nominal(200) = %v, want cap 1s", got)
	}
}

// TestBackoffSleepHonorsFloor: a server-supplied retry-after below the
// jittered delay leaves the delay alone; above it, the floor wins.
func TestBackoffSleepHonorsFloor(t *testing.T) {
	b := &Backoff{Base: time.Microsecond, Cap: 2 * time.Microsecond}
	start := time.Now()
	if !b.Sleep(context.Background(), 0, 20*time.Millisecond) {
		t.Fatal("Sleep returned false without cancellation")
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("slept %v, want >= 20ms floor", elapsed)
	}
}

// TestBackoffSleepCancels: a cancelled context cuts the sleep short
// and reports false.
func TestBackoffSleepCancels(t *testing.T) {
	b := &Backoff{Base: time.Minute, Cap: time.Minute}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	if b.Sleep(ctx, 0, 0) {
		t.Fatal("Sleep reported full delay despite cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled sleep took %v", elapsed)
	}
}

// TestHealthQuarantineLifecycle drives the full quarantine state
// machine: consecutive faults open it, Allow suppresses dispatch,
// cooldown admits one probe, probe success closes it.
func TestHealthQuarantineLifecycle(t *testing.T) {
	h := NewHealth(3, 20*time.Millisecond)
	errBoom := errors.New("boom")
	for i := 0; i < 3; i++ {
		if !h.Allow() {
			t.Fatalf("fault %d: Allow = false before threshold", i)
		}
		h.Fault(errBoom)
	}
	if !quarantined(h) {
		t.Fatal("not quarantined after 3 consecutive faults")
	}
	if h.Allow() {
		t.Fatal("Allow admitted a dispatch while quarantined")
	}
	st := h.Stats()
	if st.State != "open" || st.Failures != 3 || st.Quarantines != 1 || st.Skips != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LastError != "boom" {
		t.Fatalf("LastError = %q", st.LastError)
	}

	time.Sleep(25 * time.Millisecond)
	if !h.Allow() {
		t.Fatal("cooldown elapsed but probe not admitted")
	}
	if h.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	h.Success()
	if h.State() != "closed" {
		t.Fatalf("state after probe success = %s, want closed", h.State())
	}
	if !h.Allow() {
		t.Fatal("healthy shard not admitted after re-admission")
	}
}

// TestHealthSuccessResetsStreak: interleaved successes keep the shard
// off quarantine no matter how many total faults accumulate.
func TestHealthSuccessResetsStreak(t *testing.T) {
	h := NewHealth(3, time.Minute)
	for i := 0; i < 10; i++ {
		h.Fault(errors.New("x"))
		h.Fault(errors.New("x"))
		h.Success()
	}
	if quarantined(h) {
		t.Fatal("quarantined despite success resetting every streak")
	}
}

// TestScatterAllHealthy: every shard answers, outcomes are positional,
// no retries fire.
func TestScatterAllHealthy(t *testing.T) {
	out := ScatterFailover(context.Background(), 4, nil, Config{}, func(_ context.Context, shard, try int) (int, error) {
		return shard * 10, nil
	}, nil)
	for s, o := range out {
		if o.Err != nil || o.Value != s*10 || o.Tries != 1 || o.Retries != 0 {
			t.Fatalf("shard %d outcome = %+v", s, o)
		}
	}
}

// TestScatterRetryHonorsRetryAfter: a transiently failing shard is
// retried after at least the server-supplied floor and then succeeds.
func TestScatterRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	var firstFail, retryAt time.Time
	cfg := Config{
		MaxAttempts: 3,
		Backoff:     &Backoff{Base: time.Microsecond, Cap: time.Microsecond},
		Retryable: func(err error) (bool, time.Duration) {
			return true, 15 * time.Millisecond
		},
	}
	out := ScatterFailover(context.Background(), 1, nil, cfg, func(_ context.Context, shard, try int) (string, error) {
		if calls.Add(1) == 1 {
			firstFail = time.Now()
			return "", errors.New("overloaded")
		}
		retryAt = time.Now()
		return "ok", nil
	}, nil)
	o := out[0]
	if o.Err != nil || o.Value != "ok" || o.Retries != 1 || o.Tries != 2 {
		t.Fatalf("outcome = %+v", o)
	}
	if gap := retryAt.Sub(firstFail); gap < 15*time.Millisecond {
		t.Fatalf("retried after %v, want >= 15ms RetryAfter floor", gap)
	}
}

// TestScatterNonRetryableFailsFast: an error the classifier rejects is
// not retried and feeds the health tracker.
func TestScatterNonRetryableFailsFast(t *testing.T) {
	health := []*Health{NewHealth(1, time.Minute)}
	var calls atomic.Int32
	cfg := Config{
		MaxAttempts: 5,
		Retryable:   func(err error) (bool, time.Duration) { return false, 0 },
	}
	out := ScatterFailover(context.Background(), 1, health, cfg, func(_ context.Context, shard, try int) (int, error) {
		calls.Add(1)
		return 0, errors.New("hard failure")
	}, nil)
	if calls.Load() != 1 {
		t.Fatalf("non-retryable error was attempted %d times", calls.Load())
	}
	if out[0].Err == nil {
		t.Fatal("error swallowed")
	}
	if !quarantined(health[0]) {
		t.Fatal("hard failure did not reach the health tracker")
	}
}

// TestScatterQuarantineSkips: a quarantined shard is skipped without a
// call; the others still answer.
func TestScatterQuarantineSkips(t *testing.T) {
	health := []*Health{NewHealth(1, time.Minute), NewHealth(1, time.Minute)}
	health[0].Fault(errors.New("dead"))
	var calls [2]atomic.Int32
	out := ScatterFailover(context.Background(), 2, health, Config{}, func(_ context.Context, shard, try int) (int, error) {
		calls[shard].Add(1)
		return shard, nil
	}, nil)
	if !out[0].Skipped || !errors.Is(out[0].Err, ErrQuarantined) || calls[0].Load() != 0 {
		t.Fatalf("quarantined shard outcome = %+v, calls = %d", out[0], calls[0].Load())
	}
	if out[1].Err != nil || out[1].Value != 1 {
		t.Fatalf("healthy shard outcome = %+v", out[1])
	}
}

// TestScatterPanicContained: a panicking shard resolves to a typed
// PanicError; the process and sibling shards are unaffected.
func TestScatterPanicContained(t *testing.T) {
	out := ScatterFailover(context.Background(), 2, nil, Config{}, func(_ context.Context, shard, try int) (int, error) {
		if shard == 0 {
			panic("injected shard fault")
		}
		return 7, nil
	}, nil)
	var pe *PanicError
	if !errors.As(out[0].Err, &pe) || pe.Shard != 0 || len(pe.Stack) == 0 {
		t.Fatalf("panic outcome = %+v", out[0])
	}
	if out[1].Err != nil || out[1].Value != 7 {
		t.Fatalf("sibling outcome = %+v", out[1])
	}
}

// TestScatterDeadlineBound: with a hung shard and a ctx deadline, the
// scatter resolves promptly after the deadline instead of hanging.
func TestScatterDeadlineBound(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	out := ScatterFailover(ctx, 1, nil, Config{}, func(ctx context.Context, shard, try int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}, nil)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("scatter blocked %v past a 20ms deadline", elapsed)
	}
	if !errors.Is(out[0].Err, context.DeadlineExceeded) {
		t.Fatalf("outcome err = %v", out[0].Err)
	}
}

// TestCarveBudget pins the carving rules: reserve comes off the top,
// but never more than half the remaining time; without a caller
// deadline the budget is unbounded but cancellable.
func TestCarveBudget(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	sctx, scancel := CarveBudget(parent, 10*time.Millisecond)
	defer scancel()
	dl, ok := sctx.Deadline()
	if !ok {
		t.Fatal("carved context lost the deadline")
	}
	if rem := time.Until(dl); rem > 92*time.Millisecond || rem < 40*time.Millisecond {
		t.Fatalf("carved remaining = %v, want ~90ms", rem)
	}

	// Reserve larger than the budget: keep half, not zero.
	tight, tcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer tcancel()
	sctx2, scancel2 := CarveBudget(tight, time.Hour)
	defer scancel2()
	dl2, _ := sctx2.Deadline()
	if rem := time.Until(dl2); rem < 2*time.Millisecond || rem > 10*time.Millisecond {
		t.Fatalf("half-floor remaining = %v, want ~5ms", rem)
	}

	// No caller deadline: unbounded but cancellable.
	sctx4, scancel4 := CarveBudget(context.Background(), 0)
	if _, ok := sctx4.Deadline(); ok {
		t.Fatal("deadline appeared from nowhere")
	}
	scancel4()
	if sctx4.Err() == nil {
		t.Fatal("cancel did not propagate")
	}
}

// TestScatterManyShardsStress runs a wide scatter with mixed outcomes
// under the race detector: some shards answer, some retry, some panic,
// some are quarantined.
func TestScatterManyShardsStress(t *testing.T) {
	n := 16
	health := make([]*Health, n)
	for i := range health {
		health[i] = NewHealth(2, time.Minute)
	}
	health[3].Fault(errors.New("a"))
	health[3].Fault(errors.New("b")) // quarantined up-front
	var failed atomic.Int32
	cfg := Config{
		MaxAttempts: 3,
		Backoff:     &Backoff{Base: time.Microsecond, Cap: 10 * time.Microsecond},
		Retryable:   func(err error) (bool, time.Duration) { return err.Error() == "transient", 0 },
	}
	out := ScatterFailover(context.Background(), n, health, cfg, func(_ context.Context, shard, try int) (int, error) {
		switch {
		case shard == 3:
			t.Error("quarantined shard was dispatched")
			return 0, nil
		case shard == 5:
			panic("chaos")
		case shard%4 == 1 && try == 0:
			return 0, errors.New("transient")
		case shard == 7:
			failed.Add(1)
			return 0, errors.New("hard")
		default:
			return shard, nil
		}
	}, nil)
	for s, o := range out {
		switch {
		case s == 3:
			if !o.Skipped {
				t.Errorf("shard 3 not skipped: %+v", o)
			}
		case s == 5:
			var pe *PanicError
			if !errors.As(o.Err, &pe) {
				t.Errorf("shard 5 err = %v", o.Err)
			}
		case s == 7:
			if o.Err == nil || o.Retries != 0 {
				t.Errorf("shard 7 outcome = %+v", o)
			}
		case s%4 == 1:
			if o.Err != nil || o.Retries != 1 {
				t.Errorf("shard %d (transient) outcome = %+v", s, o)
			}
		default:
			if o.Err != nil || o.Value != s {
				t.Errorf("shard %d outcome = %+v", s, o)
			}
		}
	}
	_ = fmt.Sprint(failed.Load())
}
