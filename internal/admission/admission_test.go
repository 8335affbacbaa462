package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLimiterAdmitFastPath(t *testing.T) {
	l := New(Config{MaxConcurrent: 2, MaxQueue: 2})
	t1, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if t1.Level() != LevelAdmit {
		t.Fatalf("level = %v, want admit", t1.Level())
	}
	t1.Release()
	st := l.Stats()
	if st.Admitted != 1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want Admitted=1 InFlight=0", st)
	}
}

func TestLimiterQueueFullSheds(t *testing.T) {
	l := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	t1 := l.TryAcquire()
	if t1 == nil {
		t.Fatal("TryAcquire: no slot on empty limiter")
	}
	// Occupy the single queue position with a blocked waiter.
	waiterIn := make(chan struct{})
	go func() {
		tk, err := l.Acquire(context.Background())
		if err != nil {
			t.Errorf("queued Acquire: %v", err)
			return
		}
		close(waiterIn)
		tk.Release()
	}()
	// Wait until the waiter is registered.
	for i := 0; l.Stats().QueueDepth == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if l.Stats().QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1", l.Stats().QueueDepth)
	}

	start := time.Now()
	_, err := l.Acquire(context.Background())
	elapsed := time.Since(start)
	var ov *Overload
	if !errors.As(err, &ov) {
		t.Fatalf("Acquire over queue = %v, want *Overload", err)
	}
	if ov.Reason != "queue full" {
		t.Fatalf("reason = %q, want queue full", ov.Reason)
	}
	if ov.QueueDepth != 1 {
		t.Fatalf("QueueDepth = %d, want 1", ov.QueueDepth)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("shed took %v, want sub-millisecond-scale rejection", elapsed)
	}

	t1.Release()
	<-waiterIn
	st := l.Stats()
	if st.Shed != 1 || st.Queued != 1 {
		t.Fatalf("stats = %+v, want Shed=1 Queued=1", st)
	}
}

func TestLimiterDeadlinePlausibility(t *testing.T) {
	l := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	// Seed the service-time estimate: 100ms per query.
	l.svcNS.Store(int64(100 * time.Millisecond))

	t1 := l.TryAcquire()
	if t1 == nil {
		t.Fatal("no initial slot")
	}
	defer t1.Release()

	// 1ms of patience against a ~100ms estimated wait: reject now.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := l.Acquire(ctx)
	elapsed := time.Since(start)
	var ov *Overload
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want *Overload", err)
	}
	if ov.Reason != "deadline would expire before start" {
		t.Fatalf("reason = %q", ov.Reason)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", ov.RetryAfter)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("plausibility shed took %v, want immediate", elapsed)
	}
	// A deadline-free request still queues.
	done := make(chan struct{})
	go func() {
		tk, err := l.Acquire(context.Background())
		if err != nil {
			t.Errorf("deadline-free Acquire: %v", err)
		} else {
			tk.Release()
		}
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	t1.Release()
	<-done
}

func TestLimiterCancelWhileQueued(t *testing.T) {
	l := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	t1 := l.TryAcquire()
	if t1 == nil {
		t.Fatal("no initial slot")
	}
	defer t1.Release()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := l.Acquire(ctx)
		errc <- err
	}()
	for i := 0; l.Stats().QueueDepth == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-errc
	var ov *Overload
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want *Overload", err)
	}
	if l.Stats().QueueDepth != 0 {
		t.Fatalf("queue depth = %d after cancel, want 0", l.Stats().QueueDepth)
	}
}

func TestLimiterDegradeLevel(t *testing.T) {
	// MaxQueue 4 at the 0.5 degrade fraction → degrade from queue depth 2.
	l := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	t1 := l.TryAcquire()
	if t1 == nil {
		t.Fatal("no initial slot")
	}

	levels := make(chan Level, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := l.Acquire(context.Background())
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			levels <- tk.Level()
			tk.Release()
		}()
		// Stagger so queue positions are deterministic.
		for l.Stats().QueueDepth <= i {
			time.Sleep(time.Millisecond)
		}
	}
	t1.Release()
	wg.Wait()
	close(levels)
	var queue, degrade int
	for lv := range levels {
		switch lv {
		case LevelQueue:
			queue++
		case LevelDegrade:
			degrade++
		default:
			t.Fatalf("unexpected level %v", lv)
		}
	}
	// Position 1 queued; positions 2 and 3 (>= degradeAt=2) degraded.
	if queue != 1 || degrade != 2 {
		t.Fatalf("queue=%d degrade=%d, want 1 and 2", queue, degrade)
	}
}

func TestLimiterReleaseIdempotent(t *testing.T) {
	l := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	tk := l.TryAcquire()
	if tk == nil {
		t.Fatal("no slot")
	}
	tk.Release()
	tk.Release() // must not double-free the slot
	if got := l.TryAcquire(); got == nil {
		t.Fatal("slot not returned after release")
	} else if l.TryAcquire() != nil {
		t.Fatal("double release freed two slots")
	}
}

func TestLimiterConcurrentAccounting(t *testing.T) {
	l := New(Config{MaxConcurrent: 4, MaxQueue: 8})
	const n = 200
	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := l.Acquire(context.Background())
			if err != nil {
				var ov *Overload
				if !errors.As(err, &ov) {
					t.Errorf("non-overload error: %v", err)
				}
				shed.Add(1)
				return
			}
			time.Sleep(100 * time.Microsecond)
			tk.Release()
			ok.Add(1)
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("leaked accounting: %+v", st)
	}
	if st.Admitted+st.Queued != ok.Load() {
		t.Fatalf("admitted+queued = %d, want %d", st.Admitted+st.Queued, ok.Load())
	}
	if st.Shed != shed.Load() {
		t.Fatalf("shed = %d, want %d", st.Shed, shed.Load())
	}
	if ok.Load()+shed.Load() != n {
		t.Fatalf("resolved = %d, want every request accounted for (%d)", ok.Load()+shed.Load(), n)
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	b := NewBreaker(3, 10*time.Millisecond)
	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}
	b.Fault()
	b.Fault()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after 2/3 faults, want closed", b.State())
	}
	b.Fault()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after 3 faults, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker must deny before cooldown")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}

	time.Sleep(15 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooled breaker must admit one probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second request during probe must degrade")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after probe success, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}
}

func TestBreakerProbeFaultReopens(t *testing.T) {
	b := NewBreaker(1, 5*time.Millisecond)
	b.Fault()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	time.Sleep(10 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe denied")
	}
	b.Fault()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after probe fault, want open again", b.State())
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(2, time.Second)
	b.Fault()
	b.Success()
	b.Fault()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed (streak reset by success)", b.State())
	}
	b.Fault()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open after 2 consecutive", b.State())
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{
		LevelAdmit: "admit", LevelQueue: "queue",
		LevelDegrade: "degrade", LevelShed: "shed",
	} {
		if lv.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(lv), lv.String(), want)
		}
	}
}
