// Package admission implements overload control for query serving: a
// bounded concurrency limiter with a bounded, deadline-aware wait
// queue, explicit pressure levels (admit → queue → degrade → shed),
// and a fault breaker that converts repeated contained invariant
// failures into a degraded serving mode instead of a crash loop.
//
// The limiter's job is to make overload fail *fast and selectively*:
// when offered load exceeds capacity, a bounded number of queries wait
// (briefly — the queue is sized so waiting stays comparable to one
// service time), queries that would provably miss their deadline in
// the queue are rejected immediately with retry guidance, and the rest
// are shed in well under a millisecond instead of piling up and
// collapsing tail latency for everyone.
package admission

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Level is the admission outcome class of one request — the pressure
// level it was served (or rejected) at.
type Level int

const (
	// LevelAdmit: a free slot was available; the request ran
	// immediately with no queueing.
	LevelAdmit Level = iota
	// LevelQueue: the request waited in the bounded queue for a slot
	// and was served at full quality.
	LevelQueue
	// LevelDegrade: the request waited under high queue pressure; the
	// caller should serve it in degraded form (e.g. a tightened
	// per-query budget yielding a certified anytime answer) to shed
	// work without shedding the request.
	LevelDegrade
	// LevelShed: the request was rejected — queue full, or its
	// deadline would provably have expired before it could start.
	LevelShed
)

// String names the level for logs and reports.
func (l Level) String() string {
	switch l {
	case LevelAdmit:
		return "admit"
	case LevelQueue:
		return "queue"
	case LevelDegrade:
		return "degrade"
	case LevelShed:
		return "shed"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Overload is the typed rejection of a shed request. It carries the
// state a client needs to back off intelligently.
type Overload struct {
	// QueueDepth is the number of requests waiting when this one was
	// rejected; InFlight the number running.
	QueueDepth int
	InFlight   int
	// RetryAfter is the limiter's estimate of when capacity will be
	// available again (roughly the time to drain the current queue).
	RetryAfter time.Duration
	// Reason says why the request was shed: "queue full" or "deadline
	// would expire before start".
	Reason string
}

func (o *Overload) Error() string {
	return fmt.Sprintf("admission: overloaded (%s): %d queued, %d in flight, retry after %v",
		o.Reason, o.QueueDepth, o.InFlight, o.RetryAfter)
}

// Config sizes a Limiter. The zero value is usable: every field has a
// sensible default.
type Config struct {
	// MaxConcurrent bounds the requests running at once; <= 0 defaults
	// to GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds the requests waiting for a slot; <= 0 defaults
	// to 2 × MaxConcurrent. Small on purpose: a deep queue converts
	// overload into latency instead of fast failure.
	MaxQueue int
}

// degradeFraction is the queue-occupancy fraction at which admitted
// requests are flagged LevelDegrade.
const degradeFraction = 0.5

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	return c
}

// Stats is a point-in-time snapshot of a limiter's counters and
// gauges.
type Stats struct {
	// Admitted counts requests that got a slot without waiting; Queued
	// those that waited and got one; Shed those rejected (queue full,
	// implausible deadline, or cancelled while waiting).
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	Shed     int64 `json:"shed"`
	// QueueDepth and InFlight are current gauges.
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	// WaitTime is the cumulative time requests spent queued;
	// WaitTime/Queued is the average queue wait.
	WaitTime time.Duration `json:"wait_time_ns"`
	// EstServiceTime is the limiter's moving estimate of one request's
	// service time, the basis of deadline-plausibility rejection.
	EstServiceTime time.Duration `json:"est_service_time_ns"`
}

// Limiter is the bounded concurrency limiter. Safe for concurrent use.
type Limiter struct {
	cfg       Config
	slots     chan struct{}
	degradeAt int64 // queue depth at which admissions turn LevelDegrade

	waiting  atomic.Int64
	inflight atomic.Int64
	svcNS    atomic.Int64 // EWMA of observed service time
	waitNS   atomic.Int64
	admitted atomic.Int64
	queued   atomic.Int64
	shed     atomic.Int64
}

// New creates a limiter from cfg (zero-value fields take defaults).
func New(cfg Config) *Limiter {
	cfg = cfg.withDefaults()
	da := int64(degradeFraction * float64(cfg.MaxQueue))
	if da < 1 {
		da = 1
	}
	return &Limiter{
		cfg:       cfg,
		slots:     make(chan struct{}, cfg.MaxConcurrent),
		degradeAt: da,
	}
}

// Ticket is one admitted request's lease on a slot. Release must be
// called exactly once when the request finishes (it is idempotent —
// extra calls are no-ops).
type Ticket struct {
	l        *Limiter
	level    Level
	start    time.Time
	released atomic.Bool
}

// Level reports how the request was admitted: LevelAdmit (no wait),
// LevelQueue, or LevelDegrade (waited under high pressure; serve
// degraded).
func (t *Ticket) Level() Level { return t.level }

// Release returns the slot and feeds the observed service time into
// the limiter's estimate.
func (t *Ticket) Release() {
	if !t.released.CompareAndSwap(false, true) {
		return
	}
	svc := time.Since(t.start)
	// EWMA with alpha = 1/8: old + (new-old)/8, updated race-tolerantly
	// (a lost update skews the estimate by one sample at most).
	old := t.l.svcNS.Load()
	t.l.svcNS.Store(old + (int64(svc)-old)/8)
	t.l.inflight.Add(-1)
	<-t.l.slots
}

// estWaitFor estimates how long a request entering the queue behind
// `depth` waiters will wait for a slot: every MaxConcurrent drains take
// about one service time. With no service history yet the estimate is
// zero — a cold limiter never rejects on plausibility grounds.
func (l *Limiter) estWaitFor(depth int64) time.Duration {
	svc := l.svcNS.Load()
	rounds := (depth + int64(l.cfg.MaxConcurrent)) / int64(l.cfg.MaxConcurrent)
	return time.Duration(rounds * svc)
}

// overload builds the typed rejection for the current state.
func (l *Limiter) overload(reason string) *Overload {
	depth := int(l.waiting.Load())
	return &Overload{
		QueueDepth: depth,
		InFlight:   int(l.inflight.Load()),
		RetryAfter: l.estWaitFor(int64(depth)),
		Reason:     reason,
	}
}

// TryAcquire is the non-blocking fast path: a Ticket at LevelAdmit if
// a slot is free, nil otherwise. It never queues and never sheds.
func (l *Limiter) TryAcquire() *Ticket {
	select {
	case l.slots <- struct{}{}:
		l.admitted.Add(1)
		l.inflight.Add(1)
		return &Ticket{l: l, level: LevelAdmit, start: time.Now()}
	default:
		return nil
	}
}

// Acquire admits the request, queues it within bounds, or sheds it.
// The returned error, when non-nil, is always a *Overload; a request
// is never queued past its own deadline — if ctx's deadline would
// provably expire before a slot could plausibly free up, Acquire
// rejects immediately (in microseconds, not after the deadline), and
// a request whose context is cancelled while it waits is unqueued and
// shed at that moment.
func (l *Limiter) Acquire(ctx context.Context) (*Ticket, error) {
	if t := l.TryAcquire(); t != nil {
		return t, nil
	}

	// Claim a queue position atomically; over MaxQueue means shed.
	depth := l.waiting.Add(1)
	if depth > int64(l.cfg.MaxQueue) {
		l.waiting.Add(-1)
		l.shed.Add(1)
		return nil, l.overload("queue full")
	}
	// Deadline plausibility: reject now rather than letting the
	// request die in the queue and waste its slot on arrival.
	if dl, ok := ctx.Deadline(); ok {
		if est := l.estWaitFor(depth - 1); est > 0 && time.Until(dl) < est {
			l.waiting.Add(-1)
			l.shed.Add(1)
			return nil, l.overload("deadline would expire before start")
		}
	}
	level := LevelQueue
	if depth >= l.degradeAt {
		level = LevelDegrade
	}

	t0 := time.Now()
	select {
	case l.slots <- struct{}{}:
		l.waiting.Add(-1)
		waited := time.Since(t0)
		l.waitNS.Add(int64(waited))
		l.queued.Add(1)
		l.inflight.Add(1)
		return &Ticket{l: l, level: level, start: time.Now()}, nil
	case <-ctx.Done():
		l.waiting.Add(-1)
		l.shed.Add(1)
		ov := l.overload("cancelled while queued")
		ov.Reason = fmt.Sprintf("cancelled while queued: %v", ctx.Err())
		return nil, ov
	}
}

// Stats snapshots the limiter's counters and gauges.
func (l *Limiter) Stats() Stats {
	return Stats{
		Admitted:       l.admitted.Load(),
		Queued:         l.queued.Load(),
		Shed:           l.shed.Load(),
		QueueDepth:     int(l.waiting.Load()),
		InFlight:       int(l.inflight.Load()),
		WaitTime:       time.Duration(l.waitNS.Load()),
		EstServiceTime: time.Duration(l.svcNS.Load()),
	}
}
