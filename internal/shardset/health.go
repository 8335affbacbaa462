package shardset

import (
	"sync"
	"time"

	"emdsearch/internal/admission"
)

// Health tracks one shard's availability with a consecutive-failure
// quarantine: hard failures (errors, panics, exhausted retries) feed
// Fault, and after `threshold` consecutive faults the shard is
// quarantined — Allow reports false and the scatter layer skips the
// shard instead of burning its deadline budget on it. After the
// cooldown a single probe query is re-admitted; its success lifts the
// quarantine, its failure re-arms it for another cooldown. The state
// machine is admission.Breaker's — this type adds shard-level
// accounting on top.
//
// Deadline-degraded answers are deliberately NOT faults: a slow shard
// that still returns certified partial answers is serving, and
// quarantining it would discard sound coverage. Only a shard that
// returns nothing (error, panic, timeout of every retry) counts
// against the threshold.
//
// Safe for concurrent use.
type Health struct {
	brk *admission.Breaker

	mu             sync.Mutex
	successes      int64
	failures       int64
	skips          int64 // dispatches suppressed while quarantined
	lastErr        error
	lastFault      time.Time
	lastState      string
	lastTransition time.Time
}

// NewHealth builds a tracker that quarantines after `threshold`
// consecutive failures (min 1) and probes again after `cooldown`
// (min 1ms).
func NewHealth(threshold int, cooldown time.Duration) *Health {
	h := &Health{brk: admission.NewBreaker(threshold, cooldown)}
	h.lastState = h.brk.State().String()
	h.lastTransition = time.Now()
	return h
}

// noteStateLocked records a state-transition timestamp when the
// breaker's state differs from the last one observed. The open →
// half-open edge happens passively on cooldown expiry, so transition
// times are observation times: exact for the edges this type drives
// (Fault trips, Success lifts) and no later than the next dispatch or
// stats read for the passive one.
func (h *Health) noteStateLocked() {
	s := h.brk.State().String()
	if s != h.lastState {
		h.lastState = s
		h.lastTransition = time.Now()
	}
}

// Allow reports whether the shard may be dispatched to. While
// quarantined it returns false until the cooldown elapses, then
// admits exactly one probe.
func (h *Health) Allow() bool {
	ok := h.brk.Allow()
	h.mu.Lock()
	if !ok {
		h.skips++
	}
	h.noteStateLocked()
	h.mu.Unlock()
	return ok
}

// Success records a served dispatch (full or certified-degraded).
func (h *Health) Success() {
	h.brk.Success()
	h.mu.Lock()
	h.successes++
	h.noteStateLocked()
	h.mu.Unlock()
}

// Fault records a hard failure with its error.
func (h *Health) Fault(err error) {
	h.brk.Fault()
	h.mu.Lock()
	h.failures++
	h.lastErr = err
	h.lastFault = time.Now()
	h.noteStateLocked()
	h.mu.Unlock()
}

// State returns the quarantine state string: "closed" (healthy),
// "open" (quarantined) or "half-open" (probing re-admission).
func (h *Health) State() string { return h.brk.State().String() }

// Stats is a point-in-time copy of the tracker's counters.
type Stats struct {
	State       string    `json:"state"`
	Successes   int64     `json:"successes"`
	Failures    int64     `json:"failures"`
	Skips       int64     `json:"skips"`
	Quarantines int64     `json:"quarantines"`
	LastError   string    `json:"last_error,omitempty"`
	LastFault   time.Time `json:"last_fault,omitempty"`
	// LastTransition is when the tracker last observed the state
	// change; TimeInState is the age of the current state at the
	// snapshot — how long a shard has been quarantined (or healthy).
	LastTransition time.Time     `json:"last_transition"`
	TimeInState    time.Duration `json:"time_in_state"`
}

// Stats snapshots the tracker.
func (h *Health) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.noteStateLocked()
	st := Stats{
		State:          h.lastState,
		Successes:      h.successes,
		Failures:       h.failures,
		Skips:          h.skips,
		Quarantines:    h.brk.Trips(),
		LastFault:      h.lastFault,
		LastTransition: h.lastTransition,
		TimeInState:    time.Since(h.lastTransition),
	}
	if h.lastErr != nil {
		st.LastError = h.lastErr.Error()
	}
	return st
}
