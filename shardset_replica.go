package emdsearch

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"emdsearch/internal/persist"
	"emdsearch/internal/replica"
	"emdsearch/internal/shardset"
)

// This file holds the ShardSet's replication layer: per-shard
// follower engines fed by WAL-record shipping (internal/replica),
// failover dispatch closures for the scatter executor, freshness
// certification, and follower promotion.
//
// The flow: every acknowledged mutation (Add/Delete under s.mu —
// post-fsync when a WAL is attached) is Acked to the shard's shipper,
// which assigns it a dense LSN and delivers it in order over an
// in-process replica.Link to the follower engine, replayed with the
// same idempotent discipline crash recovery uses. Followers bootstrap
// at Build from a snapshot of their primary (the Save format
// verbatim) and then stream incrementally. When a query's dispatch to
// a primary hard-faults or is quarantined, the scatter executor
// re-dispatches to the follower; the coverage certificate gains a
// Freshness entry bounding what the follower could have missed.

// shardReplica is one shard's replication state. The follower and
// gate pointers are nil until the Build-time bootstrap and are
// swapped only under the set's rw lock (Promote).
type shardReplica struct {
	follower *Engine
	gate     *Gate
	ship     *replica.Shipper
}

// initReplicas creates each shard's shipper. Followers come later
// (bootstrapReplicas): until then shipped records queue in the
// shipper and the bootstrap's Rebase supersedes them.
func (s *ShardSet) initReplicas() {
	if s.opts.Replicas <= 0 {
		return
	}
	s.replicas = make([]*shardReplica, len(s.engines))
	for i := range s.engines {
		s.replicas[i] = s.newShardReplica(i)
	}
}

// newShardReplica wires shard's ship link: an in-process
// replica.Link applying records to the follower engine, with the
// ReplicaShipHook fault-injection seam in front.
func (s *ShardSet) newShardReplica(shard int) *shardReplica {
	r := &shardReplica{}
	link := replica.LinkFunc(func(ctx context.Context, rec replica.Record) error {
		if h := s.opts.ReplicaShipHook; h != nil {
			if err := h(shard, rec.LSN); err != nil {
				return err
			}
		}
		return s.applyToFollower(shard, rec.Rec)
	})
	r.ship = replica.NewShipper(link, &shardset.Backoff{Base: s.opts.RetryBase, Cap: s.opts.RetryCap, Seed: s.opts.Seed})
	return r
}

// shipMutation Acks one acknowledged mutation to the shard's shipper.
// Called under s.mu, so ship order equals mutation order. A no-op
// without replicas.
func (s *ShardSet) shipMutation(shard int, rec persist.WALRecord) {
	if s.replicas == nil {
		return
	}
	s.replicas[shard].ship.Ack(rec)
}

// applyToFollower replays one shipped record into shard's follower,
// idempotently — the discipline RecoverEngine uses, so a redelivered
// record (the shipper retries failed sends) is a harmless skip.
func (s *ShardSet) applyToFollower(shard int, rec persist.WALRecord) error {
	s.rw.RLock()
	f := s.replicas[shard].follower
	s.rw.RUnlock()
	if f == nil {
		return fmt.Errorf("emdsearch: shard %d follower not bootstrapped", shard)
	}
	switch rec.Op {
	case persist.WALAdd:
		switch {
		case rec.ID < f.Len():
			return nil // already applied
		case rec.ID == f.Len():
			_, err := f.Add(rec.Label, rec.Vector)
			return err
		default:
			return fmt.Errorf("emdsearch: shard %d follower replay gap: record adds item %d but follower ends at %d", shard, rec.ID, f.Len())
		}
	case persist.WALDelete:
		if rec.ID < 0 || rec.ID >= f.Len() {
			return fmt.Errorf("emdsearch: shard %d follower replay: delete of unknown item %d", shard, rec.ID)
		}
		if f.Deleted(rec.ID) {
			return nil
		}
		return f.Delete(rec.ID)
	default:
		return fmt.Errorf("emdsearch: shard %d follower replay: unknown op %d", shard, rec.Op)
	}
}

// bootstrapReplicas seeds every shard's follower from a snapshot of
// its primary, in parallel, then rebases each shipper to the
// primary's current LSN (mutations are quiesced under s.mu, so the
// snapshot and the rebase point agree). Records queued before the
// bootstrap are dropped — the snapshot carries them.
func (s *ShardSet) bootstrapReplicas() error {
	if s.replicas == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := make([]error, len(s.replicas))
	var wg sync.WaitGroup
	for i := range s.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.bootstrapReplicaLocked(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("emdsearch: bootstrap shard %d follower: %w", i, err)
		}
	}
	return nil
}

// bootstrapReplicaLocked snapshots shard's primary, loads it into a
// fresh follower engine, builds the follower's pipeline, installs it,
// and rebases the shipper. Caller holds s.mu (no concurrent
// mutations); safe to run for different shards concurrently.
func (s *ShardSet) bootstrapReplicaLocked(shard int) error {
	var buf bytes.Buffer
	if err := s.engines[shard].Save(&buf); err != nil {
		return err
	}
	f, err := LoadEngine(&buf, s.cost, s.engOpts)
	if err != nil {
		return err
	}
	if err := f.Build(); err != nil {
		return err
	}
	r := s.replicas[shard]
	s.rw.Lock()
	r.follower = f
	r.gate = NewGate(f, s.opts.Gate)
	s.rw.Unlock()
	r.ship.Rebase(r.ship.Status().PrimaryLSN)
	return nil
}

// followerGate returns shard's serving follower gate, nil before the
// bootstrap.
func (s *ShardSet) followerGate(shard int) *Gate {
	if s.replicas == nil {
		return nil
	}
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.replicas[shard].gate
}

// replicaAt returns shard's current replication state under the
// pointer-swap lock — Promote replaces the element concurrently with
// queries.
func (s *ShardSet) replicaAt(shard int) *shardReplica {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.replicas[shard]
}

// failover builds this query's follower re-dispatch closure, nil when
// the set runs without replicas; op is the ShardHook operation it
// reports. The follower's applied LSN is captured BEFORE its query
// dispatches: the snapshot the follower serves from can only contain
// more, so the freshness bound computed at merge time (primary LSN
// then, applied LSN now) is sound.
func (s *ShardSet) failover(q Query, op string) shardset.Failover[shardServe] {
	if s.replicas == nil {
		return nil
	}
	return func(ctx context.Context, shard int) (shardServe, error) {
		s.failovers.Add(1)
		g := s.followerGate(shard)
		if g == nil {
			return shardServe{}, fmt.Errorf("emdsearch: shard %d follower not bootstrapped", shard)
		}
		applied := s.replicaAt(shard).ship.Status().AppliedLSN
		if h := s.opts.ShardHook; h != nil {
			if err := h(ctx, shard, 0, op); err != nil {
				return shardServe{}, err
			}
		}
		sv, err := s.serve(ctx, g, shard, q)
		sv.appliedLSN = applied
		return sv, err
	}
}

// certifyFreshness appends a failed-over shard's freshness entry to
// the coverage certificate and charges its lag to ItemsUncovered. It
// reports whether the follower lagged — which makes the shard (and
// the answer) Degraded: a stale slice must never pass as complete.
func (s *ShardSet) certifyFreshness(cov *ShardCoverage, o shardset.Outcome[shardServe]) (lagging bool) {
	if !o.FailedOver {
		return false
	}
	primary := s.replicaAt(o.Shard).ship.Status().PrimaryLSN
	fresh := ShardFreshness{
		Shard:      o.Shard,
		PrimaryLSN: primary,
		AppliedLSN: o.Value.appliedLSN,
		Lag:        primary - o.Value.appliedLSN,
	}
	cov.Freshness = append(cov.Freshness, fresh)
	if fresh.Lag > 0 {
		cov.ItemsUncovered += int(fresh.Lag)
		return true
	}
	return false
}

// ShardReplica is a point-in-time view of one shard's replication:
// the primary's last acknowledged LSN, the follower's applied LSN,
// and the ship-path error counters.
type ShardReplica struct {
	Shard        int    `json:"shard"`
	Bootstrapped bool   `json:"bootstrapped"`
	PrimaryLSN   int64  `json:"primary_lsn"`
	AppliedLSN   int64  `json:"applied_lsn"`
	Lag          int64  `json:"lag"`
	ShipErrors   uint64 `json:"ship_errors"`
	LastError    string `json:"last_error,omitempty"`
}

// Replica returns shard i's replication status; ok is false when the
// set runs without replicas.
func (s *ShardSet) Replica(i int) (ShardReplica, bool) {
	if s.replicas == nil {
		return ShardReplica{}, false
	}
	st := s.replicaAt(i).ship.Status()
	return ShardReplica{
		Shard:        i,
		Bootstrapped: s.followerGate(i) != nil,
		PrimaryLSN:   st.PrimaryLSN,
		AppliedLSN:   st.AppliedLSN,
		Lag:          st.Lag,
		ShipErrors:   st.ShipErrors,
		LastError:    st.LastError,
	}, true
}

// WaitReplicasCaughtUp blocks until every follower has applied every
// acknowledged mutation (or ctx expires) — the quiescence point at
// which a failover answer is guaranteed byte-identical to the healthy
// path. A no-op without replicas.
func (s *ShardSet) WaitReplicasCaughtUp(ctx context.Context) error {
	if s.replicas == nil {
		return nil
	}
	for i := range s.replicas {
		if err := s.replicaAt(i).ship.WaitCaughtUp(ctx); err != nil {
			return fmt.Errorf("emdsearch: shard %d follower catch-up: %w", i, err)
		}
	}
	return nil
}

// Promote makes shard's follower the new primary: it waits for the
// follower to catch up (bounded by ctx), swaps it into the serving
// path, and bootstraps a fresh follower from the promoted engine. The
// old primary is discarded from the set (its engine object survives
// for the caller to inspect via the pre-promotion Engine(i) pointer).
// Promotion does not move durable logging: the old primary's WAL, if
// any, stays attached to the old engine — re-attach with OpenWAL
// after a Checkpoint to resume logging on the new primary.
//
// Promote is a mutation (Engine discipline: not concurrent with other
// mutations); queries may run throughout.
func (s *ShardSet) Promote(ctx context.Context, shard int) error {
	if s.replicas == nil {
		return fmt.Errorf("emdsearch: Promote(%d): set has no replicas", shard)
	}
	if shard < 0 || shard >= len(s.engines) {
		return badQueryf("Promote(%d): shard out of range [0, %d)", shard, len(s.engines))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.replicas[shard]
	if s.followerGate(shard) == nil {
		return fmt.Errorf("emdsearch: Promote(%d): follower not bootstrapped (call Build first)", shard)
	}
	// Mutations are quiesced (s.mu); drain the ship queue so the
	// follower holds every acknowledged mutation before taking over.
	if err := r.ship.WaitCaughtUp(ctx); err != nil {
		return fmt.Errorf("emdsearch: Promote(%d): %w", shard, err)
	}
	r.ship.Close()
	next := s.newShardReplica(shard)
	s.rw.Lock()
	s.engines[shard] = r.follower
	s.gates[shard] = r.gate
	s.replicas[shard] = next
	s.rw.Unlock()
	if err := s.bootstrapReplicaLocked(shard); err != nil {
		return fmt.Errorf("emdsearch: Promote(%d): bootstrap new follower: %w", shard, err)
	}
	return nil
}

// Close stops the set's replica shippers. Queries keep working
// (followers just stop receiving new mutations, with the lag honestly
// reported); call it when discarding the set. A no-op without
// replicas.
func (s *ShardSet) Close() {
	for i := range s.replicas {
		s.replicaAt(i).ship.Close()
	}
}
