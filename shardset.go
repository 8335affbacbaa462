package emdsearch

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emdsearch/internal/persist"
	"emdsearch/internal/search"
	"emdsearch/internal/shardset"
)

// ShardSetOptions configures a ShardSet. The zero value is usable:
// every field has a sensible default.
type ShardSetOptions struct {
	// Shards is the number of engine partitions; <= 0 defaults to 2.
	Shards int
	// Gate configures each shard's admission gate (zero value takes
	// GateOptions defaults).
	Gate GateOptions
	// MergeReserve is carved off the caller's deadline for gathering
	// and merging shard answers (but never more than half the
	// remaining time); default 2ms.
	MergeReserve time.Duration
	// ShardTimeout, when > 0, caps any single shard dispatch even when
	// the caller supplied no deadline — the defense against a hung
	// shard turning an undeadlined query into a hung query.
	ShardTimeout time.Duration
	// RetryMax bounds dispatch attempts per shard per query (first try
	// plus retries and hedges); <= 0 defaults to 2. Only transient
	// errors (ErrOverloaded) are retried, honoring their RetryAfter and
	// paced by jittered exponential backoff.
	RetryMax int
	// RetryBase and RetryCap bound the backoff schedule; defaults 1ms
	// and 250ms.
	RetryBase, RetryCap time.Duration
	// HedgeAfter, when > 0, re-dispatches a shard that has not answered
	// after this delay and accepts whichever attempt finishes first.
	HedgeAfter time.Duration
	// QuarantineAfter is the number of consecutive hard failures
	// (errors, panics — not overload shedding or deadline-degraded
	// answers) after which a shard is quarantined, default 3;
	// QuarantineCooldown is how long it sits out before a probe query
	// is re-admitted, default 1s. A quarantined shard is skipped —
	// counted as failed coverage — instead of burning the query budget.
	QuarantineAfter    int
	QuarantineCooldown time.Duration
	// ShardHook, when non-nil, runs before every shard dispatch
	// (including retries and hedges) with the attempt's context, the
	// shard number, the 0-based attempt, and the operation ("knn",
	// "range", or — for a follower re-dispatch — "knn-failover",
	// "range-failover"). A returned error fails that attempt — the
	// fault-injection seam the chaos suite drives delayed, erroring,
	// panicking and flapping shards through. A delay-injecting hook
	// must watch ctx, exactly as a real slow shard would.
	ShardHook func(ctx context.Context, shard, try int, op string) error
	// Replicas, when 1, gives every shard a follower replica: each
	// acknowledged mutation is shipped (LSN-sequenced, idempotently
	// replayed over a snapshot bootstrap at Build) to a follower
	// engine, and a shard whose dispatch hard-faults or is quarantined
	// is re-dispatched to its follower instead of being written off.
	// A caught-up follower's answer is byte-identical to the healthy
	// path; a lagging one is honestly Degraded with a Freshness entry
	// in the coverage certificate. Values > 1 are clamped to 1 (one
	// follower per shard today; the ship seam is replica.Link-shaped,
	// so more replicas and network transports slot in later).
	Replicas int
	// ReplicaShipHook, when non-nil, runs before each shipped record
	// is applied to a shard's follower, with the record's LSN. An
	// error fails that delivery attempt — the shipper retries it with
	// jittered backoff — making this the fault-injection seam for
	// flapping replication links.
	ReplicaShipHook func(shard int, lsn int64) error
	// Seed fixes the retry jitter stream for reproducible tests; 0
	// seeds from the clock.
	Seed int64

	// disableSharedThreshold turns off the cross-shard k-NN threshold:
	// every shard then computes its full local top-k independently.
	// Answers are identical either way (the shared threshold only
	// changes work counters); only the in-package identity suite sets
	// it, as the deterministic-work reference.
	disableSharedThreshold bool
}

func (o ShardSetOptions) withDefaults() ShardSetOptions {
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.MergeReserve <= 0 {
		o.MergeReserve = 2 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = 3
	}
	if o.QuarantineCooldown <= 0 {
		o.QuarantineCooldown = time.Second
	}
	if o.Replicas > 1 {
		o.Replicas = 1
	}
	if o.Replicas < 0 {
		o.Replicas = 0
	}
	return o
}

// ShardCoverage is a ShardAnswer's certificate of what the query did
// and did not examine: which shards answered in full, which served
// certified degraded answers, which failed outright, and how many
// database items the failures left entirely unexamined. A caller that
// needs completeness checks ShardsFailed == 0 && ShardsDegraded == 0;
// everything else in the answer is sound regardless.
type ShardCoverage struct {
	// Shards is the partition count; ShardsOK answered in full,
	// ShardsDegraded served certified partial answers, ShardsFailed
	// returned nothing (error, panic, quarantine skip).
	Shards         int `json:"shards"`
	ShardsOK       int `json:"shards_ok"`
	ShardsDegraded int `json:"shards_degraded"`
	ShardsFailed   int `json:"shards_failed"`
	// FailedShards lists the failed shard numbers.
	FailedShards []int `json:"failed_shards,omitempty"`
	// ItemsTotal is the logical database size; ItemsUncovered counts
	// items the query is not known to have examined — everything on
	// failed shards (minus the neighbors a failing shard confirmed
	// into the merged answer before it died), whatever degraded shards
	// never pulled, plus the replication lag of any lagging follower
	// that served a failed-over slice. It is an upper bound on the
	// true miss: a failed shard may have examined items it never got
	// to confirm, and those stay counted as uncovered. Items covered
	// only by an interval appear in Anytime, not here.
	ItemsTotal     int `json:"items_total"`
	ItemsUncovered int `json:"items_uncovered"`
	// Freshness holds one entry per shard whose slice was served by
	// its follower replica, certifying how fresh that follower was. A
	// Lag of 0 means the follower held every acknowledged mutation and
	// its slice is byte-identical to the healthy path; Lag > 0 marks
	// the answer Degraded and adds Lag to ItemsUncovered.
	Freshness []ShardFreshness `json:"freshness,omitempty"`
}

// ShardFreshness certifies the replication state of a follower at the
// moment it served a shard's slice: AppliedLSN is captured before the
// follower query is dispatched and PrimaryLSN when the certificate is
// assembled, so Lag = PrimaryLSN − AppliedLSN bounds from above how
// many acknowledged mutations the serving snapshot could have been
// missing — each either a new item the follower never examined
// (counted into ItemsUncovered) or a deletion the answer may not yet
// reflect.
type ShardFreshness struct {
	Shard      int   `json:"shard"`
	PrimaryLSN int64 `json:"primary_lsn"`
	AppliedLSN int64 `json:"applied_lsn"`
	Lag        int64 `json:"lag"`
}

// ShardAnswer is the outcome of a scatter-gather k-NN query.
//
// With every shard healthy (Degraded false), Results is byte-identical
// to a single engine's KNN over the union of the shards — global ids,
// exact distances, deterministic (Dist, Index) tie-break. Under
// partial failure, Results still holds only certified-exact neighbors
// (confirmed distances survive their shard's later failure), Anytime
// ranks the best items known with sound [Lower, Upper] intervals, and
// Coverage says precisely what was missed.
type ShardAnswer struct {
	Results  []Result
	Degraded bool
	Anytime  []AnytimeItem
	Coverage ShardCoverage
	// Stats sums the per-shard query counters of every shard that
	// answered; ShardStats holds each serving shard's own (nil for
	// failed shards). Outcomes reports each shard's dispatch
	// disposition: retries, hedges, quarantine skips, final error.
	Stats      *QueryStats
	ShardStats []*QueryStats
	Outcomes   []ShardOutcome
}

// ShardOutcome is one shard's dispatch disposition for one query.
type ShardOutcome struct {
	Shard    int  `json:"shard"`
	Tries    int  `json:"tries"`
	Retries  int  `json:"retries"`
	Hedged   bool `json:"hedged,omitempty"`
	HedgeWon bool `json:"hedge_won,omitempty"`
	Skipped  bool `json:"skipped,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// FailedOver reports the shard's slice was served by its follower
	// replica after the primary hard-faulted or was quarantined.
	FailedOver bool   `json:"failed_over,omitempty"`
	Err        string `json:"err,omitempty"`
}

// ShardRangeAnswer is the outcome of a scatter-gather range query:
// every returned item is individually certified within eps, so a
// degraded answer is sound, only possibly incomplete — Coverage says
// what was missed.
type ShardRangeAnswer struct {
	Results    []Result
	Degraded   bool
	Coverage   ShardCoverage
	Stats      *QueryStats
	ShardStats []*QueryStats
	Outcomes   []ShardOutcome
}

// ShardSet partitions a corpus across N gated engines and serves
// scatter-gather queries over the union. Placement is round-robin by
// insertion order: global id g lives on shard g % N at local index
// g / N, so the set is rebuildable from the shards alone and every
// shard holds an equal slice (±1) of the corpus.
//
// Healthy-path answers are exact and byte-identical to a single
// engine over the union: each shard runs the KNOP filter-and-refine
// loop against one shared global k-NN threshold (sound because every
// filter stage lower-bounds the exact EMD, so the global k-th
// confirmed distance prunes only provable non-members on any shard),
// and the merged top-k inherits the deterministic (Dist, Index)
// tie-break. Failures degrade the answer instead of failing the
// query: per-shard deadline budgets, retry with jittered backoff on
// overload, optional hedged re-dispatch of stragglers, quarantine of
// repeatedly failing shards with probing re-admission, and certified
// partial answers with per-shard coverage accounting.
//
// Queries are safe for concurrent use. Mutations (Add, Delete, Build)
// follow the Engine's discipline: safe to interleave with queries,
// but not with each other.
type ShardSet struct {
	opts    ShardSetOptions
	cost    CostMatrix // retained for follower snapshot bootstraps
	engOpts Options
	engines []*Engine
	gates   []*Gate
	health  []*shardset.Health
	backoff *shardset.Backoff

	// replicas holds one follower per shard when opts.Replicas == 1,
	// nil otherwise. The slice itself is fixed at construction; the
	// pointers inside a shardReplica — and the engines/gates slice
	// elements — are swapped only by Promote, under rw.
	replicas []*shardReplica
	rw       sync.RWMutex // guards engine/gate/follower pointer swaps

	mu    sync.Mutex // guards total (the global id counter) and orders mutations for shipping
	total int

	queries        atomic.Int64
	degraded       atomic.Int64
	retries        atomic.Int64
	hedges         atomic.Int64
	failures       atomic.Int64
	skips          atomic.Int64
	hedgeWins      atomic.Int64
	failovers      atomic.Int64 // follower re-dispatches attempted
	failoverServes atomic.Int64 // shard slices a follower served
	walReopens     atomic.Int64 // broken-WAL heals on the ingest path
}

// NewShardSet builds an empty sharded set: opts.Shards engines, each
// with its own gate, all sharing cost and engOpts.
func NewShardSet(cost CostMatrix, engOpts Options, opts ShardSetOptions) (*ShardSet, error) {
	opts = opts.withDefaults()
	s := &ShardSet{opts: opts, cost: cost, engOpts: engOpts}
	for i := 0; i < opts.Shards; i++ {
		e, err := NewEngine(cost, engOpts)
		if err != nil {
			return nil, fmt.Errorf("emdsearch: shard %d: %w", i, err)
		}
		s.engines = append(s.engines, e)
		s.gates = append(s.gates, NewGate(e, opts.Gate))
		s.health = append(s.health, shardset.NewHealth(opts.QuarantineAfter, opts.QuarantineCooldown))
	}
	s.backoff = &shardset.Backoff{Base: opts.RetryBase, Cap: opts.RetryCap, Seed: opts.Seed}
	s.initReplicas()
	return s, nil
}

// Shards returns the partition count.
func (s *ShardSet) Shards() int { return len(s.engines) }

// Engine returns shard i's engine — for direct inspection or
// mutation-side operations the set does not wrap.
func (s *ShardSet) Engine(i int) *Engine { return s.engineAt(i) }

// Gate returns shard i's admission gate.
func (s *ShardSet) Gate(i int) *Gate { return s.gateAt(i) }

// engineAt and gateAt read a shard's current primary under the swap
// lock: Promote replaces these slice elements, and an unsynchronized
// read would race it.
func (s *ShardSet) engineAt(i int) *Engine {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.engines[i]
}

func (s *ShardSet) gateAt(i int) *Gate {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.gates[i]
}

// shardOf maps a global id to its (shard, local) placement.
func (s *ShardSet) shardOf(gid int) (shard, local int) {
	n := len(s.engines)
	return gid % n, gid / n
}

// toGlobal returns shard's local-to-global id mapping.
func (s *ShardSet) toGlobal(shard int) func(local int) int {
	n := len(s.engines)
	return func(local int) int { return local*n + shard }
}

// shardLen returns how many of the first total global ids live on
// shard: total/N, plus one for the shards the remainder reaches.
func shardLen(total, shards, shard int) int {
	n := total / shards
	if shard < total%shards {
		n++
	}
	return n
}

// walReopenAttempts bounds the jittered-backoff reopen attempts Add
// makes to heal a broken per-shard WAL before surfacing the error.
const walReopenAttempts = 5

// Add inserts a histogram into the set and returns its global id.
// Placement is round-robin: the item lands on shard id % Shards.
//
// A broken per-shard WAL (a torn append whose rollback also failed)
// is healed in place: Add reopens the log with ReopenWALRetry —
// bounded attempts, jittered backoff — and retries the insert once,
// so one disk hiccup does not brick the shard's ingest path. Only a
// reopen that keeps failing surfaces the error.
func (s *ShardSet) Add(label string, h Histogram) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gid := s.total
	shard, local := s.shardOf(gid)
	got, err := s.engines[shard].Add(label, h)
	if errors.Is(err, ErrWALBroken) {
		if rerr := s.engines[shard].ReopenWALRetry(context.Background(), walReopenAttempts); rerr != nil {
			return 0, fmt.Errorf("emdsearch: shard %d: %w (reopen failed: %v)", shard, err, rerr)
		}
		s.walReopens.Add(1)
		got, err = s.engines[shard].Add(label, h)
	}
	if err != nil {
		return 0, err
	}
	if got != local {
		return 0, fmt.Errorf("emdsearch: shard %d placement drifted: item %d landed at local %d, want %d (was the shard mutated directly?)",
			shard, gid, got, local)
	}
	s.shipMutation(shard, persist.WALRecord{Op: persist.WALAdd, ID: local, Label: label, Vector: h})
	s.total = gid + 1
	return gid, nil
}

// Len returns the logical database size (including soft-deleted
// items).
func (s *ShardSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Alive returns the number of live (non-deleted) items across shards.
func (s *ShardSet) Alive() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	n := 0
	for _, e := range s.engines {
		n += e.Alive()
	}
	return n
}

// Delete soft-deletes the item with global id gid. It holds the
// set's mutation lock for the whole operation so the replica ship
// order matches the mutation order.
func (s *ShardSet) Delete(gid int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gid < 0 || gid >= s.total {
		return badQueryf("Delete(%d): global id out of range [0, %d)", gid, s.total)
	}
	shard, local := s.shardOf(gid)
	if err := s.engines[shard].Delete(local); err != nil {
		return err
	}
	s.shipMutation(shard, persist.WALRecord{Op: persist.WALDelete, ID: local})
	return nil
}

// Label returns the label of the item with global id gid.
func (s *ShardSet) Label(gid int) string {
	shard, local := s.shardOf(gid)
	return s.engineAt(shard).Label(local)
}

// Build constructs every shard's filter pipeline, in parallel. The
// first error wins; the other shards still finish building. With
// Replicas set, Build then bootstraps every shard's follower from a
// snapshot of its primary — the same Save format crash recovery
// loads — and rebases its shipper so subsequent mutations stream
// incrementally.
func (s *ShardSet) Build() error {
	errs := make([]error, len(s.engines))
	var wg sync.WaitGroup
	for i, e := range s.engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			errs[i] = e.Build()
		}(i, e)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("emdsearch: build shard %d: %w", i, err)
		}
	}
	return s.bootstrapReplicas()
}

// scatterConfig assembles the per-query scatter policy: overload is
// retried (honoring the gate's RetryAfter) and never quarantines;
// context expiry never quarantines either (the budget is global —
// punishing a shard for the caller's deadline would quarantine
// healthy shards under tight SLOs); everything else is a hard fault.
func (s *ShardSet) scatterConfig() shardset.Config {
	return shardset.Config{
		MaxAttempts: s.opts.RetryMax,
		Backoff:     s.backoff,
		HedgeAfter:  s.opts.HedgeAfter,
		Retryable: func(err error) (bool, time.Duration) {
			var ov *OverloadError
			if errors.As(err, &ov) {
				return true, ov.RetryAfter
			}
			return errors.Is(err, ErrOverloaded), 0
		},
		Faulty: func(err error) bool {
			return !errors.Is(err, ErrOverloaded) &&
				!errors.Is(err, context.DeadlineExceeded) &&
				!errors.Is(err, context.Canceled)
		},
	}
}

// account folds one scatter's outcomes into the set-level counters
// and renders them for the answer.
func (s *ShardSet) account(outs []shardset.Outcome[shardServe]) []ShardOutcome {
	rendered := make([]ShardOutcome, len(outs))
	for i, o := range outs {
		s.retries.Add(int64(o.Retries))
		if o.Hedged {
			s.hedges.Add(1)
		}
		if o.HedgeWon {
			s.hedgeWins.Add(1)
		}
		if o.Skipped {
			s.skips.Add(1)
		}
		if o.Err != nil {
			s.failures.Add(1)
		}
		if o.FailedOver {
			s.failoverServes.Add(1)
		}
		rendered[i] = ShardOutcome{
			Shard:      o.Shard,
			Tries:      o.Tries,
			Retries:    o.Retries,
			Hedged:     o.Hedged,
			HedgeWon:   o.HedgeWon,
			Skipped:    o.Skipped,
			FailedOver: o.FailedOver,
			Degraded:   o.Err == nil && o.Value.ans.Degraded,
		}
		if o.Err != nil {
			rendered[i].Err = o.Err.Error()
		}
	}
	return rendered
}

// shardServe is one shard's served answer inside a scatter.
// appliedLSN is meaningful only on a failed-over outcome: the
// follower's applied LSN captured BEFORE its query dispatched, so the
// snapshot the follower served from contains at least those mutations
// and the freshness bound computed against the primary's LSN at merge
// time is sound.
type shardServe struct {
	ans        *KNNAnswer
	appliedLSN int64
}

// KNN answers a k-NN query across all shards. See ShardAnswer for the
// healthy-path identity and partial-failure semantics. The error is
// non-nil only for bad queries or when no shard served at all; every
// other condition — including every shard degrading — returns a
// certified (possibly partial) answer with a nil error.
func (s *ShardSet) KNN(ctx context.Context, q Histogram, k int) (*ShardAnswer, error) {
	return s.search(ctx, Query{Hist: q, K: k})
}

// Range answers a range query across all shards: the union of the
// shards' certified results, sorted by (distance, global id). Every
// returned item is individually certified within eps, so degraded
// answers are sound, only possibly incomplete. Errors are as for KNN.
func (s *ShardSet) Range(ctx context.Context, q Histogram, eps float64) (*ShardRangeAnswer, error) {
	ans, err := s.search(ctx, Query{Hist: q, Range: true, Eps: eps})
	if ans == nil {
		return nil, err
	}
	return &ShardRangeAnswer{Results: ans.Results, Degraded: ans.Degraded, Coverage: ans.Coverage,
		Stats: ans.Stats, ShardStats: ans.ShardStats, Outcomes: ans.Outcomes}, err
}

// search is the one scatter-gather path: k-NN and range queries share
// the scatter, the failover closure and the merge. A k-NN scatter joins
// every shard to one cross-shard neighbor set, so each prunes against
// the global k-th distance.
func (s *ShardSet) search(ctx context.Context, q Query) (*ShardAnswer, error) {
	if err := s.engineAt(0).validate(q); err != nil {
		return nil, err
	}
	s.queries.Add(1)
	op := "knn"
	if q.Range {
		op = "range"
	} else if !s.opts.disableSharedThreshold {
		q.shared, _ = search.NewSharedKNN(q.K) // cannot fail: K >= 1 was validated
	}
	sctx, cancel := shardset.CarveBudget(ctx, s.opts.MergeReserve, s.opts.ShardTimeout)
	defer cancel()

	outs := shardset.ScatterFailover(sctx, len(s.gates), s.health, s.scatterConfig(),
		func(ctx context.Context, shard, try int) (shardServe, error) {
			if h := s.opts.ShardHook; h != nil {
				if err := h(ctx, shard, try, op); err != nil {
					return shardServe{}, err
				}
			}
			return s.serve(ctx, s.gateAt(shard), shard, q)
		},
		s.failover(q, op+"-failover"))
	return s.merge(ctx, q, outs)
}

// serve runs q on one shard's gate — primary or follower — under the
// shard's id mapping. A budget that expired mid-query leaves a
// certified partial answer: that is the shard's contribution, not a
// failure.
func (s *ShardSet) serve(ctx context.Context, g *Gate, shard int, q Query) (shardServe, error) {
	q.toGlobal = s.toGlobal(shard)
	ans, err := g.Search(ctx, q)
	if err != nil && (ans == nil || !ans.Degraded) {
		return shardServe{}, err
	}
	return shardServe{ans: ans}, nil
}

// merge composes the shards' outcomes into one answer and its coverage
// certificate. The rules are the same for both verbs:
//
//   - The pool of confirmed results is the union of the shards' results
//     under global ids, plus — for k-NN — the shared set's, which keeps
//     the sound contributions of shards that failed after offering.
//     The union of per-shard local top-k contains the global top-k: an
//     item with fewer than k better items globally has fewer than k
//     better on its own shard. For range the union is the answer.
//   - A failed shard is charged its whole slice minus the confirmed ids
//     of its slice in the pool (for range there are none, so it is
//     charged in full); a degraded shard is charged what it never
//     pulled; a lagging follower its replication lag.
//
// The verbs differ only in the end: k-NN trims to k and, when
// degraded, assembles the certified interval view.
func (s *ShardSet) merge(ctx context.Context, q Query, outs []shardset.Outcome[shardServe]) (*ShardAnswer, error) {
	ans := &ShardAnswer{
		Stats:      &QueryStats{},
		ShardStats: make([]*QueryStats, len(outs)),
		Outcomes:   s.account(outs),
	}
	s.mu.Lock()
	ans.Coverage = ShardCoverage{Shards: len(s.engines), ItemsTotal: s.total}
	s.mu.Unlock()
	cov := &ans.Coverage

	pool := map[int]float64{}
	var anytime []AnytimeItem
	for i, o := range outs {
		if o.Err != nil {
			cov.ShardsFailed++
			cov.FailedShards = append(cov.FailedShards, o.Shard)
			continue
		}
		sa := o.Value.ans
		toG := s.toGlobal(o.Shard)
		for _, r := range sa.Results {
			pool[toG(r.Index)] = r.Dist
		}
		lagging := s.certifyFreshness(cov, o)
		if sa.Degraded || lagging {
			cov.ShardsDegraded++
			if sa.Degraded {
				cov.ItemsUncovered += sa.Unpulled
			}
			for _, it := range sa.Anytime {
				anytime = append(anytime, AnytimeItem{
					Index: toG(it.Index), Lower: it.Lower, Upper: it.Upper, Refined: it.Refined,
				})
			}
		} else {
			cov.ShardsOK++
		}
		ans.ShardStats[i] = sa.Stats
		addStats(ans.Stats, sa.Stats)
	}
	if q.shared != nil {
		for _, r := range q.shared.Results() {
			pool[r.Index] = r.Dist
		}
	}
	if cov.ShardsOK+cov.ShardsDegraded == 0 {
		// No shard served: nothing from the pool is returned, so the
		// certificate counts every failed shard in full.
		for _, f := range cov.FailedShards {
			cov.ItemsUncovered += shardLen(cov.ItemsTotal, len(s.engines), f)
		}
		ans.Degraded = true
		if err := firstHardErr(outs); err != nil {
			return ans, err
		}
		return ans, ctx.Err()
	}
	// Failed-shard coverage, counted against the completed pool: a
	// shard that confirmed neighbors into the shared set before failing
	// did examine them, and they survive into the merged answer — so
	// they are not uncovered. What the shard examined without confirming
	// is unknowable and stays counted (the certificate's conservative
	// direction).
	for _, f := range cov.FailedShards {
		uncovered := shardLen(cov.ItemsTotal, len(s.engines), f)
		for gid := range pool {
			if gid%len(s.engines) == f {
				uncovered--
			}
		}
		if uncovered > 0 {
			cov.ItemsUncovered += uncovered
		}
	}

	merged := make([]Result, 0, len(pool))
	for gid, d := range pool {
		merged = append(merged, Result{Index: gid, Dist: d})
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Dist != merged[b].Dist {
			return merged[a].Dist < merged[b].Dist
		}
		return merged[a].Index < merged[b].Index
	})
	if !q.Range && len(merged) > q.K {
		merged = merged[:q.K]
	}
	ans.Results = merged

	if cov.ShardsFailed > 0 || cov.ShardsDegraded > 0 {
		ans.Degraded = true
		s.degraded.Add(1)
		if !q.Range {
			ans.Anytime = mergeAnytime(anytime, merged, q.K)
		}
	}
	return ans, nil
}

// mergeAnytime composes a degraded k-NN scatter's certified-interval
// view: every confirmed neighbor as a tight interval, plus the degraded
// shards' interval items, ranked by guaranteed worst case and trimmed
// to k — the same order assembleAnytime uses per engine.
func mergeAnytime(anytime []AnytimeItem, confirmed []Result, k int) []AnytimeItem {
	for _, r := range confirmed {
		anytime = append(anytime, AnytimeItem{Index: r.Index, Lower: r.Dist, Upper: r.Dist, Refined: true})
	}
	seen := map[int]bool{}
	dedup := anytime[:0]
	for _, it := range sortAnytime(anytime) {
		if seen[it.Index] {
			continue
		}
		seen[it.Index] = true
		dedup = append(dedup, it)
	}
	if len(dedup) > k {
		dedup = dedup[:k]
	}
	return dedup
}

// sortAnytime orders interval items by (Upper, Lower, Index) with
// refined (tight) items winning ties — the guaranteed-worst-case
// ranking of the per-engine anytime machinery.
func sortAnytime(items []AnytimeItem) []AnytimeItem {
	sort.Slice(items, func(a, b int) bool {
		if items[a].Upper != items[b].Upper {
			return items[a].Upper < items[b].Upper
		}
		if items[a].Lower != items[b].Lower {
			return items[a].Lower > items[b].Lower
		}
		if items[a].Index != items[b].Index {
			return items[a].Index < items[b].Index
		}
		return items[a].Refined && !items[b].Refined
	})
	return items
}

// firstHardErr picks the most informative error out of a fully failed
// scatter: a non-quarantine error if any shard produced one.
func firstHardErr(outs []shardset.Outcome[shardServe]) error {
	var first error
	for _, o := range outs {
		if o.Err == nil {
			continue
		}
		if !errors.Is(o.Err, shardset.ErrQuarantined) {
			return o.Err
		}
		if first == nil {
			first = o.Err
		}
	}
	return first
}

// addStats accumulates src's work counters into dst.
func addStats(dst, src *QueryStats) {
	if src == nil {
		return
	}
	dst.Pulled += src.Pulled
	dst.SnapshotLen += src.SnapshotLen
	dst.Refinements += src.Refinements
	dst.RefinementsSkipped += src.RefinementsSkipped
	dst.RefinesAborted += src.RefinesAborted
	dst.RefineRows += src.RefineRows
	dst.RefineCols += src.RefineCols
	dst.IndexUsed = dst.IndexUsed || src.IndexUsed
	dst.IndexNodesVisited += src.IndexNodesVisited
	dst.IndexPruned += src.IndexPruned
	// Stages merge by name, in order of first appearance: shards run
	// the same chain unless one of them served the query from its index.
	for _, st := range src.Stages {
		i := 0
		for i < len(dst.Stages) && dst.Stages[i].Name != st.Name {
			i++
		}
		if i == len(dst.Stages) {
			dst.Stages = append(dst.Stages, search.StageStats{Name: st.Name})
			dst.StageEvaluations = append(dst.StageEvaluations, 0)
		}
		dst.Stages[i].Evaluations += st.Evaluations
		dst.Stages[i].Pruned += st.Pruned
		dst.Stages[i].Aborted += st.Aborted
		dst.Stages[i].Duration += st.Duration
		dst.StageEvaluations[i] = dst.Stages[i].Evaluations
	}
	dst.FilterTime += src.FilterTime
	dst.RefineTime += src.RefineTime
	if src.TotalTime > dst.TotalTime {
		dst.TotalTime = src.TotalTime // wall clock: shards run concurrently
	}
	dst.Cancelled = dst.Cancelled || src.Cancelled
	if src.Workers > dst.Workers {
		dst.Workers = src.Workers
	}
}

// ShardHealth is a point-in-time view of one shard's availability
// tracker.
type ShardHealth struct {
	// State is "closed" (healthy), "open" (quarantined) or "half-open"
	// (probing re-admission).
	State       string    `json:"state"`
	Successes   int64     `json:"successes"`
	Failures    int64     `json:"failures"`
	Skips       int64     `json:"skips"`
	Quarantines int64     `json:"quarantines"`
	LastError   string    `json:"last_error,omitempty"`
	LastFault   time.Time `json:"last_fault,omitempty"`
	// LastTransition is when the shard last changed state;
	// TimeInState is the current state's age at the snapshot — how
	// long the shard has been quarantined (or healthy).
	LastTransition time.Time     `json:"last_transition"`
	TimeInState    time.Duration `json:"time_in_state"`
}

// Health returns shard i's availability snapshot.
func (s *ShardSet) Health(i int) ShardHealth {
	st := s.health[i].Stats()
	return ShardHealth{
		State:          st.State,
		Successes:      st.Successes,
		Failures:       st.Failures,
		Skips:          st.Skips,
		Quarantines:    st.Quarantines,
		LastError:      st.LastError,
		LastFault:      st.LastFault,
		LastTransition: st.LastTransition,
		TimeInState:    st.TimeInState,
	}
}

// ShardMetrics bundles one shard's engine, gate and health views.
type ShardMetrics struct {
	Engine Metrics     `json:"engine"`
	Gate   GateMetrics `json:"gate"`
	Health ShardHealth `json:"health"`
}

// ShardSetMetrics is a point-in-time aggregate of the set's
// scatter-gather serving, JSON-marshalable like Engine.Metrics.
type ShardSetMetrics struct {
	Shards int `json:"shards"`
	Items  int `json:"items"`
	Alive  int `json:"alive"`
	// Queries counts scatters started; DegradedAnswers those that
	// returned with Degraded set. Retries, Hedges, HedgeWins,
	// ShardFailures and QuarantineSkips count per-shard dispatch
	// events across all queries.
	Queries         int64 `json:"queries"`
	DegradedAnswers int64 `json:"degraded_answers"`
	Retries         int64 `json:"retries"`
	Hedges          int64 `json:"hedges"`
	HedgeWins       int64 `json:"hedge_wins"`
	ShardFailures   int64 `json:"shard_failures"`
	QuarantineSkips int64 `json:"quarantine_skips"`
	// Failovers counts follower re-dispatches attempted;
	// FailoverServes those that produced the shard's answer.
	// WALReopens counts broken-WAL heals on the ingest path.
	Failovers      int64          `json:"failovers"`
	FailoverServes int64          `json:"failover_serves"`
	WALReopens     int64          `json:"wal_reopens"`
	PerShard       []ShardMetrics `json:"per_shard"`
	// Replicas holds per-shard replication status, one entry per
	// shard, when the set runs with followers; empty otherwise.
	Replicas []ShardReplica `json:"replicas,omitempty"`
}

// Metrics snapshots the set's serving counters plus every shard's
// engine, gate and health metrics.
func (s *ShardSet) Metrics() ShardSetMetrics {
	m := ShardSetMetrics{
		Shards:          len(s.engines),
		Items:           s.Len(),
		Alive:           s.Alive(),
		Queries:         s.queries.Load(),
		DegradedAnswers: s.degraded.Load(),
		Retries:         s.retries.Load(),
		Hedges:          s.hedges.Load(),
		HedgeWins:       s.hedgeWins.Load(),
		ShardFailures:   s.failures.Load(),
		QuarantineSkips: s.skips.Load(),
		Failovers:       s.failovers.Load(),
		FailoverServes:  s.failoverServes.Load(),
		WALReopens:      s.walReopens.Load(),
	}
	for i := range s.health {
		m.PerShard = append(m.PerShard, ShardMetrics{
			Engine: s.engineAt(i).Metrics(),
			Gate:   s.gateAt(i).Metrics(),
			Health: s.Health(i),
		})
		if r, ok := s.Replica(i); ok {
			m.Replicas = append(m.Replicas, r)
		}
	}
	return m
}

// shardWALPath and shardSnapPath name shard i's persistence files
// inside a set directory.
func shardWALPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", i))
}

func shardSnapPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", i))
}

// OpenWAL attaches a write-ahead log to every shard, named
// shard-NNN.wal inside dir. Mutations through the set are then
// durable per shard; recover with OpenShardSet.
func (s *ShardSet) OpenWAL(dir string) error {
	for i, e := range s.engines {
		if err := e.OpenWAL(shardWALPath(dir, i)); err != nil {
			return fmt.Errorf("emdsearch: shard %d: %w", i, err)
		}
	}
	return nil
}

// Checkpoint writes every shard's snapshot (shard-NNN.snap inside
// dir) and rotates its WAL, in shard order. A crash between shards
// recovers correctly — each shard's snapshot+log pair is internally
// consistent, and OpenShardSet re-validates the cross-shard placement
// invariant.
func (s *ShardSet) Checkpoint(dir string) error {
	for i, e := range s.engines {
		if err := e.Checkpoint(shardSnapPath(dir, i)); err != nil {
			return fmt.Errorf("emdsearch: checkpoint shard %d: %w", i, err)
		}
	}
	return nil
}

// CloseWAL detaches every shard's log.
func (s *ShardSet) CloseWAL() error {
	var first error
	for i, e := range s.engines {
		if err := e.CloseWAL(); err != nil && first == nil {
			first = fmt.Errorf("emdsearch: close shard %d WAL: %w", i, err)
		}
	}
	return first
}

// OpenShardSet recovers a sharded set from dir: each shard is rebuilt
// from its shard-NNN.snap + shard-NNN.wal pair via RecoverEngine,
// then the round-robin placement invariant is re-validated — shard i
// of N must hold exactly total/N (+1 for i < total%N) items, else the
// shards' persistence diverged (a shard lost acknowledged mutations
// the others kept) and the set refuses to serve wrong global ids.
// The recovered engines have no open WAL; call OpenWAL(dir) — usually
// after a Checkpoint(dir) — to resume durable logging.
func OpenShardSet(dir string, cost CostMatrix, engOpts Options, opts ShardSetOptions) (*ShardSet, []*RecoverStats, error) {
	opts = opts.withDefaults()
	s := &ShardSet{opts: opts, cost: cost, engOpts: engOpts}
	stats := make([]*RecoverStats, opts.Shards)
	total := 0
	for i := 0; i < opts.Shards; i++ {
		e, st, err := RecoverEngine(shardSnapPath(dir, i), shardWALPath(dir, i), cost, engOpts)
		if err != nil {
			return nil, nil, fmt.Errorf("emdsearch: recover shard %d: %w", i, err)
		}
		stats[i] = st
		s.engines = append(s.engines, e)
		s.gates = append(s.gates, NewGate(e, opts.Gate))
		s.health = append(s.health, shardset.NewHealth(opts.QuarantineAfter, opts.QuarantineCooldown))
		total += e.Len()
	}
	for i, e := range s.engines {
		if want := shardLen(total, opts.Shards, i); e.Len() != want {
			return nil, nil, fmt.Errorf("emdsearch: recover: shard %d holds %d items but round-robin placement of %d total requires %d — shard persistence diverged",
				i, e.Len(), total, want)
		}
	}
	s.total = total
	s.backoff = &shardset.Backoff{Base: opts.RetryBase, Cap: opts.RetryCap, Seed: opts.Seed}
	s.initReplicas()
	return s, stats, nil
}
