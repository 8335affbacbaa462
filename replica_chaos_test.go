package emdsearch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emdsearch/internal/data"
	"emdsearch/internal/persist/faultio"
)

// Chaos suite for the replication layer: primaries crash mid-query,
// followers lag behind a blocked ship link, the link flaps, followers
// get promoted while queries run, and both copies of a shard die at
// once. Every scenario asserts the answer certificate stays sound —
// a caught-up failover is byte-identical to the healthy path, a
// lagging one is honestly Degraded with an exact Freshness bound, and
// nothing is ever silently stale.

// replicaSetOpts is the common chaos config: one follower per shard
// and a quarantine threshold high enough that repeated injected faults
// keep dispatching to the (failing) primary.
func replicaSetOpts() ShardSetOptions {
	return ShardSetOptions{Replicas: 1, quarantineAfter: 100}
}

// extraVectors returns m fresh histograms compatible with the chaos
// corpus (same bins, different seed) for post-Build mutations.
func extraVectors(t *testing.T, m int) []Histogram {
	t.Helper()
	ds, err := data.MusicSpectra(m+5, 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	vecs, _, err := ds.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	return vecs[:m]
}

// addInLockstep appends vecs to both the set and the reference engine
// and returns the new items' global ids.
func addInLockstep(t *testing.T, set *ShardSet, single *Engine, vecs []Histogram) []int {
	t.Helper()
	gids := make([]int, len(vecs))
	for i, h := range vecs {
		label := fmt.Sprintf("late-%d", i)
		gid, err := set.Add(label, h)
		if err != nil {
			t.Fatalf("set add %d: %v", i, err)
		}
		if _, err := single.Add(label, h); err != nil {
			t.Fatalf("single add %d: %v", i, err)
		}
		gids[i] = gid
	}
	return gids
}

// assertCaughtUpFailover asserts the acceptance criterion for one
// query: err-free, not degraded, full coverage, a zero-lag freshness
// entry for the failed-over shard, and byte-identity with want.
func assertCaughtUpFailover(t *testing.T, tag string, ans *ShardAnswer, want []Result, shards, total, bad int) {
	t.Helper()
	if ans.Degraded {
		t.Fatalf("%s: caught-up failover answer marked Degraded", tag)
	}
	assertFullCoverage(t, tag, ans.Coverage, shards, total)
	sameResultBytes(t, tag, ans.Results, want)
	fr := ans.Coverage.Freshness
	if len(fr) != 1 || fr[0].Shard != bad || fr[0].Lag != 0 || fr[0].PrimaryLSN != fr[0].AppliedLSN {
		t.Fatalf("%s: freshness = %+v, want one zero-lag entry for shard %d", tag, fr, bad)
	}
	for i, o := range ans.Outcomes {
		if i == bad {
			if !o.FailedOver || o.Err != "" {
				t.Fatalf("%s: bad shard outcome %+v, want clean failover", tag, o)
			}
		} else if o.FailedOver {
			t.Fatalf("%s: healthy shard %d failed over: %+v", tag, i, o)
		}
	}
}

// TestReplicaFailoverByteIdentity is the acceptance sweep: with one
// follower per shard, killing any single primary mid-query yields
// ItemsUncovered == 0 and answers byte-identical to the single merged
// engine — the failover is invisible except in the freshness entry
// and the outcome flag.
func TestReplicaFailoverByteIdentity(t *testing.T) {
	const shards = 3
	var bad atomic.Int64
	bad.Store(-1)
	opts := replicaSetOpts()
	opts.ShardHook = func(ctx context.Context, shard, try int, op string) error {
		if op == "knn" && int64(shard) == bad.Load() {
			return errors.New("injected primary crash")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 48, Options{ReducedDims: 4, Seed: 1}, opts)
	defer set.Close()
	ctx := context.Background()
	if err := set.WaitReplicasCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < shards; b++ {
		bad.Store(int64(b))
		for _, k := range []int{1, 5} {
			for qi, q := range queries {
				want, _, err := single.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				ans, err := set.KNN(ctx, q, k)
				if err != nil {
					t.Fatalf("bad=%d k=%d q%d: %v", b, k, qi, err)
				}
				tag := fmt.Sprintf("failover b=%d k=%d q%d", b, k, qi)
				assertCaughtUpFailover(t, tag, ans, want, shards, set.Len(), b)
			}
		}
	}
	m := set.Metrics()
	if m.Failovers == 0 || m.FailoverServes == 0 {
		t.Fatalf("failover counters not advancing: %+v", m)
	}
	if len(m.Replicas) != shards {
		t.Fatalf("%d replica statuses for %d shards", len(m.Replicas), shards)
	}
	for i := 0; i < shards; i++ {
		r, ok := set.Replica(i)
		if !ok || !r.Bootstrapped || r.Lag != 0 || r.PrimaryLSN != r.AppliedLSN {
			t.Fatalf("shard %d replica status %+v, want caught-up bootstrapped follower", i, r)
		}
	}
}

// TestReplicaQuarantineFailover: a quarantined primary's slice is
// served by its follower without the primary being dispatched — the
// answer stays complete through the whole quarantine window.
func TestReplicaQuarantineFailover(t *testing.T) {
	const shards, b = 3, 2
	var kill atomic.Bool
	kill.Store(true)
	opts := replicaSetOpts()
	opts.quarantineAfter = 1
	opts.ShardHook = func(ctx context.Context, shard, try int, op string) error {
		if op == "knn" && shard == b && kill.Load() {
			return errors.New("injected primary crash")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 42, Options{ReducedDims: 4, Seed: 1}, opts)
	defer set.Close()
	ctx := context.Background()
	q, k := queries[0], 5
	want, _, err := single.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}

	// First query: hard fault, failover, and the quarantine trips.
	ans, err := set.KNN(ctx, q, k)
	if err != nil {
		t.Fatal(err)
	}
	assertCaughtUpFailover(t, "tripping", ans, want, shards, set.Len(), b)

	// Primary healed but quarantined: the skip itself fails over.
	kill.Store(false)
	ans, err = set.KNN(ctx, q, k)
	if err != nil {
		t.Fatal(err)
	}
	assertCaughtUpFailover(t, "quarantined", ans, want, shards, set.Len(), b)
	if o := ans.Outcomes[b]; !o.Skipped || o.Tries != 0 {
		t.Fatalf("quarantined outcome %+v, want skipped primary with zero tries", o)
	}
}

// TestReplicaLaggingFollowerDegraded: with the ship link down, the
// follower misses mutations; a failover answer must then be Degraded
// with a Freshness entry whose Lag is exactly the missed record
// count, charged to ItemsUncovered — and byte-identical to the
// reference restricted to what the follower provably holds. Healing
// the link restores the byte-identical healthy certificate.
func TestReplicaLaggingFollowerDegraded(t *testing.T) {
	const shards, b = 3, 0
	var blockShip, killPrimary atomic.Bool
	opts := replicaSetOpts()
	opts.replicaShipHook = func(shard int, lsn int64) error {
		if blockShip.Load() {
			return errors.New("ship link down")
		}
		return nil
	}
	opts.ShardHook = func(ctx context.Context, shard, try int, op string) error {
		if op == "knn" && shard == b && killPrimary.Load() {
			return errors.New("injected primary crash")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 42, Options{ReducedDims: 4, Seed: 1}, opts)
	defer set.Close()
	ctx := context.Background()
	wait, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := set.WaitReplicasCaughtUp(wait); err != nil {
		t.Fatal(err)
	}

	// Cut the link, then mutate: the primaries accept the writes, the
	// followers can't see them.
	blockShip.Store(true)
	gids := addInLockstep(t, set, single, extraVectors(t, 6))
	lag := 0
	missed := map[int]bool{}
	for _, gid := range gids {
		if gid%shards == b {
			lag++
			missed[gid] = true
		}
	}
	if lag == 0 {
		t.Fatal("setup: no late adds landed on the failing shard")
	}

	killPrimary.Store(true)
	q, k := queries[0], 5
	ans, err := set.KNN(ctx, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded {
		t.Fatal("lagging failover answer not marked Degraded — silently stale")
	}
	cov := ans.Coverage
	if cov.ShardsDegraded != 1 || cov.ShardsOK != shards-1 || cov.ShardsFailed != 0 {
		t.Fatalf("coverage = %+v", cov)
	}
	if cov.ItemsUncovered != lag {
		t.Fatalf("ItemsUncovered = %d, want ship lag %d", cov.ItemsUncovered, lag)
	}
	fr := cov.Freshness
	if len(fr) != 1 || fr[0].Shard != b || fr[0].Lag != int64(lag) ||
		fr[0].PrimaryLSN-fr[0].AppliedLSN != int64(lag) {
		t.Fatalf("freshness = %+v, want lag %d on shard %d", fr, lag, b)
	}
	if !ans.Outcomes[b].FailedOver {
		t.Fatalf("bad shard outcome %+v, want failover", ans.Outcomes[b])
	}
	// The stale slice is still exact over what the follower holds:
	// byte-identical to the reference excluding exactly the missed
	// mutations.
	want, _, err := knnWhere(single, q, k, func(gid int) bool { return !missed[gid] })
	if err != nil {
		t.Fatal(err)
	}
	sameResultBytes(t, "lagging", ans.Results, want)

	// Heal the link: the follower catches up and the same failed-over
	// query returns the full healthy certificate.
	blockShip.Store(false)
	wait2, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	if err := set.WaitReplicasCaughtUp(wait2); err != nil {
		t.Fatal(err)
	}
	wantFull, _, err := single.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	ans, err = set.KNN(ctx, q, k)
	if err != nil {
		t.Fatal(err)
	}
	assertCaughtUpFailover(t, "healed", ans, wantFull, shards, set.Len(), b)
}

// TestReplicaShipLinkFlapping: every record's first two ship attempts
// fail. The shipper's retry loop must still deliver everything in
// order, catch-up must complete, and a subsequent failover must be
// byte-identical — redelivery is idempotent, never double-applied.
func TestReplicaShipLinkFlapping(t *testing.T) {
	const shards = 3
	var mu sync.Mutex
	tries := map[[2]int64]int{}
	var bad atomic.Int64
	bad.Store(-1)
	opts := replicaSetOpts()
	opts.replicaShipHook = func(shard int, lsn int64) error {
		mu.Lock()
		defer mu.Unlock()
		key := [2]int64{int64(shard), lsn}
		tries[key]++
		if tries[key] <= 2 {
			return errors.New("link flap")
		}
		return nil
	}
	opts.ShardHook = func(ctx context.Context, shard, try int, op string) error {
		if op == "knn" && int64(shard) == bad.Load() {
			return errors.New("injected primary crash")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 42, Options{ReducedDims: 4, Seed: 1}, opts)
	defer set.Close()
	ctx := context.Background()
	addInLockstep(t, set, single, extraVectors(t, 6))
	wait, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := set.WaitReplicasCaughtUp(wait); err != nil {
		t.Fatalf("catch-up through flapping link: %v", err)
	}
	var shipErrs uint64
	for i := 0; i < shards; i++ {
		r, ok := set.Replica(i)
		if !ok || r.Lag != 0 {
			t.Fatalf("shard %d replica %+v, want caught up", i, r)
		}
		shipErrs += r.ShipErrors
	}
	if shipErrs == 0 {
		t.Fatal("flapping link produced no ship errors — hook not exercised")
	}
	q, k := queries[0], 5
	want, _, err := single.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < shards; b++ {
		bad.Store(int64(b))
		ans, err := set.KNN(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		assertCaughtUpFailover(t, fmt.Sprintf("flapped b=%d", b), ans, want, shards, set.Len(), b)
	}
}

// resultsIdentical is sameResultBytes for goroutines that cannot call
// t.Fatal: same indices, same Float64bits.
func resultsIdentical(got, want []Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Index != want[i].Index ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

// TestReplicaPromotion: each shard's follower is promoted to primary
// while queries run, answers staying byte-identical throughout; after
// promotion, shipping to the freshly bootstrapped followers resumes
// and failover off a promoted primary still serves the full slice.
func TestReplicaPromotion(t *testing.T) {
	const shards = 3
	var bad atomic.Int64
	bad.Store(-1)
	opts := replicaSetOpts()
	opts.ShardHook = func(ctx context.Context, shard, try int, op string) error {
		if op == "knn" && int64(shard) == bad.Load() {
			return errors.New("injected primary crash")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 42, Options{ReducedDims: 4, Seed: 1}, opts)
	defer set.Close()
	ctx := context.Background()
	if err := set.WaitReplicasCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	q, k := queries[0], 5
	want, _, err := single.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}

	// Hammer queries from four goroutines while every shard promotes.
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ans, err := set.KNN(ctx, q, k)
				if err != nil {
					errCh <- err
					return
				}
				if ans.Degraded {
					errCh <- errors.New("query degraded during promotion")
					return
				}
				if !resultsIdentical(ans.Results, want) {
					errCh <- fmt.Errorf("promotion broke identity: got %v want %v", ans.Results, want)
					return
				}
			}
		}()
	}
	for b := 0; b < shards; b++ {
		if err := set.Promote(ctx, b); err != nil {
			close(stop)
			t.Fatalf("promote shard %d: %v", b, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for i := 0; i < shards; i++ {
		r, ok := set.Replica(i)
		if !ok || !r.Bootstrapped || r.Lag != 0 {
			t.Fatalf("post-promotion shard %d replica %+v, want fresh caught-up follower", i, r)
		}
	}

	// Replication is live on the promoted primaries: new mutations
	// ship to the new followers and failover still serves in full.
	addInLockstep(t, set, single, extraVectors(t, 6))
	wait, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := set.WaitReplicasCaughtUp(wait); err != nil {
		t.Fatal(err)
	}
	wantFull, _, err := single.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < shards; b++ {
		bad.Store(int64(b))
		ans, err := set.KNN(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		assertCaughtUpFailover(t, fmt.Sprintf("post-promotion b=%d", b), ans, wantFull, shards, set.Len(), b)
	}
}

// TestReplicaDualFailure: primary and follower both die. The answer
// must degrade to a certified partial: the whole slice counted
// uncovered, the outcome error carrying both failures, and the
// results byte-identical to the reference restricted to the surviving
// shards.
func TestReplicaDualFailure(t *testing.T) {
	const shards, b = 3, 1
	opts := replicaSetOpts()
	opts.ShardHook = func(ctx context.Context, shard, try int, op string) error {
		if shard == b && (op == "knn" || op == "knn-failover") {
			return errors.New("injected total shard loss")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 48, Options{ReducedDims: 4, Seed: 1}, opts)
	defer set.Close()
	ctx := context.Background()
	q, k := queries[0], 5
	ans, err := set.KNN(ctx, q, k)
	if err != nil {
		t.Fatalf("dual failure of one shard must not fail the query: %v", err)
	}
	if !ans.Degraded {
		t.Fatal("dual-failure answer not marked Degraded")
	}
	cov := ans.Coverage
	if cov.ShardsFailed != 1 || len(cov.FailedShards) != 1 || cov.FailedShards[0] != b ||
		cov.ShardsOK != shards-1 || cov.ShardsDegraded != 0 {
		t.Fatalf("coverage = %+v", cov)
	}
	if want := shardLen(set.Len(), shards, b); cov.ItemsUncovered != want {
		t.Fatalf("ItemsUncovered = %d, want the lost shard's %d items", cov.ItemsUncovered, want)
	}
	if len(cov.Freshness) != 0 {
		t.Fatalf("dual failure produced a freshness entry: %+v", cov.Freshness)
	}
	o := ans.Outcomes[b]
	if o.FailedOver || o.Err == "" {
		t.Fatalf("outcome %+v, want un-failed-over error", o)
	}
	for _, sub := range []string{"failover", "injected total shard loss"} {
		if !strings.Contains(o.Err, sub) {
			t.Fatalf("outcome error %q missing %q", o.Err, sub)
		}
	}
	sameResultBytes(t, "dual", ans.Results, restrictedKNN(t, single, q, k, shards, map[int]bool{b: true}))
	assertSoundIntervals(t, "dual", single, q, ans.Anytime)
}

// TestReplicaRangeFailover: the failover path serves range queries
// too, with the same caught-up byte-identity and freshness entry.
func TestReplicaRangeFailover(t *testing.T) {
	const shards, b = 3, 2
	opts := replicaSetOpts()
	opts.ShardHook = func(ctx context.Context, shard, try int, op string) error {
		if op == "range" && shard == b {
			return errors.New("injected primary crash")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 48, Options{ReducedDims: 4, Seed: 1}, opts)
	defer set.Close()
	ctx := context.Background()
	if err := set.WaitReplicasCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		probe, _, err := single.KNN(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		eps := probe[len(probe)-1].Dist
		want, _, err := single.Range(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := set.Range(ctx, q, eps)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		if ans.Degraded {
			t.Fatalf("q%d: caught-up range failover degraded", qi)
		}
		assertFullCoverage(t, "range-failover", ans.Coverage, shards, set.Len())
		sameResultBytes(t, "range-failover", ans.Results, want)
		fr := ans.Coverage.Freshness
		if len(fr) != 1 || fr[0].Shard != b || fr[0].Lag != 0 {
			t.Fatalf("q%d: freshness = %+v, want zero-lag entry for shard %d", qi, fr, b)
		}
		if !ans.Outcomes[b].FailedOver {
			t.Fatalf("q%d: outcome %+v, want failover", qi, ans.Outcomes[b])
		}
	}
}

// TestReplicaRecoveredSetFailover: a set recovered from disk
// (OpenShardSet + Build) bootstraps followers the same way a fresh
// one does, so failover works immediately after crash recovery.
func TestReplicaRecoveredSetFailover(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	set, single, queries := buildChaosSet(t, shards, 30, Options{ReducedDims: 4, Seed: 1}, ShardSetOptions{})
	if err := set.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	var bad atomic.Int64
	bad.Store(-1)
	opts := replicaSetOpts()
	opts.Shards = shards
	opts.ShardHook = func(ctx context.Context, shard, try int, op string) error {
		if op == "knn" && int64(shard) == bad.Load() {
			return errors.New("injected primary crash")
		}
		return nil
	}
	rec, _, err := OpenShardSet(dir, single.Cost(), Options{ReducedDims: 4, Seed: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.Build(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rec.WaitReplicasCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	q, k := queries[0], 5
	want, _, err := single.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < shards; b++ {
		bad.Store(int64(b))
		ans, err := rec.KNN(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		assertCaughtUpFailover(t, fmt.Sprintf("recovered b=%d", b), ans, want, shards, rec.Len(), b)
	}
}

// TestShardSetAddHealsBrokenWAL: a shard whose WAL latches broken (a
// torn append whose rollback also failed) heals transparently inside
// ShardSet.Add — the log is reopened with bounded retries and the
// insert retried — and the healed log replays every acknowledged
// mutation exactly once.
func TestShardSetAddHealsBrokenWAL(t *testing.T) {
	// gid 4 — the first add after the break — lands on shard 0.
	const shards, b = 2, 0
	dir := t.TempDir()
	ds, err := data.MusicSpectra(15, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs, _, err := ds.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewShardSet(ds.Cost, Options{ReducedDims: 4, Seed: 1}, ShardSetOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.OpenWAL(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := set.Add(fmt.Sprintf("pre-%d", i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Break shard b's WAL file under the engine: writes fail and the
	// rollback truncate fails too, latching the log broken.
	displaced := set.engines[b].wal.SwapFileForTest(&faultWALFile{w: &faultio.Writer{W: io.Discard, Budget: 0}})
	if err := displaced.Close(); err != nil {
		t.Fatal(err)
	}

	// The next Add routed to shard b must heal the log and succeed.
	gid, err := set.Add("healed", vecs[4])
	if err != nil {
		t.Fatalf("Add through broken WAL did not heal: %v", err)
	}
	if want := 4; gid != want {
		t.Fatalf("healed add got gid %d, want %d", gid, want)
	}
	if got := set.Metrics().WALReopens; got != 1 {
		t.Fatalf("WALReopens = %d, want 1", got)
	}
	// Durable logging resumed: further mutations land normally.
	for i := 5; i < 8; i++ {
		if _, err := set.Add(fmt.Sprintf("post-%d", i), vecs[i]); err != nil {
			t.Fatalf("post-heal add %d: %v", i, err)
		}
	}
	if err := set.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Crash-recover: exactly the acknowledged items, placement intact.
	rec, _, err := OpenShardSet(dir, ds.Cost, Options{ReducedDims: 4, Seed: 1}, ShardSetOptions{Shards: shards})
	if err != nil {
		t.Fatalf("recover after heal: %v", err)
	}
	if rec.Len() != set.Len() || rec.Len() != 8 {
		t.Fatalf("recovered %d items, want 8", rec.Len())
	}
	if got := rec.Label(4); got != "healed" {
		t.Fatalf("recovered label %q for the healed add, want %q", got, "healed")
	}
}
