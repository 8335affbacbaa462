package emdsearch

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"emdsearch/internal/data"
)

// buildChaosSet is buildShardPair with caller-controlled engine
// options — the chaos tests inject faults through ShardHook and
// refineHook and need both knobs.
func buildChaosSet(t *testing.T, shards, n int, engOpts Options, setOpts ShardSetOptions) (*ShardSet, *Engine, []Histogram) {
	t.Helper()
	ds, err := data.MusicSpectra(n+5, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	setOpts.Shards = shards
	set, err := NewShardSet(ds.Cost, engOpts, setOpts)
	if err != nil {
		t.Fatal(err)
	}
	// The reference engine never gets the fault hook: it supplies
	// ground-truth exact distances and restricted answers.
	refOpts := engOpts
	refOpts.refineHook = nil
	single, err := NewEngine(ds.Cost, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		if _, err := set.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
		if _, err := single.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Build(); err != nil {
		t.Fatal(err)
	}
	if err := single.Build(); err != nil {
		t.Fatal(err)
	}
	return set, single, queries
}

// assertSoundIntervals checks every interval item against the exact
// EMD: Lower <= exact <= Upper, with refined intervals tight.
func assertSoundIntervals(t *testing.T, tag string, single *Engine, q Histogram, items []AnytimeItem) {
	t.Helper()
	for _, it := range items {
		exact := exactDist(t, single, q, it.Index)
		if !intervalContainsUlps(it.Lower, it.Upper, exact, 4) {
			t.Fatalf("%s: item %d interval [%v, %v] excludes exact %v", tag, it.Index, it.Lower, it.Upper, exact)
		}
		if it.Refined && it.Lower != it.Upper {
			t.Fatalf("%s: refined item %d has loose interval [%v, %v]", tag, it.Index, it.Lower, it.Upper)
		}
	}
}

// restrictedKNN is the ground truth for a query that lost some shards:
// the single engine's KNN over only the surviving shards' items.
func restrictedKNN(t *testing.T, single *Engine, q Histogram, k, shards int, failed map[int]bool) []Result {
	t.Helper()
	res, _, err := knnWhere(single, q, k, func(gid int) bool { return !failed[gid%shards] })
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardChaosErroringShard: one shard fails every KNN dispatch with
// a hard error. The answer must degrade with exact coverage accounting
// and be byte-identical to the single engine restricted to the
// surviving shards.
func TestShardChaosErroringShard(t *testing.T) {
	const shards, bad = 3, 1
	hook := func(ctx context.Context, shard, try int, op string) error {
		if shard == bad {
			return errors.New("injected shard fault")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 48, Options{ReducedDims: 4, Seed: 1},
		ShardSetOptions{ShardHook: hook, quarantineAfter: 100})
	q, k := queries[0], 5
	ans, err := set.KNN(context.Background(), q, k)
	if err != nil {
		t.Fatalf("partial failure must not fail the query: %v", err)
	}
	if !ans.Degraded {
		t.Fatal("answer with a failed shard not marked Degraded")
	}
	cov := ans.Coverage
	if cov.ShardsFailed != 1 || len(cov.FailedShards) != 1 || cov.FailedShards[0] != bad ||
		cov.ShardsOK != shards-1 || cov.ShardsDegraded != 0 {
		t.Fatalf("coverage = %+v", cov)
	}
	if want := shardLen(set.Len(), shards, bad); cov.ItemsUncovered != want {
		t.Fatalf("ItemsUncovered = %d, want failed shard's %d items", cov.ItemsUncovered, want)
	}
	sameResultBytes(t, "erroring", ans.Results, restrictedKNN(t, single, q, k, shards, map[int]bool{bad: true}))
	if len(ans.Anytime) == 0 || len(ans.Anytime) > k {
		t.Fatalf("%d anytime items for k=%d degraded answer", len(ans.Anytime), k)
	}
	assertSoundIntervals(t, "erroring", single, q, ans.Anytime)
	if ans.Outcomes[bad].Err == "" || ans.Outcomes[bad].Tries != 1 {
		t.Fatalf("bad shard outcome = %+v", ans.Outcomes[bad])
	}

	// Range over the same injected fault: surviving shards' certified
	// union, identical to the restricted single-engine answer.
	probe, _, err := single.KNN(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	eps := probe[len(probe)-1].Dist
	rans, err := set.Range(context.Background(), q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !rans.Degraded || rans.Coverage.ShardsFailed != 1 {
		t.Fatalf("range coverage = %+v degraded=%v", rans.Coverage, rans.Degraded)
	}
	full, _, err := single.Range(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for _, r := range full {
		if r.Index%shards != bad {
			want = append(want, r)
		}
	}
	sameResultBytes(t, "range-erroring", rans.Results, want)
}

// TestShardChaosPanickingShard: a panic inside one shard's dispatch is
// contained to that shard's outcome; the query serves from the rest.
func TestShardChaosPanickingShard(t *testing.T) {
	const shards, bad = 3, 2
	hook := func(ctx context.Context, shard, try int, op string) error {
		if shard == bad {
			panic("injected shard panic")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 36, Options{ReducedDims: 4, Seed: 1},
		ShardSetOptions{ShardHook: hook, quarantineAfter: 100})
	q, k := queries[1], 4
	ans, err := set.KNN(context.Background(), q, k)
	if err != nil {
		t.Fatalf("contained panic must not fail the query: %v", err)
	}
	if !ans.Degraded || ans.Coverage.ShardsFailed != 1 {
		t.Fatalf("degraded=%v coverage=%+v", ans.Degraded, ans.Coverage)
	}
	if !strings.Contains(ans.Outcomes[bad].Err, "panicked") {
		t.Fatalf("outcome error %q does not report the panic", ans.Outcomes[bad].Err)
	}
	sameResultBytes(t, "panicking", ans.Results, restrictedKNN(t, single, q, k, shards, map[int]bool{bad: true}))
	if h := set.Health(bad); h.Failures != 1 || h.LastError == "" {
		t.Fatalf("panic not recorded as shard fault: %+v", h)
	}
}

// TestShardChaosDelayedShard: one shard hangs until its context is
// cancelled. The query must return within its own deadline (plus
// scheduling slack), report the hung shard as failed coverage, and not
// quarantine it — the global budget expiring is not the shard's fault.
func TestShardChaosDelayedShard(t *testing.T) {
	const shards, slow = 3, 1
	hook := func(ctx context.Context, shard, try int, op string) error {
		if shard == slow {
			<-ctx.Done() // a hung shard: never answers, stops when told
			return ctx.Err()
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 36, Options{ReducedDims: 4, Seed: 1},
		ShardSetOptions{ShardHook: hook})
	q, k := queries[2], 4
	deadline := 80 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	ans, err := set.KNN(ctx, q, k)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hung shard must not fail the query: %v", err)
	}
	// The acceptance bound: never block past the deadline by more than
	// one retry budget (none here — deadline errors are not retried);
	// the slack absorbs scheduler latency under -race.
	if elapsed > deadline+400*time.Millisecond {
		t.Fatalf("query took %v against a %v deadline", elapsed, deadline)
	}
	if !ans.Degraded || ans.Coverage.ShardsFailed != 1 || ans.Coverage.FailedShards[0] != slow {
		t.Fatalf("degraded=%v coverage=%+v", ans.Degraded, ans.Coverage)
	}
	sameResultBytes(t, "delayed", ans.Results, restrictedKNN(t, single, q, k, shards, map[int]bool{slow: true}))
	assertSoundIntervals(t, "delayed", single, q, ans.Anytime)
	if h := set.Health(slow); h.Failures != 0 || h.State != "closed" {
		t.Fatalf("deadline expiry quarantined a healthy-but-slow shard: %+v", h)
	}
}

// TestShardChaosDegradedShards: every shard's refinement is slowed
// until the query deadline expires mid-search. All shards then serve
// certified partial answers: nil error, Degraded, sound intervals,
// every confirmed result exact.
//
// The slowdown overruns the deadline however well the filter prunes:
// a full answer confirms k exact distances, so some shard refines at
// least ⌈k/shards⌉ = 3 items in sequence, and each refinement sleeps
// half the deadline.
func TestShardChaosDegradedShards(t *testing.T) {
	const shards = 3
	deadline := 25 * time.Millisecond
	engOpts := Options{ReducedDims: 4, Seed: 1,
		refineHook: func(int) { time.Sleep(deadline / 2) }}
	set, single, queries := buildChaosSet(t, shards, 48, engOpts, ShardSetOptions{})
	q, k := queries[3], 8
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	ans, err := set.KNN(ctx, q, k)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline-degraded shards must not fail the query: %v", err)
	}
	if elapsed > deadline+400*time.Millisecond {
		t.Fatalf("query took %v against a %v deadline", elapsed, deadline)
	}
	if !ans.Degraded {
		t.Fatal("mid-search deadline did not degrade the answer")
	}
	cov := ans.Coverage
	if cov.ShardsFailed != 0 || cov.ShardsDegraded == 0 ||
		cov.ShardsOK+cov.ShardsDegraded != shards {
		t.Fatalf("coverage = %+v, want only OK/degraded shards", cov)
	}
	if cov.ItemsUncovered <= 0 || cov.ItemsUncovered >= cov.ItemsTotal {
		t.Fatalf("ItemsUncovered = %d of %d, want a proper partial cut", cov.ItemsUncovered, cov.ItemsTotal)
	}
	for i, r := range ans.Results {
		if exact := exactDist(t, single, q, r.Index); math.Float64bits(r.Dist) != math.Float64bits(exact) {
			t.Fatalf("confirmed result %d: dist %v, exact %v", r.Index, r.Dist, exact)
		}
		if i > 0 && (ans.Results[i-1].Dist > r.Dist ||
			(ans.Results[i-1].Dist == r.Dist && ans.Results[i-1].Index > r.Index)) {
			t.Fatalf("results out of (Dist, Index) order at %d: %v", i, ans.Results)
		}
	}
	if len(ans.Anytime) == 0 {
		t.Fatal("degraded answer has no interval view")
	}
	assertSoundIntervals(t, "degraded", single, q, ans.Anytime)
	// Slow-but-sound shards must not be punished.
	for i := 0; i < shards; i++ {
		if h := set.Health(i); h.Failures != 0 {
			t.Fatalf("shard %d faulted for a deadline degrade: %+v", i, h)
		}
	}
}

// TestShardChaosOverloadRetry: a shard that sheds its first attempt
// with ErrOverloaded is retried after the server-supplied RetryAfter
// and the query still returns a full healthy answer.
func TestShardChaosOverloadRetry(t *testing.T) {
	const shards = 3
	retryAfter := 10 * time.Millisecond
	var calls atomic.Int64
	hook := func(ctx context.Context, shard, try int, op string) error {
		calls.Add(1)
		if shard == 0 && try == 0 {
			return &OverloadError{Reason: "injected shed", RetryAfter: retryAfter}
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 36, Options{ReducedDims: 4, Seed: 1},
		ShardSetOptions{ShardHook: hook})
	q, k := queries[0], 4
	start := time.Now()
	ans, err := set.KNN(context.Background(), q, k)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded {
		t.Fatalf("retried overload degraded the answer: %+v", ans.Coverage)
	}
	assertFullCoverage(t, "overload", ans.Coverage, shards, set.Len())
	want, _, err := single.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	sameResultBytes(t, "overload", ans.Results, want)
	o := ans.Outcomes[0]
	if o.Retries != 1 || o.Tries != 2 || o.Err != "" {
		t.Fatalf("shed shard outcome = %+v, want one clean retry", o)
	}
	if elapsed < retryAfter {
		t.Fatalf("query finished in %v, before the %v RetryAfter floor", elapsed, retryAfter)
	}
	if h := set.Health(0); h.Failures != 0 {
		t.Fatalf("overload shedding counted as shard fault: %+v", h)
	}
	if m := set.Metrics(); m.Retries != 1 {
		t.Fatalf("set metrics retries = %d, want 1", m.Retries)
	}
}

// TestShardChaosQuarantineFlapping: a flapping shard is quarantined
// after quarantineAfter consecutive faults, skipped (not dispatched)
// while quarantined, probed after the cooldown, and re-admitted once
// the probe succeeds.
func TestShardChaosQuarantineFlapping(t *testing.T) {
	const shards, bad = 3, 1
	var failing atomic.Bool
	failing.Store(true)
	hook := func(ctx context.Context, shard, try int, op string) error {
		if shard == bad && failing.Load() {
			return errors.New("injected flap")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 36, Options{ReducedDims: 4, Seed: 1},
		ShardSetOptions{ShardHook: hook, quarantineAfter: 2})
	ctx, q, k := context.Background(), queries[0], 4

	// Two faulting queries reach the threshold.
	for i := 0; i < 2; i++ {
		ans, err := set.KNN(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Degraded || ans.Outcomes[bad].Err == "" || ans.Outcomes[bad].Skipped {
			t.Fatalf("faulting query %d: %+v", i, ans.Outcomes[bad])
		}
	}
	if h := set.Health(bad); h.State != "open" || h.Quarantines != 1 || h.Failures != 2 {
		t.Fatalf("after threshold: %+v", h)
	}

	// Quarantined: the dispatch is suppressed, coverage still accounts
	// the shard as failed, the rest of the answer stays correct.
	ans, err := set.KNN(ctx, q, k)
	if err != nil {
		t.Fatal(err)
	}
	o := ans.Outcomes[bad]
	if !o.Skipped || o.Tries != 0 || !strings.Contains(o.Err, "quarantined") {
		t.Fatalf("quarantined outcome = %+v", o)
	}
	if ans.Coverage.ShardsFailed != 1 || ans.Coverage.FailedShards[0] != bad {
		t.Fatalf("quarantined coverage = %+v", ans.Coverage)
	}
	sameResultBytes(t, "quarantined", ans.Results, restrictedKNN(t, single, q, k, shards, map[int]bool{bad: true}))
	if h := set.Health(bad); h.Skips < 1 {
		t.Fatalf("skip not counted: %+v", h)
	}

	// Heal, wait out the cooldown: the probe query is re-admitted,
	// succeeds, and closes the breaker.
	failing.Store(false)
	time.Sleep(quarantineCooldown + 20*time.Millisecond)
	ans, err = set.KNN(ctx, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded || ans.Outcomes[bad].Skipped {
		t.Fatalf("probe after heal: degraded=%v outcome=%+v", ans.Degraded, ans.Outcomes[bad])
	}
	assertFullCoverage(t, "readmitted", ans.Coverage, shards, set.Len())
	want, _, err := single.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	sameResultBytes(t, "readmitted", ans.Results, want)
	if h := set.Health(bad); h.State != "closed" {
		t.Fatalf("breaker did not close after successful probe: %+v", h)
	}
	if m := set.Metrics(); m.QuarantineSkips < 1 || m.ShardFailures < 2 {
		t.Fatalf("set metrics = %+v", m)
	}
}

// TestShardChaosFailoverAfterOffers: a primary confirms neighbors
// into the shared k-NN set, then faults, and its follower searches the
// same slice again — offering the same (global id, dist) pairs a
// second time. Duplicate offers must collapse to one top-k slot each;
// were they to occupy two, the published threshold would drop below
// the true global k-th distance and the healthy shards would prune
// true neighbors, silently corrupting a non-Degraded answer.
func TestShardChaosFailoverAfterOffers(t *testing.T) {
	const shards, bad, k = 3, 1, 6
	// The 2nd refinement panics once: the bad shard's primary has
	// confirmed and offered its 1st. The other shards' hooks hold them
	// until the follower has started its k-th refinement (it refines at
	// least k items of its slice), so the follower's repeated offers
	// are in the shared set before any other shard reads its threshold.
	var refinements atomic.Int64
	offered := make(chan struct{})
	engOpts := Options{ReducedDims: 4, Seed: 1, refineHook: func(int) {
		switch refinements.Add(1) {
		case 2:
			panic("injected fault after an offer")
		case 2 + k:
			close(offered)
		}
	}}
	hook := func(ctx context.Context, shard, try int, op string) error {
		if shard == bad || op != "knn" {
			return nil
		}
		select {
		case <-offered:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("the bad shard's follower never re-offered")
		}
	}
	set, single, queries := buildChaosSet(t, shards, 36, engOpts,
		ShardSetOptions{ShardHook: hook, Replicas: 1})
	defer set.Close()
	q := queries[2]
	ans, err := set.KNN(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	o := ans.Outcomes[bad]
	if !o.FailedOver || o.Tries != 1 || o.Err != "" {
		t.Fatalf("bad shard outcome = %+v, want a clean failover", o)
	}
	if ans.Degraded {
		t.Fatalf("caught-up failover degraded: %+v", ans.Coverage)
	}
	assertFullCoverage(t, "failover-after-offers", ans.Coverage, shards, set.Len())
	want, _, err := single.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	sameResultBytes(t, "failover-after-offers", ans.Results, want)
}

// TestShardChaosAllShardsFail: with every shard failing, the query
// returns a non-nil error and a fully-uncovered certificate.
func TestShardChaosAllShardsFail(t *testing.T) {
	const shards = 3
	hook := func(ctx context.Context, shard, try int, op string) error {
		return errors.New("injected total outage")
	}
	set, _, queries := buildChaosSet(t, shards, 36, Options{ReducedDims: 4, Seed: 1},
		ShardSetOptions{ShardHook: hook, quarantineAfter: 100})
	ans, err := set.KNN(context.Background(), queries[0], 4)
	if err == nil || !strings.Contains(err.Error(), "total outage") {
		t.Fatalf("total outage error = %v", err)
	}
	if ans == nil || !ans.Degraded {
		t.Fatal("total outage must still return a degraded certificate")
	}
	cov := ans.Coverage
	if cov.ShardsFailed != shards || cov.ItemsUncovered != cov.ItemsTotal || cov.ItemsTotal != set.Len() {
		t.Fatalf("coverage = %+v, want everything uncovered", cov)
	}
	if len(ans.Results) != 0 {
		t.Fatalf("results from a total outage: %v", ans.Results)
	}

	rans, rerr := set.Range(context.Background(), queries[0], 1)
	if rerr == nil || rans == nil || !rans.Degraded || rans.Coverage.ShardsFailed != shards {
		t.Fatalf("range total outage: err=%v ans=%+v", rerr, rans)
	}
}

// TestShardChaosBatchIsolation: per-query fault injection inside a
// batch stays confined to its query — healthy entries remain
// byte-identical to the single engine.
func TestShardChaosBatchIsolation(t *testing.T) {
	const shards = 3
	// Serial queries so the hook can key the fault off a counter: fail
	// shard 2 for the middle query only.
	var qi atomic.Int64
	hook := func(ctx context.Context, shard, try int, op string) error {
		if shard == 2 && qi.Load() == 1 {
			return errors.New("injected batch fault")
		}
		return nil
	}
	set, single, queries := buildChaosSet(t, shards, 36, Options{ReducedDims: 4, Seed: 1},
		ShardSetOptions{ShardHook: hook, quarantineAfter: 100})
	out := make([]*ShardAnswer, len(queries))
	for i, q := range queries {
		qi.Store(int64(i))
		ans, err := set.KNN(context.Background(), q, 4)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = ans
	}
	for i, ans := range out {
		if i == 1 {
			if !ans.Degraded || ans.Coverage.ShardsFailed != 1 {
				t.Fatalf("faulted query: degraded=%v coverage=%+v", ans.Degraded, ans.Coverage)
			}
			sameResultBytes(t, "batch-faulted", ans.Results,
				restrictedKNN(t, single, queries[i], 4, shards, map[int]bool{2: true}))
			continue
		}
		if ans.Degraded {
			t.Fatalf("healthy query %d degraded: %+v", i, ans.Coverage)
		}
		want, _, err := single.KNN(queries[i], 4)
		if err != nil {
			t.Fatal(err)
		}
		sameResultBytes(t, "batch-healthy", ans.Results, want)
	}
}
