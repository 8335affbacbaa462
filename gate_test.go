package emdsearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chaosEngine builds a small engine whose refinements panic while
// *panics is true — the injected solver-invariant failure every
// containment test needs. The hook reads the flag atomically, so tests
// can flip faults on and off mid-run without rebuilding the engine.
func chaosEngine(t *testing.T, n, d, workers int, panics *atomic.Bool) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	eng, err := NewEngine(LinearCost(d), Options{
		ReducedDims: 2,
		Workers:     workers,
		Seed:        1,
		RefineHook: func(index int) {
			if panics.Load() {
				panic(fmt.Sprintf("injected solver fault refining item %d", index))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := eng.Add(fmt.Sprintf("item-%d", i), randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBadQueryAllEntryPoints drives every public query method of
// Engine, Gate and ShardSet, and every malformed Query combination, and
// asserts the uniform contract: the error wraps ErrBadQuery, nothing
// panics, and nothing is silently accepted. Rows are named after the
// query shape they send; the shapes the Query value and the
// context-first methods absorbed (KNNWithLabel, RangeIDs, DistanceCtx,
// ...) keep the names of the methods that used to serve them. A
// BatchKNN row sends the malformed query beside a valid one,
// concurrently, and the valid one must still succeed.
func TestBadQueryAllEntryPoints(t *testing.T) {
	var off atomic.Bool
	eng := chaosEngine(t, 30, 4, 1, &off)
	gate := NewGate(eng, GateOptions{})
	set, _, setQueries := buildShardPair(t, 2, 20, ShardSetOptions{})
	ctx := context.Background()
	good := Histogram{0.25, 0.25, 0.25, 0.25}
	short := Histogram{0.5, 0.5}
	search := func(q Query) func() error {
		return func() error { _, err := eng.Search(ctx, q); return err }
	}
	gateSearch := func(q Query) func() error {
		return func() error { _, err := gate.Search(ctx, q); return err }
	}
	// batch runs bad beside a valid k-NN query through search and
	// returns bad's error, failing if the valid query does not succeed.
	batch := func(search func(Query) (*KNNAnswer, error), bad Query) func() error {
		return func() error {
			errs := make([]error, 2)
			concurrently(2, func(i int) {
				q := bad
				if i == 0 {
					q = Query{Hist: good, K: 3}
				}
				_, errs[i] = search(q)
			})
			if errs[0] != nil {
				return fmt.Errorf("valid query beside the bad one failed: %v", errs[0])
			}
			return errs[1]
		}
	}
	engSearch := func(q Query) (*KNNAnswer, error) { return eng.Search(ctx, q) }
	cases := []struct {
		name string
		call func() error
	}{
		{"KNN/wrong-dim", func() error { _, _, err := eng.KNN(short, 3); return err }},
		{"KNN/k=0", func() error { _, _, err := eng.KNN(good, 0); return err }},
		{"KNNCtx/wrong-dim", func() error { _, err := eng.KNNCtx(ctx, short, 3); return err }},
		{"KNNCtx/k=-1", func() error { _, err := eng.KNNCtx(ctx, good, -1); return err }},
		{"KNNWithLabel/wrong-dim", search(Query{Hist: short, K: 3, Where: labelIs("item-1")})},
		{"Range/negative-eps", func() error { _, _, err := eng.Range(good, -1); return err }},
		{"Range/nan-eps", func() error { _, _, err := eng.Range(good, math.NaN()); return err }},
		{"RangeCtx/wrong-dim", search(Query{Hist: short, Range: true, Eps: 1})},
		{"RangeIDs/negative-eps", search(Query{Hist: good, Range: true, Eps: -1, IDsOnly: true})},
		{"RangeIDsCtx/wrong-dim", search(Query{Hist: short, Range: true, Eps: 1, IDsOnly: true})},
		{"BatchKNN/k=0", batch(engSearch, Query{Hist: good})},
		{"Search/k=-1", search(Query{Hist: good, K: -1})},
		{"Search/zero-value", search(Query{})},
		{"Search/knn-ids-only", search(Query{Hist: good, K: 3, IDsOnly: true})},
		{"Search/knn-with-eps", search(Query{Hist: good, K: 3, Eps: 0.5})},
		{"Search/range-with-k", search(Query{Hist: good, Range: true, Eps: 0.5, K: 3})},
		{"Search/range-k=-1", search(Query{Hist: good, Range: true, Eps: 0.5, K: -1})},
		{"Search/range-nan-eps", search(Query{Hist: good, Range: true, Eps: math.NaN(), IDsOnly: true})},
		{"Search/range-negative-inf-eps", search(Query{Hist: good, Range: true, Eps: math.Inf(-1)})},
		{"Rank/wrong-dim", func() error { _, err := eng.Rank(ctx, short); return err }},
		{"ApproxKNN/k=0", func() error { _, _, err := eng.ApproxKNN(ctx, good, 0); return err }},
		{"ApproxKNN/wrong-dim", func() error { _, _, err := eng.ApproxKNN(ctx, short, 3); return err }},
		{"EpsilonForCount/count=0", func() error { _, err := eng.EpsilonForCount(ctx, good, 0); return err }},
		{"EpsilonForCount/wrong-dim", func() error { _, err := eng.EpsilonForCount(ctx, short, 3); return err }},
		{"DistanceDistribution/sample=0", func() error { _, err := eng.DistanceDistribution(ctx, good, 0); return err }},
		{"DistanceDistribution/wrong-dim", func() error { _, err := eng.DistanceDistribution(ctx, short, 3); return err }},
		{"Distance/out-of-range", func() error { _, err := eng.Distance(ctx, good, 10_000); return err }},
		{"Distance/negative-index", func() error { _, err := eng.Distance(ctx, good, -1); return err }},
		{"DistanceCtx/wrong-dim", func() error { _, err := eng.Distance(ctx, short, 0); return err }},
		{"Explain/out-of-range", func() error { _, err := eng.Explain(ctx, good, 10_000, 0); return err }},
		{"Explain/negative-index", func() error { _, err := eng.Explain(ctx, good, -1, 0); return err }},
		{"Explain/topK=-1", func() error { _, err := eng.Explain(ctx, good, 0, -1); return err }},
		{"Explain/wrong-dim", func() error { _, err := eng.Explain(ctx, short, 0, 0); return err }},
		{"Gate.KNN/wrong-dim", func() error { _, err := gate.KNN(ctx, short, 3); return err }},
		{"Gate.KNN/k=0", func() error { _, err := gate.KNN(ctx, good, 0); return err }},
		{"Gate.Range/negative-eps", gateSearch(Query{Hist: good, Range: true, Eps: -1})},
		{"Gate.RangeIDs/wrong-dim", gateSearch(Query{Hist: short, Range: true, Eps: 1, IDsOnly: true})},
		{"Gate.BatchKNN/k=0", batch(func(q Query) (*KNNAnswer, error) { return gate.Search(ctx, q) }, Query{Hist: good})},
		{"Gate.Search/knn-ids-only", gateSearch(Query{Hist: good, K: 3, IDsOnly: true})},
		{"Gate.Search/range-with-k", gateSearch(Query{Hist: good, Range: true, Eps: 0.5, K: 3})},
		{"ShardSet.KNN/k=0", func() error { _, err := set.KNN(ctx, setQueries[0], 0); return err }},
		{"ShardSet.KNN/wrong-dim", func() error { _, err := set.KNN(ctx, short, 3); return err }},
		{"ShardSet.Range/nan-eps", func() error { _, err := set.Range(ctx, setQueries[0], math.NaN()); return err }},
		{"ShardSet.Range/wrong-dim", func() error { _, err := set.Range(ctx, short, 1); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("malformed query accepted")
			}
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("err = %v, does not wrap ErrBadQuery", err)
			}
		})
	}
}

// TestPanicContainment proves a solver panic mid-refinement neither
// unwinds into the caller nor poisons the engine: the query fails with
// a typed ErrInternal carrying the faulting item and stack, the panic
// metric ticks, and the very next query (fault off) succeeds — in both
// the sequential and the parallel refinement paths.
func TestPanicContainment(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var panics atomic.Bool
			eng := chaosEngine(t, 40, 4, workers, &panics)
			rng := rand.New(rand.NewSource(2))
			q := randHist(rng, 4)

			panics.Store(true)
			_, _, err := eng.KNN(q, 5)
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("KNN during fault: err = %v, want ErrInternal", err)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v, not an *InternalError", err)
			}
			if ie.Index < 0 || len(ie.Stack) == 0 {
				t.Fatalf("InternalError missing context: index=%d stack=%dB", ie.Index, len(ie.Stack))
			}
			if _, _, err := eng.Range(q, 0.5); !errors.Is(err, ErrInternal) {
				t.Fatalf("Range during fault: err = %v, want ErrInternal", err)
			}

			panics.Store(false)
			res, _, err := eng.KNN(q, 5)
			if err != nil {
				t.Fatalf("KNN after fault cleared: %v", err)
			}
			if len(res) != 5 {
				t.Fatalf("KNN after fault returned %d results, want 5", len(res))
			}
			if eng.Metrics().QueryPanics == 0 {
				t.Fatal("QueryPanics metric did not tick")
			}

			// The feeder side of the loop is behind the same barrier: a
			// predicate that panics on its third call fails its query the
			// same way and strands no refinement worker on the dispatch
			// channel.
			goroutines, panicsBefore := runtime.NumGoroutine(), eng.Metrics().QueryPanics
			calls := 0
			_, _, err = knnWhere(eng, q, 5, func(int) bool {
				if calls++; calls == 3 {
					panic("injected predicate fault")
				}
				return true
			})
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("k-NN with a panicking predicate: err = %v, want ErrInternal", err)
			}
			if got := eng.Metrics().QueryPanics; got != panicsBefore+1 {
				t.Fatalf("QueryPanics = %d after the predicate fault, want %d", got, panicsBefore+1)
			}
			// The pool was waited for before the query returned; a worker
			// may still be between its wg.Done and its exit.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the contained predicate fault, %d before it", runtime.NumGoroutine(), goroutines)
				}
			}
			if res, _, err := eng.KNN(q, 5); err != nil || len(res) != 5 {
				t.Fatalf("KNN after the predicate fault: %d results, err %v", len(res), err)
			}
		})
	}
}

// TestChaosBitIdentity is the corruption check behind the containment
// claim: after injected panics are drained, a chaos engine's answers
// are bit-identical (index and float bit pattern) to a never-faulted
// engine built from the same data — a contained panic leaves no
// residue in pooled solver state or the snapshot pipeline.
func TestChaosBitIdentity(t *testing.T) {
	var never atomic.Bool
	clean := chaosEngine(t, 50, 4, 2, &never)

	var panics atomic.Bool
	chaotic := chaosEngine(t, 50, 4, 2, &panics)

	rng := rand.New(rand.NewSource(3))
	sawFault := false
	for qi := 0; qi < 10; qi++ {
		q := randHist(rng, 4)
		want, _, err := clean.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Fault the first attempts, then let a retry through — the
		// client-visible shape of a transient solver bug.
		panics.Store(true)
		if _, _, err := chaotic.KNN(q, 5); errors.Is(err, ErrInternal) {
			sawFault = true
		}
		panics.Store(false)
		got, _, err := chaotic.KNN(q, 5)
		if err != nil {
			t.Fatalf("query %d after fault: %v", qi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i].Index ||
				math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("query %d result %d: got (%d, %x) want (%d, %x) — fault residue",
					qi, i, got[i].Index, math.Float64bits(got[i].Dist),
					want[i].Index, math.Float64bits(want[i].Dist))
			}
		}
	}
	if !sawFault {
		t.Fatal("chaos injection never fired; test proves nothing")
	}
}

// TestBreakerTripsAndRecovers walks the full breaker lifecycle:
// repeated injected faults trip it open, open-state k-NN serves
// certified lower-bound-only answers with zero exact solves while
// range queries shed with a typed overload error, and after the
// cooldown a clean probe closes it and exact serving resumes.
func TestBreakerTripsAndRecovers(t *testing.T) {
	var panics atomic.Bool
	eng := chaosEngine(t, 40, 4, 1, &panics)
	gate := NewGate(eng, GateOptions{
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
	})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))
	q := randHist(rng, 4)

	panics.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := gate.KNN(ctx, q, 5); !errors.Is(err, ErrInternal) {
			t.Fatalf("fault %d: err = %v, want ErrInternal", i, err)
		}
	}
	if st := gate.Metrics().BreakerState; st != "open" {
		t.Fatalf("breaker %s after %d faults, want open", st, 2)
	}

	// Open: k-NN degrades to certified LB-only answers — no exact
	// solves, so the still-faulting hook cannot fire.
	ans, err := gate.KNN(ctx, q, 5)
	if err != nil {
		t.Fatalf("KNN with breaker open: %v", err)
	}
	if !ans.Degraded || len(ans.Anytime) == 0 {
		t.Fatalf("breaker-open answer degraded=%v anytime=%d, want certified degraded items", ans.Degraded, len(ans.Anytime))
	}
	for i, it := range ans.Anytime {
		if it.Refined {
			t.Fatalf("breaker-open item %d claims exact refinement", i)
		}
		if it.Lower > it.Upper {
			t.Fatalf("item %d certificate inverted: [%g, %g]", i, it.Lower, it.Upper)
		}
	}
	// Open: range queries have no solve-free form, so they shed.
	rq := Query{Hist: q, Range: true, Eps: 0.5}
	if _, err := gate.Search(ctx, rq); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Range with breaker open: err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	_, err = gate.Search(ctx, rq)
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("breaker-open shed carries no retry-after: %v", err)
	}

	// Heal the solver, wait out the cooldown: the next query is the
	// half-open probe, its success closes the breaker.
	panics.Store(false)
	time.Sleep(40 * time.Millisecond)
	ans, err = gate.KNN(ctx, q, 5)
	if err != nil {
		t.Fatalf("probe query: %v", err)
	}
	if ans.Degraded {
		t.Fatal("probe query degraded, want exact")
	}
	if st := gate.Metrics().BreakerState; st != "closed" {
		t.Fatalf("breaker %s after clean probe, want closed", st)
	}
	if got := gate.Metrics().BreakerTrips; got != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", got)
	}
}

// TestGateChaosUnderMutation is the race harness for the whole
// overload layer: gate-admitted k-NN, range, membership and concurrent
// pairs of k-NN queries run against concurrent Add, Delete and
// Checkpoint with randomly injected solver panics, and every single
// query must resolve to exactly one of a full result, a certified
// degraded answer, or a typed error. Run with -race in CI.
func TestGateChaosUnderMutation(t *testing.T) {
	var ctr atomic.Uint64
	var chaos atomic.Bool
	rng := rand.New(rand.NewSource(5))
	const d = 4
	eng, err := NewEngine(LinearCost(d), Options{
		ReducedDims: 2,
		Workers:     2,
		Seed:        1,
		RefineHook: func(index int) {
			// Deterministic sparse faults: roughly 1 in 50 refinements
			// panics once chaos is on.
			if chaos.Load() && ctr.Add(1)%50 == 0 {
				panic(fmt.Sprintf("chaos fault on item %d", index))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := eng.Add(fmt.Sprintf("seed-%d", i), randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	gate := NewGate(eng, GateOptions{
		MaxConcurrent:    4,
		MaxQueue:         8,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Millisecond,
	})
	chaos.Store(true)

	queriesPer := 30
	clients := 6
	if testing.Short() {
		queriesPer, clients = 10, 3
	}
	var (
		wg         sync.WaitGroup
		unresolved atomic.Int64
		outcomes   [4]atomic.Int64 // ok, degraded, typed error, shed
	)
	classify := func(ans *KNNAnswer, err error) {
		switch {
		case err == nil && ans != nil && !ans.Degraded:
			outcomes[0].Add(1)
		case ans != nil && ans.Degraded:
			outcomes[1].Add(1)
		case errors.Is(err, ErrOverloaded):
			outcomes[3].Add(1)
		case errors.Is(err, ErrInternal) || errors.Is(err, ErrBadQuery),
			errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			outcomes[2].Add(1)
		default:
			unresolved.Add(1)
		}
	}
	stopMut := make(chan struct{})
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		mrng := rand.New(rand.NewSource(6))
		dir := t.TempDir()
		for i := 0; ; i++ {
			select {
			case <-stopMut:
				return
			default:
			}
			switch i % 7 {
			case 3:
				_ = eng.Delete(mrng.Intn(eng.Len()))
			case 5:
				_ = eng.Checkpoint(filepath.Join(dir, "ck"))
			default:
				if _, err := eng.Add("mut", randHist(mrng, d)); err != nil {
					t.Errorf("mutation add: %v", err)
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < queriesPer; i++ {
				q := randHist(qrng, d)
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				switch i % 4 {
				case 0:
					classify(gate.KNN(ctx, q, 5))
				case 1:
					classify(gate.Search(ctx, Query{Hist: q, Range: true, Eps: 0.3}))
				case 2:
					classify(gate.Search(ctx, Query{Hist: q, Range: true, Eps: 0.3, IDsOnly: true}))
				case 3:
					pair := []Histogram{q, randHist(qrng, d)}
					concurrently(len(pair), func(j int) { classify(gate.KNN(ctx, pair[j], 3)) })
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()
	close(stopMut)
	mutWG.Wait()

	if n := unresolved.Load(); n != 0 {
		t.Fatalf("%d queries resolved to none of {result, degraded answer, typed error}", n)
	}
	t.Logf("outcomes: ok=%d degraded=%d typed-error=%d shed=%d breaker=%s trips=%d",
		outcomes[0].Load(), outcomes[1].Load(), outcomes[2].Load(), outcomes[3].Load(),
		gate.Metrics().BreakerState, gate.Metrics().BreakerTrips)
	if outcomes[0].Load() == 0 {
		t.Fatal("no query ever fully succeeded under chaos")
	}
}

// TestGateShedsFast pins the load-shedding latency contract: with the
// only slot and the only queue position deterministically held (a
// refinement parked on a channel), an incoming query is rejected with
// a typed OverloadError carrying queue depth, well under a
// millisecond.
func TestGateShedsFast(t *testing.T) {
	var blockOn atomic.Bool
	unblock := make(chan struct{})
	rng := rand.New(rand.NewSource(7))
	const d = 4
	eng, err := NewEngine(LinearCost(d), Options{
		ReducedDims: 2,
		Seed:        1,
		RefineHook: func(int) {
			if blockOn.Load() {
				<-unblock
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := eng.Add("item", randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	gate := NewGate(eng, GateOptions{MaxConcurrent: 1, MaxQueue: 1})
	q := randHist(rng, d)

	blockOn.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := gate.KNN(context.Background(), q, 5); err != nil {
				t.Errorf("holder query: %v", err)
			}
		}()
	}
	// Holder 1 parks inside refinement holding the slot; holder 2 waits
	// for the slot, filling the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := gate.Metrics()
		if m.InFlight >= 1 && m.QueueDepth >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("limiter never saturated")
		}
		time.Sleep(100 * time.Microsecond)
	}

	t0 := time.Now()
	_, err = gate.KNN(context.Background(), q, 5)
	lat := time.Since(t0)
	blockOn.Store(false)
	close(unblock)
	wg.Wait()

	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated gate: err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, not an *OverloadError", err)
	}
	if oe.QueueDepth < 1 {
		t.Fatalf("OverloadError.QueueDepth = %d, want >= 1", oe.QueueDepth)
	}
	if lat > time.Millisecond {
		t.Fatalf("shed took %v, want < 1ms", lat)
	}
}

// TestGateBatchKNNMixedOutcomes drives a batch of concurrent k-NN
// queries through a gate sized for exactly one running and one queued
// query, with slow refinements and an aggressive degrade policy, so one
// batch mixes all three per-query outcomes: served in full, served
// degraded, and shed with ErrOverloaded. Each entry must resolve
// independently — no error or partial answer may leak into a sibling's
// slot.
func TestGateBatchKNNMixedOutcomes(t *testing.T) {
	d := 8
	rng := rand.New(rand.NewSource(31))
	eng, err := NewEngine(LinearCost(d), Options{
		ReducedDims: 2,
		Seed:        1,
		RefineHook:  func(int) { time.Sleep(2 * time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := eng.Add(fmt.Sprintf("item-%d", i), randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	gate := NewGate(eng, GateOptions{
		MaxConcurrent: 1,
		MaxQueue:      1,
		DegradeAt:     0.01, // any queue occupancy degrades admitted queries
		DegradeBudget: 4 * time.Millisecond,
	})

	const batch, k = 10, 3
	queries := make([]Histogram, batch)
	for i := range queries {
		queries[i] = randHist(rng, d)
	}
	type entry struct {
		Answer *KNNAnswer
		Err    error
	}
	out := make([]entry, batch)
	concurrently(batch, func(i int) {
		ans, err := gate.Search(context.Background(), Query{Hist: queries[i], K: k})
		out[i] = entry{ans, err}
	})

	ok, degraded, shed := 0, 0, 0
	for i, r := range out {
		switch {
		case r.Err != nil:
			if !errors.Is(r.Err, ErrOverloaded) {
				t.Fatalf("entry %d failed with %v, want ErrOverloaded", i, r.Err)
			}
			if r.Answer != nil && len(r.Answer.Results) > 0 {
				t.Fatalf("shed entry %d carries results: %+v", i, r.Answer)
			}
			shed++
		case r.Answer.Degraded:
			// A degraded answer is sound: every confirmed result is the
			// exact distance for ITS OWN query — a cross-contaminated
			// slot would fail this check.
			for _, res := range r.Answer.Results {
				exact := exactDist(t, eng, queries[i], res.Index)
				if math.Float64bits(res.Dist) != math.Float64bits(exact) {
					t.Fatalf("degraded entry %d: result %d dist %v, exact %v", i, res.Index, res.Dist, exact)
				}
			}
			for _, it := range r.Answer.Anytime {
				exact := exactDist(t, eng, queries[i], it.Index)
				if !intervalContainsUlps(it.Lower, it.Upper, exact, 4) {
					t.Fatalf("degraded entry %d: interval [%v, %v] excludes exact %v", i, it.Lower, it.Upper, exact)
				}
			}
			degraded++
		default:
			// Full answers must be byte-identical to the engine's own.
			want, _, err := eng.KNN(queries[i], k)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Answer.Results) != len(want) {
				t.Fatalf("entry %d: %d results, want %d", i, len(r.Answer.Results), len(want))
			}
			for j := range want {
				if r.Answer.Results[j].Index != want[j].Index ||
					math.Float64bits(r.Answer.Results[j].Dist) != math.Float64bits(want[j].Dist) {
					t.Fatalf("entry %d pos %d: got %+v, want %+v", i, j, r.Answer.Results[j], want[j])
				}
			}
			ok++
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("outcome mix ok=%d degraded=%d shed=%d: the gate sizing did not force a mix", ok, degraded, shed)
	}
	m := gate.Metrics()
	if m.Shed < int64(shed) || m.Admitted < int64(ok) {
		t.Fatalf("gate metrics %+v inconsistent with outcomes ok=%d shed=%d", m, ok, shed)
	}
}
