package emdsearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// indexWhere adapts an index predicate to Query.Where.
func indexWhere(pred func(int) bool) func(int, string) bool {
	return func(i int, _ string) bool { return pred(i) }
}

// labelIs is the Query.Where of the items carrying label.
func labelIs(label string) func(int, string) bool {
	return func(_ int, l string) bool { return l == label }
}

// knnWhere is the k-NN query restricted to the items pred accepts.
func knnWhere(eng *Engine, q Histogram, k int, pred func(int) bool) ([]Result, *QueryStats, error) {
	return resultsOf(eng.Search(context.Background(), Query{Hist: q, K: k, Where: indexWhere(pred)}))
}

// rangeIDs is the membership range query: the ids within eps, ascending.
// A degraded answer's ids accompany its error.
func rangeIDs(ctx context.Context, eng *Engine, q Histogram, eps float64) ([]int, error) {
	ans, err := eng.Search(ctx, Query{Hist: q, Range: true, Eps: eps, IDsOnly: true})
	if ans == nil {
		return nil, err
	}
	ids := make([]int, len(ans.Results))
	for i, r := range ans.Results {
		ids[i] = r.Index
	}
	return ids, err
}

// concurrently runs call(i) for every i in [0, n), each on a goroutine
// of its own, and waits for all of them: a batch of independent queries.
func concurrently(n int, call func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			call(i)
		}(i)
	}
	wg.Wait()
}

// TestSearchBreakerOpenHonoursPredicate forces a gate's breaker open and
// checks the lower-bound-only path serves the query it was given: a
// k-NN query with a predicate gets a degraded answer whose every Anytime
// item satisfies the predicate and brackets its exact EMD, while range
// and membership queries, which have no solve-free certified form, are
// shed with ErrOverloaded.
func TestSearchBreakerOpenHonoursPredicate(t *testing.T) {
	var panics atomic.Bool
	eng := chaosEngine(t, 60, 4, 1, &panics)
	gate := NewGate(eng, GateOptions{breakerCooldown: time.Hour})
	ctx := context.Background()
	q := Histogram{0.1, 0.2, 0.3, 0.4}
	panics.Store(true)
	for i := 0; i < gateBreakerThreshold; i++ {
		if _, err := gate.KNN(ctx, q, 5); !errors.Is(err, ErrInternal) {
			t.Fatalf("fault %d: err = %v, want ErrInternal", i, err)
		}
	}
	if st := gate.Metrics().BreakerState; st != "open" {
		t.Fatalf("breaker %s after the faults, want open", st)
	}

	odd := func(i int, label string) bool { return i%2 == 1 && label == fmt.Sprintf("item-%d", i) }
	const k = 6
	ans, err := gate.Search(ctx, Query{Hist: q, K: k, Where: odd})
	if err != nil {
		t.Fatalf("breaker-open k-NN: %v", err)
	}
	if !ans.Degraded || len(ans.Anytime) != k || len(ans.Results) != 0 {
		t.Fatalf("breaker-open answer: degraded=%v, %d anytime items, %d results; want degraded, %d items, none confirmed",
			ans.Degraded, len(ans.Anytime), len(ans.Results), k)
	}
	for _, it := range ans.Anytime {
		if !odd(it.Index, eng.Label(it.Index)) {
			t.Fatalf("item %d fails the predicate", it.Index)
		}
		if it.Refined {
			t.Fatalf("item %d claims an exact refinement with the solver quarantined", it.Index)
		}
		// The hook panics on refinement, not on Distance: the reference
		// solve is a fresh one. It may land a few ulps off a greedy
		// upper bound that found the optimal flow.
		if exact := exactDist(t, eng, q, it.Index); exact < it.Lower-1e-9 || exact > it.Upper+1e-9 {
			t.Fatalf("item %d: exact %v outside [%v, %v]", it.Index, exact, it.Lower, it.Upper)
		}
	}
	for name, rq := range map[string]Query{
		"range":       {Hist: q, Range: true, Eps: 0.5},
		"ids-only":    {Hist: q, Range: true, Eps: 0.5, IDsOnly: true},
		"range-where": {Hist: q, Range: true, Eps: 0.5, Where: odd},
	} {
		if _, err := gate.Search(ctx, rq); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("%s with the breaker open: err = %v, want ErrOverloaded", name, err)
		}
	}
}

// TestSearchRangeAnswerShape pins what a range answer carries in the
// fields it shares with k-NN: Degraded equals Stats.Cancelled, Unpulled
// is SnapshotLen − Pulled, and there is never an Anytime view.
func TestSearchRangeAnswerShape(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 150)
	q := queries[0]
	want, _, err := eng.Range(q, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{-1, 0, 100 * time.Microsecond, time.Millisecond} {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if d >= 0 {
			ctx, cancel = context.WithTimeout(ctx, d)
		}
		ans, err := eng.Search(ctx, Query{Hist: q, Range: true, Eps: 0.05})
		cancel()
		if ans == nil {
			t.Fatalf("timeout %v: no answer (err %v)", d, err)
		}
		st := ans.Stats
		if ans.Degraded != st.Cancelled || (err != nil) != ans.Degraded || ans.Anytime != nil {
			t.Fatalf("timeout %v: degraded=%v cancelled=%v err=%v anytime=%d", d, ans.Degraded, st.Cancelled, err, len(ans.Anytime))
		}
		if ans.Degraded && ans.Unpulled != st.SnapshotLen-st.Pulled || !ans.Degraded && ans.Unpulled != 0 {
			t.Fatalf("timeout %v: Unpulled %d, snapshot %d, pulled %d", d, ans.Unpulled, st.SnapshotLen, st.Pulled)
		}
		if !ans.Degraded {
			sameResults(t, fmt.Sprint(d), "Search", ans.Results, want)
		}
	}
}

// TestSearchRangeWhere: a predicate restricts a range query exactly as
// it does a k-NN query — the answer is the brute-force range answer,
// filtered — and an infinite radius selects every live item and no
// deleted one.
func TestSearchRangeWhere(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16, Workers: 4}, 120)
	if err := eng.Delete(7); err != nil {
		t.Fatal(err)
	}
	pred := func(i int) bool { return i%3 != 0 }
	for qi, q := range queries[:3] {
		all := bruteForce(t, eng, q, nil)
		eps := all[20].Dist
		ans, err := eng.Search(context.Background(), Query{Hist: q, Range: true, Eps: eps, Where: indexWhere(pred)})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("q%d", qi), "Range+Where", ans.Results, within(bruteForce(t, eng, q, pred), eps))
		ids, err := rangeIDs(context.Background(), eng, q, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != eng.Alive() {
			t.Fatalf("q%d: infinite radius selects %d ids of %d live items", qi, len(ids), eng.Alive())
		}
	}
}

// TestRangeIDsMatchesRange: the membership (ids-only) Search is the
// range query over the engine's own ranking, whatever plan produced it —
// so under every plan kind, inline and pooled, its ids are the sorted
// ids of Range and of a brute-force scan over emd.Dist, and each
// returned Dist is an upper bound of the exact distance within eps.
func TestRangeIDsMatchesRange(t *testing.T) {
	const n = 120
	plans := []struct {
		name string
		opts Options
	}{
		{"single-level", Options{ReducedDims: 8, SampleSize: 16}},
		{"hierarchy", Options{Hierarchy: []int{16, 4}, SampleSize: 16}},
		{"vptree", Options{ReducedDims: 8, SampleSize: 16, IndexKind: IndexVPTree}},
		{"no-reduction", Options{}},
	}
	for _, plan := range plans {
		for _, workers := range []int{1, 4} {
			opts := plan.opts
			opts.Workers = workers
			eng, queries := buildEngine(t, opts, n)
			for qi, q := range queries[:3] {
				all := bruteForce(t, eng, q, nil)
				// The last radius is selective: the query's 10th-NN distance.
				for _, eps := range []float64{0.02, 0.05, 0.1, all[9].Dist} {
					tag := fmt.Sprintf("%s/workers=%d/q%d/eps=%g", plan.name, workers, qi, eps)
					evalsBefore := eng.Metrics().Stages["Red-EMD"].Evaluations
					ans, err := eng.Search(context.Background(), Query{Hist: q, Range: true, Eps: eps, IDsOnly: true})
					if err != nil {
						t.Fatal(err)
					}
					ids := make([]int, len(ans.Results))
					for i, r := range ans.Results {
						ids[i] = r.Index
						if exact := exactDist(t, eng, q, r.Index); r.Dist > eps || r.Dist < exact-1e-9 {
							t.Fatalf("%s: id %d carries %v, exact %v, eps %v", tag, r.Index, r.Dist, exact, eps)
						}
					}
					evals := eng.Metrics().Stages["Red-EMD"].Evaluations - evalsBefore
					want, _, err := eng.Range(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					if len(ids) != len(want) {
						t.Fatalf("%s: %d ids, Range finds %d", tag, len(ids), len(want))
					}
					wantSet := map[int]bool{}
					for _, r := range want {
						wantSet[r.Index] = true
					}
					for _, id := range ids {
						if !wantSet[id] {
							t.Fatalf("%s: spurious id %d", tag, id)
						}
					}
					brute := within(all, eps)
					bruteIDs := make([]int, len(brute))
					for i, r := range brute {
						bruteIDs[i] = r.Index
					}
					sort.Ints(bruteIDs)
					if !sort.IntsAreSorted(ids) || !slices.Equal(ids, bruteIDs) {
						t.Fatalf("%s: ids %v, brute force finds %v", tag, ids, bruteIDs)
					}
					// The filter chain runs for RangeIDs too, and prunes: a
					// selective radius reaches the Red-EMD stage with fewer
					// than n items, and the work is counted.
					if plan.name == "single-level" && eps == all[9].Dist && (evals <= 0 || evals >= n) {
						t.Fatalf("%s: %d Red-EMD evaluations for one RangeIDs call over %d items", tag, evals, n)
					}
				}
			}
		}
	}

	// A query that fails for want of a snapshot is counted as an error,
	// as it is for KNNCtx.
	empty, err := NewEngine(LinearCost(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rangeIDs(context.Background(), empty, Histogram{0.25, 0.25, 0.25, 0.25}, 1); err == nil {
		t.Fatal("an ids-only query on an empty engine succeeded")
	}
	if got := empty.Metrics().QueryErrors; got != 1 {
		t.Fatalf("QueryErrors = %d after an ids-only query failed to get a snapshot, want 1", got)
	}
}

func TestRangeIDsScanMode(t *testing.T) {
	eng, queries := buildEngine(t, Options{}, 40)
	ids, err := rangeIDs(context.Background(), eng, queries[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.Range(queries[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(want) {
		t.Fatalf("scan mode: %d ids, Range finds %d", len(ids), len(want))
	}
}
