package emdsearch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"emdsearch/internal/data"
)

// The threshold-aware chain's identity suite. The query's live pruning
// threshold reaches every chained Red-EMD filter solve, which may then
// return a certified bound above it instead of the filter distance. The
// claim (DESIGN.md, "Threshold-aware chain") is that this changes work
// only: ids, distance bits, Pulled and Refinements equal those of the
// threshold-oblivious pipeline (Options.unboundedRefine), which is the
// oracle throughout, and the answers those of a brute-force scan.

// buildThresholdEngine builds an engine over the suite's d=64 corpus
// (seeded, so every call sees the same vectors and queries) with two
// soft-deleted items.
func buildThresholdEngine(t *testing.T, opts Options, n int) (*Engine, []Histogram) {
	t.Helper()
	ds, err := data.MusicSpectra(n+4, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	queries = queries[:3]
	eng, err := NewEngine(ds.Cost, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{5, 31} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return eng, queries
}

// sameWork asserts the counters the lemma pins. They are deterministic
// on the sequential path and, for range queries, on the parallel one
// too (every candidate within eps is dispatched and refined).
func sameWork(t *testing.T, tag string, got, want *QueryStats) {
	t.Helper()
	if got.Pulled != want.Pulled || got.Refinements != want.Refinements {
		t.Fatalf("%s: pulled %d refined %d, threshold-oblivious pipeline pulled %d refined %d",
			tag, got.Pulled, got.Refinements, want.Pulled, want.Refinements)
	}
}

func filterAborts(stats *QueryStats) int {
	total := 0
	for _, st := range stats.Stages {
		total += st.Aborted
	}
	return total
}

func TestThresholdAwareChainIdentity(t *testing.T) {
	const n, k = 60, 5
	pred := func(i int) bool { return i%4 != 1 }
	configs := []struct {
		name string
		opts Options
	}{
		{"single-level", Options{ReducedDims: 12, Method: Adjacent}},
		{"hierarchy-32-8", Options{Hierarchy: []int{32, 8}, Method: Adjacent}},
	}
	// answer is one query's results and counters per API.
	type answer struct {
		knn, where, rng                []Result
		knnStats, whereStats, rngStats *QueryStats
	}
	ask := func(eng *Engine, q Histogram, eps float64) (a answer) {
		var err error
		if a.knn, a.knnStats, err = eng.KNN(q, k); err != nil {
			t.Fatal(err)
		}
		if a.where, a.whereStats, err = knnWhere(eng, q, k, pred); err != nil {
			t.Fatal(err)
		}
		if eps < 0 {
			eps = a.knn[len(a.knn)-1].Dist
		}
		if a.rng, a.rngStats, err = eng.Range(q, eps); err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, cfg := range configs {
		oracleOpts := cfg.opts
		oracleOpts.unboundedRefine = true
		oracle, queries := buildThresholdEngine(t, oracleOpts, n)
		wants, brutes := make([]answer, len(queries)), make([]answer, len(queries))
		for qi, q := range queries {
			wants[qi] = ask(oracle, q, -1)
			all := bruteForce(t, oracle, q, nil)
			brutes[qi] = answer{knn: all[:k], where: bruteForce(t, oracle, q, pred)[:k], rng: within(all, all[k-1].Dist)}
			for _, st := range []*QueryStats{wants[qi].knnStats, wants[qi].whereStats, wants[qi].rngStats} {
				if a := filterAborts(st); a != 0 {
					t.Fatalf("%s/q%d: the oracle answered %d filter evaluations with a bound", cfg.name, qi, a)
				}
			}
		}
		for _, workers := range []int{1, 4} {
			opts := cfg.opts
			opts.Workers = workers
			eng, _ := buildThresholdEngine(t, opts, n)
			name := fmt.Sprintf("%s/workers=%d", cfg.name, workers)
			sequential := workers == 1
			aborts := 0
			for qi, q := range queries {
				tag := fmt.Sprintf("%s/q%d", name, qi)
				want := wants[qi]
				got := ask(eng, q, want.knn[len(want.knn)-1].Dist)
				for _, ref := range []answer{want, brutes[qi]} {
					sameResults(t, tag, "KNN", got.knn, ref.knn)
					sameResults(t, tag, "KNNWhere", got.where, ref.where)
					sameResults(t, tag, "Range", got.rng, ref.rng)
				}
				sameWork(t, tag+"/Range", got.rngStats, want.rngStats)
				if sequential {
					sameWork(t, tag+"/KNN", got.knnStats, want.knnStats)
					sameWork(t, tag+"/KNNWhere", got.whereStats, want.whereStats)
				}
				aborts += filterAborts(got.knnStats) + filterAborts(got.rngStats)

				ans, err := eng.KNNCtx(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				if ans.Degraded {
					t.Fatalf("%s: KNNCtx degraded without a deadline", tag)
				}
				sameResults(t, tag, "KNNCtx", ans.Results, want.knn)
			}
			if aborts == 0 {
				t.Fatalf("%s: no filter evaluation was answered by a bound; the suite proves nothing", name)
			}

			batch, errs := make([]*KNNAnswer, len(queries)), make([]error, len(queries))
			concurrently(len(queries), func(i int) { batch[i], errs[i] = eng.KNNCtx(context.Background(), queries[i], k) })
			for bi, b := range batch {
				if errs[bi] != nil {
					t.Fatalf("%s: batch query %d: %v", name, bi, errs[bi])
				}
				sameResults(t, name, "BatchKNN", b.Results, wants[bi].knn)
				if sequential {
					sameWork(t, fmt.Sprintf("%s/BatchKNN/q%d", name, bi), b.Stats, wants[bi].knnStats)
				}
			}
		}
	}
}

// TestShardSetThresholdAwareIdentity is the scatter-gather form: two
// shards prune — and bound their filter solves — with the shared
// cross-shard threshold, which other shards tighten concurrently. The
// merged answers must be those of one threshold-oblivious engine over
// the union.
func TestShardSetThresholdAwareIdentity(t *testing.T) {
	ctx := context.Background()
	ds, err := data.MusicSpectra(85, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Hierarchy: []int{32, 8}, Method: Adjacent, Seed: 1}
	set, err := NewShardSet(ds.Cost, opts, ShardSetOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracleOpts := opts
	oracleOpts.unboundedRefine = true
	oracle, err := NewEngine(ds.Cost, oracleOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		if _, err := set.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Build(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Build(); err != nil {
		t.Fatal(err)
	}
	aborts := 0
	for qi, q := range queries[:3] {
		for _, k := range []int{1, 5}[qi%2:] {
			want, _, err := oracle.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := set.KNN(ctx, q, k)
			if err != nil {
				t.Fatalf("q%d k=%d: %v", qi, k, err)
			}
			if ans.Degraded {
				t.Fatalf("q%d k=%d: healthy query degraded: %+v", qi, k, ans.Coverage)
			}
			sameResultBytes(t, "knn", ans.Results, want)
			aborts += filterAborts(ans.Stats)

			eps := want[len(want)-1].Dist
			wantRange, _, err := oracle.Range(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			rng, err := set.Range(ctx, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameResultBytes(t, "range", rng.Results, wantRange)
		}
	}
	if aborts == 0 {
		t.Fatal("no shard answered a filter evaluation with a bound; the test proves nothing")
	}
	batch := queries[3:]
	answers, errs := make([]*ShardAnswer, len(batch)), make([]error, len(batch))
	concurrently(len(batch), func(i int) { answers[i], errs[i] = set.KNN(ctx, batch[i], 4) })
	for i, ans := range answers {
		if errs[i] != nil {
			t.Fatalf("batch entry %d: %v", i, errs[i])
		}
		want, _, err := oracle.KNN(batch[i], 4)
		if err != nil {
			t.Fatal(err)
		}
		sameResultBytes(t, "batch", ans.Results, want)
	}
}

// TestKNNCtxAnytimeThresholdAware expires a query's context at a fixed
// point of its refinement sequence — after the k-th distance is known,
// so filter solves are already being answered by bounds — and checks
// the degraded answer's certificate: every [Lower, Upper] interval,
// whatever mixture of filter distances, aborted filter bounds and
// interrupted solver bounds its Lower came from, contains the exact EMD.
// The engine learns of the cancel through a watcher goroutine, so a
// query may complete before it does; KNNAnswer's contract then asks for
// the exact answer, undegraded, and the test holds it to that.
func TestKNNCtxAnytimeThresholdAware(t *testing.T) {
	const k = 5
	// The hook runs on the refinement workers: it cancels the running
	// query's context at its (k+1)-th refinement.
	var refined atomic.Int64
	var cancelQuery atomic.Value
	for _, workers := range []int{1, 4} {
		eng, queries := buildThresholdEngine(t, Options{Hierarchy: []int{32, 8}, Method: Adjacent, Workers: workers,
			refineHook: func(int) {
				if refined.Add(1) == k+1 {
					cancelQuery.Load().(context.CancelFunc)()
					// The engine learns of it through a watcher goroutine;
					// let that run.
					time.Sleep(2 * time.Millisecond)
				}
			}}, 100)
		degraded, aborts := 0, 0
		for qi, q := range queries {
			// A query that refined past the k-th but completed before the
			// watcher saw the cancel is run again, a bounded number of
			// times, until one attempt degrades.
			for attempt := 0; attempt < 50; attempt++ {
				ctx, cancel := context.WithCancel(context.Background())
				refined.Store(0)
				cancelQuery.Store(cancel)
				ans, err := eng.KNNCtx(ctx, q, k)
				cancel()
				pastK := refined.Load() > k
				if err == nil {
					if ans.Degraded {
						t.Fatalf("workers %d q%d: a completed query returned a degraded answer", workers, qi)
					}
					want, _, err := eng.KNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					sameResultBytes(t, fmt.Sprintf("workers %d q%d completed", workers, qi), ans.Results, want)
					if !pastK {
						break // the filters left nothing to refine past the k-th
					}
					continue
				}
				if !errors.Is(err, context.Canceled) || ans == nil || !ans.Degraded {
					t.Fatalf("workers %d q%d: err %v, answer %+v; want a degraded answer with context.Canceled", workers, qi, err, ans)
				}
				degraded++
				checkAnytimeSoundness(t, eng, q, ans)
				aborts += filterAborts(ans.Stats)
				break
			}
		}
		if degraded == 0 {
			t.Fatalf("workers %d: no query was cancelled mid-refinement", workers)
		}
		// (On the pool the k-th distance may only land after the feeder
		// has stopped; the sequential run must see bounded filter solves.)
		if workers == 1 && aborts == 0 {
			t.Fatal("no filter evaluation was answered by a bound before a cancel")
		}
	}
}
