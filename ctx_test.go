package emdsearch

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// cancelledCtx returns a context that is already expired.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestKNNCtxBackgroundIdentity checks the no-deadline contract: with
// context.Background() the ctx variant takes the same code path as KNN
// and returns bit-identical results and counters.
func TestKNNCtxBackgroundIdentity(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 150)
	for _, q := range queries {
		want, wantStats, err := eng.KNN(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := eng.KNNCtx(context.Background(), q, 10)
		if err != nil {
			t.Fatalf("KNNCtx(Background): %v", err)
		}
		if ans.Degraded || ans.Anytime != nil || ans.Unpulled != 0 {
			t.Fatalf("Background query degraded: %+v", ans)
		}
		if len(ans.Results) != len(want) {
			t.Fatalf("KNNCtx returned %d results, KNN %d", len(ans.Results), len(want))
		}
		for i := range want {
			if ans.Results[i].Index != want[i].Index || ans.Results[i].Dist != want[i].Dist {
				t.Fatalf("result %d: ctx %+v != plain %+v", i, ans.Results[i], want[i])
			}
		}
		if ans.Stats.Pulled != wantStats.Pulled || ans.Stats.Refinements != wantStats.Refinements {
			t.Fatalf("stats diverge: ctx pulled=%d refines=%d, plain pulled=%d refines=%d",
				ans.Stats.Pulled, ans.Stats.Refinements, wantStats.Pulled, wantStats.Refinements)
		}
		if ans.Stats.Cancelled {
			t.Fatal("Background query marked Cancelled")
		}
	}
}

// TestKNNCtxAlreadyCancelled checks the fast path: a context that is
// expired on entry returns immediately with an empty but sound degraded
// answer, ctx's error, and the cancellation metrics bumped.
func TestKNNCtxAlreadyCancelled(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 80)
	before := eng.Metrics()
	ans, err := eng.KNNCtx(cancelledCtx(), queries[0], 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ans == nil {
		t.Fatal("cancelled query returned a nil answer; the degraded answer must accompany the error")
	}
	if !ans.Degraded || !ans.Stats.Cancelled {
		t.Fatalf("Degraded=%v Stats.Cancelled=%v, want both true", ans.Degraded, ans.Stats.Cancelled)
	}
	if len(ans.Results) != 0 || len(ans.Anytime) != 0 {
		t.Fatalf("entry-cancelled query produced results: %+v", ans)
	}
	if ans.Unpulled != eng.Len() {
		t.Fatalf("Unpulled = %d, want the whole database %d", ans.Unpulled, eng.Len())
	}
	after := eng.Metrics()
	if after.QueriesCancelled != before.QueriesCancelled+1 {
		t.Fatalf("QueriesCancelled %d -> %d, want +1", before.QueriesCancelled, after.QueriesCancelled)
	}
	if after.QueriesDeadlineDegraded != before.QueriesDeadlineDegraded+1 {
		t.Fatalf("QueriesDeadlineDegraded %d -> %d, want +1",
			before.QueriesDeadlineDegraded, after.QueriesDeadlineDegraded)
	}
}

// checkAnytimeSoundness verifies the certificate of a degraded k-NN
// answer against exhaustively computed exact distances: every interval
// contains its item's exact EMD, every confirmed result is exact, and
// the bookkeeping adds up.
func checkAnytimeSoundness(t *testing.T, eng *Engine, q Histogram, ans *KNNAnswer) {
	t.Helper()
	const tol = 1e-9
	for _, it := range ans.Anytime {
		if it.Lower > it.Upper+tol {
			t.Fatalf("item %d: inverted interval [%v, %v]", it.Index, it.Lower, it.Upper)
		}
		exact := exactDist(t, eng, q, it.Index)
		if exact < it.Lower-tol || exact > it.Upper+tol {
			t.Fatalf("item %d: exact %v outside certified [%v, %v]", it.Index, exact, it.Lower, it.Upper)
		}
		if it.Refined && it.Lower != it.Upper {
			t.Fatalf("item %d: Refined but interval [%v, %v] not tight", it.Index, it.Lower, it.Upper)
		}
	}
	for _, r := range ans.Results {
		exact := exactDist(t, eng, q, r.Index)
		if math.Abs(r.Dist-exact) > tol {
			t.Fatalf("confirmed result %d: dist %v != exact %v", r.Index, r.Dist, exact)
		}
	}
	if ans.Unpulled != eng.Len()-ans.Stats.Pulled {
		t.Fatalf("Unpulled = %d, want len %d - pulled %d", ans.Unpulled, eng.Len(), ans.Stats.Pulled)
	}
}

// TestKNNCtxAnytimeSoundness runs queries under a spread of tight
// deadlines. Each outcome must be sound: degraded answers carry
// certified intervals containing the exact distances; completed answers
// equal the undeadlined result exactly.
func TestKNNCtxAnytimeSoundness(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 200)
	q := queries[0]
	want, _, err := eng.KNN(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	timeouts := []time.Duration{
		0, // expired on entry: deterministic degradation
		50 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	}
	for _, d := range timeouts {
		for rep := 0; rep < 3; rep++ {
			ctx, cancel := context.WithTimeout(context.Background(), d)
			ans, err := eng.KNNCtx(ctx, q, 10)
			cancel()
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Fatalf("timeout %v: unexpected error %v", d, err)
				}
				if ans == nil || !ans.Degraded {
					t.Fatalf("timeout %v: error without a degraded answer", d)
				}
				degraded++
				checkAnytimeSoundness(t, eng, q, ans)
				continue
			}
			if ans.Degraded {
				t.Fatalf("timeout %v: Degraded answer without an error", d)
			}
			for i := range want {
				if ans.Results[i].Index != want[i].Index || ans.Results[i].Dist != want[i].Dist {
					t.Fatalf("timeout %v: completed result %d diverges from exact answer", d, i)
				}
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no query degraded under any deadline (the 0-timeout trial must)")
	}
	t.Logf("%d/%d queries degraded", degraded, 3*len(timeouts))
}

// TestKNNCtxParallelAnytimeSoundness is the Workers>0 form of the
// soundness test: cancellation must drain the refinement pool and the
// pending candidates collected from in-flight workers must still carry
// sound intervals.
func TestKNNCtxParallelAnytimeSoundness(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16, Workers: 4}, 200)
	q := queries[1]
	degraded := 0
	for _, d := range []time.Duration{0, 100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		for rep := 0; rep < 3; rep++ {
			ctx, cancel := context.WithTimeout(context.Background(), d)
			ans, err := eng.KNNCtx(ctx, q, 10)
			cancel()
			if err != nil {
				if ans == nil || !ans.Degraded {
					t.Fatalf("timeout %v: error without a degraded answer", d)
				}
				degraded++
				checkAnytimeSoundness(t, eng, q, ans)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no parallel query degraded under any deadline")
	}
}

// TestKNNCtxMidQueryCancelReturnsPromptly cancels a running query from
// another goroutine and requires the call to return quickly — the
// cancel flag is polled per candidate and per simplex pivot, so even
// mid-solve the query must unwind far faster than it would take to
// finish. The answer, whether completed or degraded, must be sound.
func TestKNNCtxMidQueryCancelReturnsPromptly(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 250)
	q := queries[2]
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		ans *KNNAnswer
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		ans, err := eng.KNNCtx(ctx, q, 10)
		done <- outcome{ans, err}
	}()
	time.Sleep(200 * time.Microsecond)
	cancel()
	t0 := time.Now()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("query did not return after cancellation")
	}
	if lat := time.Since(t0); lat > time.Second {
		t.Fatalf("query took %v to honor cancellation", lat)
	}
	if out.err != nil {
		if out.ans == nil || !out.ans.Degraded {
			t.Fatal("cancelled query returned error without degraded answer")
		}
		checkAnytimeSoundness(t, eng, q, out.ans)
	}
}

// TestRangeCtx covers the range-query contract: Background identity,
// immediate return on an expired context, and individually certified
// partial results on mid-query expiry — for plain and membership range
// queries alike.
func TestRangeCtx(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 150)
	q := queries[0]
	dd, err := eng.DistanceDistribution(context.Background(), q, 32)
	if err != nil {
		t.Fatal(err)
	}
	eps := dd.Quantile(0.3)

	want, _, err := eng.Range(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	for _, idsOnly := range []bool{false, true} {
		rq := Query{Hist: q, Range: true, Eps: eps, IDsOnly: idsOnly}
		ans, err := eng.Search(context.Background(), rq)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Degraded || ans.Stats.Cancelled {
			t.Fatal("Background range marked Cancelled")
		}
		if len(ans.Results) != len(want) {
			t.Fatalf("ids-only=%v: Search(Background) returned %d results, Range %d", idsOnly, len(ans.Results), len(want))
		}
		if !idsOnly {
			sameResults(t, "range", "Search", ans.Results, want)
		}

		ans, err = eng.Search(cancelledCtx(), rq)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("expired range: err = %v, want context.Canceled", err)
		}
		if ans == nil || !ans.Degraded || !ans.Stats.Cancelled || len(ans.Results) != 0 {
			t.Fatalf("expired range answer %+v, want an empty degraded one with Cancelled stats", ans)
		}

		for _, d := range []time.Duration{100 * time.Microsecond, time.Millisecond} {
			ctx, cancel := context.WithTimeout(context.Background(), d)
			ans, err := eng.Search(ctx, rq)
			cancel()
			if err == nil {
				continue // finished in time; identity covered above
			}
			if ans == nil || !ans.Stats.Cancelled {
				t.Fatalf("timeout %v: error without Cancelled stats", d)
			}
			for _, r := range ans.Results {
				exact := exactDist(t, eng, q, r.Index)
				if r.Dist > eps+tol || exact > eps+tol {
					t.Fatalf("partial result %d at %v (exact %v) exceeds eps %v", r.Index, r.Dist, exact, eps)
				}
				if !idsOnly && math.Abs(r.Dist-exact) > tol {
					t.Fatalf("partial result %d: dist %v != exact %v", r.Index, r.Dist, exact)
				}
			}
		}
	}
}

// TestRankCtx checks that a cancelled incremental ranking stops
// yielding, that everything yielded before the cancellation is exact
// and in true EMD order, and that its pulls match a Background stream's.
func TestRankCtx(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 100)
	q := queries[0]

	plain, err := eng.Rank(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stream, err := eng.Rank(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for pull := 0; pull < 5; pull++ {
		wi, wd, wok := plain.Next()
		gi, gd, gok := stream.Next()
		if !wok || !gok {
			t.Fatalf("pull %d: exhausted early (plain=%v ctx=%v)", pull, wok, gok)
		}
		if gi != wi || gd != wd {
			t.Fatalf("pull %d: ctx (%d, %v) != plain (%d, %v)", pull, gi, gd, wi, wd)
		}
		if gd < prev {
			t.Fatalf("pull %d: out of order (%v after %v)", pull, gd, prev)
		}
		prev = gd
		if exact := exactDist(t, eng, q, gi); math.Abs(gd-exact) > 1e-9 {
			t.Fatalf("pull %d: yielded %v != exact %v", pull, gd, exact)
		}
	}
	cancel()
	if _, _, ok := stream.Next(); ok {
		t.Fatal("Next yielded after cancellation")
	}
	if _, _, ok := stream.Next(); ok {
		t.Fatal("Next yielded on repeat call after cancellation")
	}
	if _, _, ok := plain.Next(); !ok {
		t.Fatal("the Background stream stopped with the other one")
	}
}

// TestAuxiliaryCtxVariants checks every context-first auxiliary method
// twice: under Background it answers (and agrees with an independent
// computation where there is one), and under an expired context it
// returns the context error.
func TestAuxiliaryCtxVariants(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 100)
	q := queries[0]
	bg := context.Background()
	dead := cancelledCtx()

	// ApproxKNN: every interval brackets the exact distance.
	approx, _, err := eng.ApproxKNN(bg, q, 5)
	if err != nil || len(approx) != 5 {
		t.Fatalf("ApproxKNN(Background): %d results, err %v", len(approx), err)
	}
	for _, r := range approx {
		if exact := exactDist(t, eng, q, r.Index); exact < r.Lower-1e-9 || exact > r.Upper+1e-9 {
			t.Fatalf("ApproxKNN item %d: exact %v outside [%v, %v]", r.Index, exact, r.Lower, r.Upper)
		}
	}
	if _, _, err := eng.ApproxKNN(dead, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApproxKNN(expired): err = %v", err)
	}

	// EpsilonForCount: the radius returns at least the count.
	eps, err := eng.EpsilonForCount(bg, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := eng.Range(q, eps); err != nil || len(res) < 10 {
		t.Fatalf("Range at EpsilonForCount(10) = %v: %d results, err %v", eps, len(res), err)
	}
	if _, err := eng.EpsilonForCount(dead, q, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("EpsilonForCount(expired): err = %v", err)
	}

	// DistanceDistribution
	dd, err := eng.DistanceDistribution(bg, q, 20)
	if err != nil || dd.Count() != 20 {
		t.Fatalf("DistanceDistribution(Background): err %v", err)
	}
	if _, err := eng.DistanceDistribution(dead, q, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("DistanceDistribution(expired): err = %v", err)
	}

	// Distance: both solves — plain under Background, interruptible
	// under a cancellable context — give the same bits.
	d, err := eng.Distance(bg, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(bg)
	defer cancel()
	if got, err := eng.Distance(live, q, 3); err != nil || math.Float64bits(got) != math.Float64bits(d) {
		t.Fatalf("Distance(cancellable) = %v, %v; want %v", got, err, d)
	}
	if _, err := eng.Distance(dead, q, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("Distance(expired): err = %v", err)
	}

	// Explain decomposes the same distance.
	exp, err := eng.Explain(bg, q, 3, 4)
	if err != nil || math.Abs(exp.Distance-d) > 1e-9 {
		t.Fatalf("Explain(Background) = %+v, %v; want distance %v", exp, err, d)
	}
	if _, err := eng.Explain(dead, q, 3, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("Explain(expired): err = %v", err)
	}

	// Search with a predicate, by index and by label.
	pred := func(i int) bool { return i%2 == 0 }
	want := bruteForce(t, eng, q, pred)[:5]
	gotW, err := eng.Search(bg, Query{Hist: q, K: 5, Where: indexWhere(pred)})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "where", "Search", gotW.Results, want)
	if _, err := eng.Search(dead, Query{Hist: q, K: 5, Where: indexWhere(pred)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search with Where (expired): err = %v", err)
	}
	label := eng.Label(0)
	gotL, err := eng.Search(bg, Query{Hist: q, K: 3, Where: labelIs(label)})
	if err != nil {
		t.Fatal(err)
	}
	wantL := bruteForce(t, eng, q, func(i int) bool { return eng.Label(i) == label })
	sameResults(t, "label", "Search", gotL.Results, wantL[:min(3, len(wantL))])
	if _, err := eng.Search(dead, Query{Hist: q, K: 3, Where: labelIs(label)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search with a label (expired): err = %v", err)
	}

	// The membership query.
	if _, err := rangeIDs(dead, eng, q, eps); !errors.Is(err, context.Canceled) {
		t.Fatalf("ids-only Search (expired): err = %v", err)
	}
}
