package emdsearch

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// TestKNNWithLabelConcurrentAdd is the regression test for the label
// race: KNNWithLabel used to call Engine.Label per candidate — an
// RLock in the hot loop reading the *live* store, so concurrent Adds
// could shift labels relative to the snapshot being queried. Labels
// are now captured into the snapshot; this test hammers the query from
// several goroutines while a writer keeps adding items, and is run
// under -race in CI.
func TestKNNWithLabelConcurrentAdd(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 100)
	label := eng.Label(0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := queries[w%len(queries)]
			for iter := 0; iter < 60; iter++ {
				res, _, err := resultsOf(eng.Search(context.Background(), Query{Hist: q, K: 5, Where: labelIs(label)}))
				if err != nil {
					errs <- err
					return
				}
				for _, r := range res {
					// Labels are immutable once assigned, so the live
					// read is safe for verification here.
					if got := eng.Label(r.Index); got != label {
						errs <- fmt.Errorf("k-NN within label %q returned item %d labelled %q", label, r.Index, got)
						return
					}
				}
			}
		}(w)
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		// Cap the ingest so the database (and with it every snapshot
		// rebuild the readers pay for) stays small; yield between adds
		// so the readers actually interleave with the mutations.
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Add("ingest", queries[i%len(queries)]); err != nil {
				errs <- err
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	<-writerDone
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestKNNWhereBoundedMatchesUnbounded is the regression test for the
// KNNWhere refinement routing bug: the predicate path used to refine
// through a cold unbounded solver instead of the engine's bounded
// kernel. Both kernels are exact, so the bugfix is observable two ways:
// the answers agree across configurations, and the bounded engine's
// abort and solved-shape counters move on the KNNWhere path.
func TestKNNWhereBoundedMatchesUnbounded(t *testing.T) {
	const n = 120
	opts := Options{ReducedDims: 8, SampleSize: 16}
	engB, queries := buildEngine(t, opts, n)
	optsU := opts
	optsU.unboundedRefine = true
	engU, _ := buildEngine(t, optsU, n)
	optsP := opts
	optsP.Workers = 4
	engP, _ := buildEngine(t, optsP, n)

	pred := func(i int) bool { return i%3 != 0 }
	for _, q := range queries {
		want, _, err := knnWhere(engU, q, 7, pred)
		if err != nil {
			t.Fatal(err)
		}
		for name, eng := range map[string]*Engine{"bounded": engB, "parallel": engP} {
			got, _, err := knnWhere(eng, q, 7, pred)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, unbounded %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("%s result %d: %+v != unbounded %+v", name, i, got[i], want[i])
				}
				if !pred(got[i].Index) {
					t.Fatalf("%s returned predicate-failing item %d", name, got[i].Index)
				}
			}
		}
	}
	m := engB.Metrics()
	if m.Refinements == 0 {
		t.Fatal("KNNWhere did no refinements")
	}
	if m.RefinesAborted == 0 && m.RefineRows == 0 {
		t.Fatal("KNNWhere refinements show no bounded-kernel activity (cold unbounded solver regression)")
	}
}

// TestRangeIDsBoundedMatchesUnbounded is the same routing regression
// test for RangeIDs, across the sequential bounded, parallel bounded
// and unbounded configurations, checked against Range's result set.
func TestRangeIDsBoundedMatchesUnbounded(t *testing.T) {
	const n = 120
	opts := Options{ReducedDims: 8, SampleSize: 16}
	engB, queries := buildEngine(t, opts, n)
	optsU := opts
	optsU.unboundedRefine = true
	engU, _ := buildEngine(t, optsU, n)
	optsP := opts
	optsP.Workers = 4
	engP, _ := buildEngine(t, optsP, n)

	q := queries[0]
	for _, m := range []int{12, 36, 72} { // 10%, 30% and 60% of the items
		eps := knnRadius(t, engB, q, m)
		want, err := rangeIDs(context.Background(), engU, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check the oracle against Range itself.
		results, _, err := engB.Range(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		fromRange := make([]int, 0, len(results))
		for _, r := range results {
			fromRange = append(fromRange, r.Index)
		}
		sort.Ints(fromRange)
		if len(fromRange) != len(want) {
			t.Fatalf("eps %v: Range finds %d items, unbounded RangeIDs %d", eps, len(fromRange), len(want))
		}
		for name, eng := range map[string]*Engine{"bounded": engB, "parallel": engP} {
			got, err := rangeIDs(context.Background(), eng, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s eps %v: %d ids, unbounded %d", name, eps, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] || got[i] != fromRange[i] {
					t.Fatalf("%s eps %v id %d: %d, unbounded %d, Range %d",
						name, eps, i, got[i], want[i], fromRange[i])
				}
			}
		}
	}
	m := engB.Metrics()
	if m.RefinesAborted == 0 && m.RefineRows == 0 {
		t.Fatal("RangeIDs refinements show no bounded-kernel activity (cold unbounded solver regression)")
	}
}
