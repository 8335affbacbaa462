package emdsearch

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"emdsearch/internal/data"
)

// TestEngineParallelMatchesSequential verifies the central claim of the
// parallel refinement path: with Workers > 1 KNN and Range return
// exactly the sequential results — same items, same distances, same
// order — for a spread of k values and radii. Both engines run the
// default threshold-aware refinement kernel, so this also pins the
// equality with early abandon enabled on both sides (the
// bounded-vs-legacy comparison lives in refine_test.go).
func TestEngineParallelMatchesSequential(t *testing.T) {
	seq, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, 120)
	par, _ := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10, Workers: 4}, 120)
	for qi, q := range queries {
		for _, k := range []int{1, 5, 17} {
			want, wantStats, err := seq.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := par.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if wantStats.Workers != 1 {
				t.Fatalf("sequential path reports %d workers", wantStats.Workers)
			}
			if gotStats.Workers != 4 {
				t.Fatalf("parallel path reports %d workers, want 4", gotStats.Workers)
			}
			if len(got) != len(want) {
				t.Fatalf("query %d k=%d: got %d results, want %d", qi, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist {
					t.Fatalf("query %d k=%d result %d: got %+v, want %+v", qi, k, i, got[i], want[i])
				}
			}
		}
		// Range with a radius chosen to return a handful of items.
		ref, _, err := seq.KNN(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		eps := ref[len(ref)-1].Dist * 1.01
		want, _, err := seq.Range(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := par.Range(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d range: got %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d range result %d: got %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
	// Both engines must have exercised the bounded kernel — otherwise
	// the equality above silently stops covering early abandon.
	for name, eng := range map[string]*Engine{"sequential": seq, "parallel": par} {
		if m := eng.Metrics(); m.RefineRows == 0 {
			t.Errorf("%s engine never ran the bounded kernel over the workload", name)
		}
	}
}

// TestEngineSetWorkers flips the worker bound at runtime and checks it
// takes effect (and keeps results correct).
func TestEngineSetWorkers(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 6, SampleSize: 10}, 60)
	q := queries[0]
	want, stats, err := eng.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 1 {
		t.Fatalf("default workers = %d, want 1", stats.Workers)
	}
	eng.SetWorkers(3)
	got, stats, err := eng.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 3 {
		t.Fatalf("after SetWorkers(3): stats report %d workers", stats.Workers)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d changed after SetWorkers: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEngineConcurrentStress runs a mixed read workload — KNN, Range,
// concurrent KNN pairs, Rank, ApproxKNN, ids-only range — against an engine that another
// goroutine is simultaneously growing (Add), re-deriving (Build) and
// shrinking (Delete). It exists chiefly for `go test -race`: any
// unsynchronized access between the query snapshot and the mutators
// trips the race detector here. It also checks basic result sanity
// (ascending distances, no errors, no deleted items by the end).
func TestEngineConcurrentStress(t *testing.T) {
	ds, err := data.MusicSpectra(96, 32, 11)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(6)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds.Cost, Options{ReducedDims: 6, SampleSize: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const initial = 50
	for i := 0; i < initial; i++ {
		if _, err := eng.Add(ds.Items[i].Label, vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	checkAscending := func(results []Result) {
		for i := 1; i < len(results); i++ {
			if results[i].Dist < results[i-1].Dist {
				report(errAscending(results[i-1], results[i]))
				return
			}
		}
	}

	var wg sync.WaitGroup
	reader := func(body func(q Histogram)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body(queries[i%len(queries)])
			}
		}()
	}
	reader(func(q Histogram) {
		results, _, err := eng.KNN(q, 3)
		if err != nil {
			report(err)
			return
		}
		checkAscending(results)
	})
	reader(func(q Histogram) {
		results, _, err := eng.Range(q, 0.1)
		if err != nil {
			report(err)
			return
		}
		checkAscending(results)
	})
	reader(func(q Histogram) {
		batch, errs := batchKNN(eng, []Histogram{q, queries[0]}, 2)
		for i := range batch {
			if errs[i] != nil {
				report(errs[i])
				return
			}
			checkAscending(batch[i])
		}
	})
	reader(func(q Histogram) {
		r, err := eng.Rank(context.Background(), q)
		if err != nil {
			report(err)
			return
		}
		prev := math.Inf(-1)
		for i := 0; i < 4; i++ {
			_, d, ok := r.Next()
			if !ok {
				break
			}
			if d < prev {
				report(errAscending(Result{Dist: prev}, Result{Dist: d}))
				return
			}
			prev = d
		}
	})
	reader(func(q Histogram) {
		if _, _, err := eng.ApproxKNN(context.Background(), q, 3); err != nil {
			report(err)
			return
		}
		if _, err := rangeIDs(context.Background(), eng, q, 0.05); err != nil {
			report(err)
		}
	})

	// Writer: grow the index, periodically re-derive the reduction and
	// soft-delete some of the new arrivals.
	deletes := 0
	for i := initial; i < len(vecs); i++ {
		// Pace the writer so the readers interleave with many distinct
		// snapshot generations rather than racing one burst of Adds.
		time.Sleep(500 * time.Microsecond)
		id, err := eng.Add(ds.Items[i].Label, vecs[i])
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := eng.Delete(id); err != nil {
				t.Fatal(err)
			}
			deletes++
		}
		if i%16 == 0 {
			if err := eng.Build(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The engine must still answer correctly after the storm.
	results, _, err := eng.KNN(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if eng.Deleted(r.Index) {
			t.Errorf("deleted item %d in results", r.Index)
		}
	}
	if eng.Alive() != eng.Len()-deletes {
		t.Errorf("alive %d of %d after %d deletes", eng.Alive(), eng.Len(), deletes)
	}
}

type ascendingError struct{ a, b Result }

func errAscending(a, b Result) error { return ascendingError{a, b} }
func (e ascendingError) Error() string {
	return "results out of ascending order"
}
