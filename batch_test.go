package emdsearch

import (
	"context"
	"errors"
	"testing"

	"emdsearch/internal/data"
)

// A batch is any number of queries in flight on one engine at once: the
// query methods are safe for concurrent use, and each answers over the
// snapshot current when it started. These tests run batches as
// concurrent calls and hold every entry to its sequential answer.

// batchKNN runs KNN for every query concurrently.
func batchKNN(eng *Engine, queries []Histogram, k int) ([][]Result, []error) {
	results, errs := make([][]Result, len(queries)), make([]error, len(queries))
	concurrently(len(queries), func(i int) {
		results[i], _, errs[i] = eng.KNN(queries[i], k)
	})
	return results, errs
}

func TestBatchKNNMatchesSequential(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16, Workers: 4}, 150)
	batch, errs := batchKNN(eng, queries, 4)
	for qi := range queries {
		if errs[qi] != nil {
			t.Fatalf("query %d: %v", qi, errs[qi])
		}
		want, _, err := eng.KNN(queries[qi], 4)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "batch", "KNN", batch[qi], want)
	}
}

// TestBatchKNNSurfacesPerQueryErrors: a malformed query in a batch fails
// only itself, with ErrBadQuery; its siblings are answered.
func TestBatchKNNSurfacesPerQueryErrors(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 4, SampleSize: 8}, 30)
	bad := append([]Histogram{}, queries...)
	bad[1] = Histogram{0.5, 0.5} // wrong dimensionality
	batch, errs := batchKNN(eng, bad, 2)
	if !errors.Is(errs[1], ErrBadQuery) {
		t.Errorf("invalid query: err = %v, want ErrBadQuery", errs[1])
	}
	for i := range bad {
		if i != 1 && (errs[i] != nil || len(batch[i]) != 2) {
			t.Errorf("valid query %d: %d results, err %v", i, len(batch[i]), errs[i])
		}
	}
}

func TestBatchKNNWithIndexedCentroidBase(t *testing.T) {
	// Exercises the k-d tree base ranking under concurrency (run with
	// -race in CI): the tree and stage closures are shared read-only.
	ds, err := data.ColorImages(160, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(6)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds.Cost, Options{
		ReducedDims: 8,
		SampleSize:  16,
		Positions:   ds.Positions,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		eng.Add(ds.Items[i].Label, h)
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	batch, errs := batchKNN(eng, queries, 4)
	for qi := range queries {
		if errs[qi] != nil {
			t.Fatalf("query %d: %v", qi, errs[qi])
		}
		want, _, err := eng.KNN(queries[qi], 4)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "centroid", "KNN", batch[qi], want)
	}
}

// TestBatchKNNCtx: a batch of KNNCtx calls under one shared context.
// Under Background every entry equals its sequential KNN answer; under
// an expired context every entry carries the context error and a
// degraded answer.
func TestBatchKNNCtx(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 100)
	run := func(ctx context.Context) ([]*KNNAnswer, []error) {
		answers, errs := make([]*KNNAnswer, len(queries)), make([]error, len(queries))
		concurrently(len(queries), func(i int) { answers[i], errs[i] = eng.KNNCtx(ctx, queries[i], 5) })
		return answers, errs
	}
	got, errs := run(context.Background())
	for i := range queries {
		want, _, err := eng.KNN(queries[i], 5)
		if err != nil || errs[i] != nil {
			t.Fatalf("query %d: errors %v / %v", i, err, errs[i])
		}
		sameResults(t, "batch", "KNNCtx", got[i].Results, want)
	}
	expired, errs := run(cancelledCtx())
	for i, ans := range expired {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("query %d: err = %v, want context.Canceled", i, errs[i])
		}
		if ans == nil || !ans.Degraded {
			t.Fatalf("query %d: no degraded answer", i)
		}
	}
}
