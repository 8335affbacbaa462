package emdsearch

import (
	"bytes"
	"context"
	"math"
	"testing"

	"emdsearch/internal/data"
)

// TestFullLifecycle drives the complete production story in one flow:
// generate a corpus, index it, persist, reload, query through every
// API, mutate (insert + delete), and re-query — asserting exactness
// against direct distance computations at each step.
func TestFullLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	ds, err := data.ColorImages(220, 3)
	if err != nil {
		t.Fatal(err)
	}
	vectors, queries, err := ds.Split(4)
	if err != nil {
		t.Fatal(err)
	}

	// Build with the full feature set: reduction, IM chaining, and the
	// k-d-tree-indexed centroid base ranking.
	eng, err := NewEngine(ds.Cost, Options{
		ReducedDims: 8,
		SampleSize:  24,
		Positions:   ds.Positions,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vectors {
		if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}

	// Persist and reload.
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf, ds.Cost, Options{
		ReducedDims: 8,
		SampleSize:  24,
		Positions:   ds.Positions,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}

	bruteKNN := func(e *Engine, q Histogram, k int) []Result {
		all := make([]Result, e.Len())
		for i := 0; i < e.Len(); i++ {
			all[i] = Result{Index: i, Dist: exactDist(t, e, q, i)}
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j].Dist < all[i].Dist || (all[j].Dist == all[i].Dist && all[j].Index < all[i].Index) {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		return all[:k]
	}

	q := queries[0]
	const k = 6

	// 1. Exact k-NN on the reloaded engine.
	got, stats, err := loaded.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(loaded, q, k)
	for i := range want {
		if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("KNN result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.Refinements >= loaded.Len() {
		t.Errorf("no pruning: %d refinements of %d", stats.Refinements, loaded.Len())
	}

	// 2. Batch queries agree with individual ones.
	batch, errs := batchKNN(loaded, queries, k)
	for qi := range queries {
		if errs[qi] != nil {
			t.Fatalf("batch query %d: %v", qi, errs[qi])
		}
		single, _, err := loaded.KNN(queries[qi], k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range single {
			if batch[qi][i] != single[i] {
				t.Fatalf("batch query %d result %d mismatch", qi, i)
			}
		}
	}

	// 3. Epsilon targeting and range queries.
	eps, err := loaded.EpsilonForCount(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	rangeResults, _, err := loaded.Range(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rangeResults) < 10 {
		t.Fatalf("EpsilonForCount(10) radius returned %d results", len(rangeResults))
	}
	ids, err := rangeIDs(context.Background(), loaded, q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(rangeResults) {
		t.Fatalf("ids-only range %d vs Range %d", len(ids), len(rangeResults))
	}

	// 4. Approximate search certificate brackets the true k-th.
	_, cert, err := loaded.ApproxKNN(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	trueKth := want[k-1].Dist
	if trueKth < cert.LowerK-1e-9 || trueKth > cert.UpperK+1e-9 {
		t.Fatalf("certificate [%g, %g] misses true k-th %g", cert.LowerK, cert.UpperK, trueKth)
	}

	// 5. Mutate: insert a duplicate of the query, then delete it.
	id, err := loaded.Add("dup", q)
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := loaded.KNN(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one[0].Index != id || one[0].Dist > 1e-9 {
		t.Fatalf("inserted duplicate not 1-NN: %+v", one[0])
	}
	if err := loaded.Delete(id); err != nil {
		t.Fatal(err)
	}
	after, _, err := loaded.KNN(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Index == id {
		t.Fatal("deleted duplicate still returned")
	}
	if after[0].Index != want[0].Index {
		t.Fatalf("1-NN after delete: %+v, want %+v", after[0], want[0])
	}

	// 6. Faceted query stays within the label.
	label := loaded.Label(want[0].Index)
	faceted, _, err := resultsOf(loaded.Search(context.Background(), Query{Hist: q, K: 3, Where: labelIs(label)}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range faceted {
		if loaded.Label(r.Index) != label {
			t.Fatalf("faceted result %d has label %q", r.Index, loaded.Label(r.Index))
		}
	}
	if faceted[0].Index != want[0].Index {
		t.Fatalf("faceted 1-NN %d, want %d", faceted[0].Index, want[0].Index)
	}
}
