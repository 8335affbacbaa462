package emdsearch

import (
	"context"
	"math"
	"testing"
)

func TestDeleteValidation(t *testing.T) {
	eng, _ := buildEngine(t, Options{ReducedDims: 4, SampleSize: 8}, 20)
	if err := eng.Delete(-1); err == nil {
		t.Error("accepted negative index")
	}
	if err := eng.Delete(100); err == nil {
		t.Error("accepted out-of-range index")
	}
	if err := eng.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(3); err == nil {
		t.Error("accepted double delete")
	}
	if !eng.Deleted(3) || eng.Deleted(4) {
		t.Error("Deleted() wrong")
	}
	if eng.Alive() != 19 {
		t.Errorf("Alive = %d, want 19", eng.Alive())
	}
}

func TestDeletedItemsExcludedFromQueries(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 100)
	q := queries[0]

	before, _, err := eng.KNN(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	victim := before[0].Index
	if err := eng.Delete(victim); err != nil {
		t.Fatal(err)
	}

	after, _, err := eng.KNN(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if r.Index == victim {
			t.Fatal("deleted item returned by KNN")
		}
		if math.IsInf(r.Dist, 1) {
			t.Fatal("infinite distance in results")
		}
	}
	// The old second-best becomes the new best.
	if after[0].Index != before[1].Index {
		t.Errorf("new 1-NN %d, want promoted %d", after[0].Index, before[1].Index)
	}

	// Range excludes it too.
	results, _, err := eng.Range(q, before[0].Dist+0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Index == victim {
			t.Fatal("deleted item returned by Range")
		}
	}
	ids, err := rangeIDs(context.Background(), eng, q, before[0].Dist+0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == victim {
			t.Fatal("deleted item returned by the ids-only range query")
		}
	}

	// Rank skips it.
	r, err := eng.Rank(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		idx, _, ok := r.Next()
		if !ok {
			break
		}
		if idx == victim {
			t.Fatal("deleted item emitted by Rank")
		}
		count++
	}
	if count != eng.Alive() {
		t.Errorf("Rank yielded %d items, want %d", count, eng.Alive())
	}

	// ApproxKNN skips it.
	approx, _, err := eng.ApproxKNN(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range approx {
		if a.Index == victim {
			t.Fatal("deleted item returned by ApproxKNN")
		}
	}
}

func TestDeleteMoreThanKSurvivors(t *testing.T) {
	eng, queries := buildEngine(t, Options{}, 10)
	for i := 0; i < 8; i++ {
		if err := eng.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	results, _, err := eng.KNN(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results with 2 live items, want 2", len(results))
	}
	for _, r := range results {
		if r.Index < 8 {
			t.Fatalf("deleted item %d returned", r.Index)
		}
	}
}
