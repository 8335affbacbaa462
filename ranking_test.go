package emdsearch

import (
	"context"
	"math"
	"sort"
	"testing"
)

func TestRankStreamsInExactOrder(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 100)
	q := queries[0]
	r, err := eng.Rank(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	for {
		idx, d, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, Result{Index: idx, Dist: d})
	}
	if len(got) != eng.Len() {
		t.Fatalf("ranking yielded %d items, want %d", len(got), eng.Len())
	}
	// Monotone distances.
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist-1e-12 {
			t.Fatalf("out of order at %d: %g after %g", i, got[i].Dist, got[i-1].Dist)
		}
	}
	// Same set and same values as direct computation.
	want := make([]Result, eng.Len())
	for i := 0; i < eng.Len(); i++ {
		want[i] = Result{Index: i, Dist: exactDist(t, eng, q, i)}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Dist < want[j].Dist })
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("rank %d: dist %g, want %g", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestRankMatchesKNNPrefix(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 120)
	q := queries[1]
	const k = 7
	knn, _, err := eng.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Rank(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		_, d, ok := r.Next()
		if !ok {
			t.Fatalf("ranking exhausted at %d", i)
		}
		if math.Abs(d-knn[i].Dist) > 1e-9 {
			t.Fatalf("prefix %d: ranking dist %g, KNN dist %g", i, d, knn[i].Dist)
		}
	}
}

func TestRankScanEngine(t *testing.T) {
	eng, queries := buildEngine(t, Options{}, 40)
	r, err := eng.Rank(context.Background(), queries[0])
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	prev := -1.0
	for {
		_, d, ok := r.Next()
		if !ok {
			break
		}
		if d < prev {
			t.Fatal("scan-mode ranking out of order")
		}
		prev = d
		count++
	}
	if count != eng.Len() {
		t.Fatalf("yielded %d, want %d", count, eng.Len())
	}
}

func TestRankValidation(t *testing.T) {
	eng, _ := buildEngine(t, Options{ReducedDims: 4, SampleSize: 8}, 20)
	if _, err := eng.Rank(context.Background(), Histogram{0.5, 0.5}); err == nil {
		t.Error("accepted wrong-dimensional query")
	}
}
