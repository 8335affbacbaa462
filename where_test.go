package emdsearch

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestKNNWhereMatchesFilteredScan(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 150)
	q := queries[0]
	// Constrain to even indices; verify against a brute-force scan
	// over the same subset.
	pred := func(i int) bool { return i%2 == 0 }
	got, _, err := knnWhere(eng, q, 5, pred)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		idx  int
		dist float64
	}
	var want []res
	for i := 0; i < eng.Len(); i++ {
		if pred(i) {
			want = append(want, res{i, exactDist(t, eng, q, i)})
		}
	}
	for i := 0; i < len(want); i++ {
		for j := i + 1; j < len(want); j++ {
			if want[j].dist < want[i].dist || (want[j].dist == want[i].dist && want[j].idx < want[i].idx) {
				want[i], want[j] = want[j], want[i]
			}
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	for i := range got {
		if got[i].Index != want[i].idx || math.Abs(got[i].Dist-want[i].dist) > 1e-9 {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
		if got[i].Index%2 != 0 {
			t.Fatalf("constraint violated: index %d", got[i].Index)
		}
	}
}

func TestKNNWithLabel(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 120)
	// Pick the label of item 0 and query within it.
	label := eng.Label(0)
	got, _, err := resultsOf(eng.Search(context.Background(), Query{Hist: queries[0], K: 4, Where: labelIs(label)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results for an existing label")
	}
	for _, r := range got {
		if eng.Label(r.Index) != label {
			t.Fatalf("result %d has label %q, want %q", r.Index, eng.Label(r.Index), label)
		}
	}
	// Nonexistent label: empty result, no error.
	none, _, err := resultsOf(eng.Search(context.Background(), Query{Hist: queries[0], K: 4, Where: labelIs("no-such-label")}))
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("got %d results for nonexistent label", len(none))
	}
}

// TestKNNWhereValidation: a malformed histogram is rejected whatever
// the predicate, and a nil Where is no restriction at all.
func TestKNNWhereValidation(t *testing.T) {
	eng, queries := buildEngine(t, Options{}, 20)
	if _, _, err := knnWhere(eng, Histogram{1}, 3, func(int) bool { return true }); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad query with a predicate: err = %v, want ErrBadQuery", err)
	}
	got, _, err := resultsOf(eng.Search(context.Background(), Query{Hist: queries[0], K: 3}))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.KNN(queries[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "nil-where", "Search", got, want)
}

func TestKNNWhereRespectsDeletion(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 6, SampleSize: 8}, 40)
	q := queries[0]
	all, _, err := knnWhere(eng, q, 1, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(all[0].Index); err != nil {
		t.Fatal(err)
	}
	after, _, err := knnWhere(eng, q, 1, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(after) > 0 && after[0].Index == all[0].Index {
		t.Error("deleted item returned by a k-NN query with a predicate")
	}
}
