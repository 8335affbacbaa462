package emdsearch

import (
	"context"
	"testing"
)

func TestApproxKNNGuaranteesOnEngine(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 150)
	for _, q := range queries {
		approx, cert, err := eng.ApproxKNN(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(approx) != 5 {
			t.Fatalf("returned %d results", len(approx))
		}
		exact, _, err := eng.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		trueKth := exact[4].Dist
		if trueKth < cert.LowerK-1e-9 || trueKth > cert.UpperK+1e-9 {
			t.Fatalf("true k-th %g outside certificate [%g, %g]", trueKth, cert.LowerK, cert.UpperK)
		}
		for _, r := range approx {
			d := exactDist(t, eng, q, r.Index)
			if d < r.Lower-1e-9 || d > r.Upper+1e-9 {
				t.Fatalf("item %d exact %g outside [%g, %g]", r.Index, d, r.Lower, r.Upper)
			}
			if d > cert.UpperK+1e-9 {
				t.Fatalf("returned item %d exact %g above UpperK %g", r.Index, d, cert.UpperK)
			}
		}
	}
}

func TestApproxKNNNeedsReduction(t *testing.T) {
	eng, queries := buildEngine(t, Options{}, 30)
	if _, _, err := eng.ApproxKNN(context.Background(), queries[0], 3); err == nil {
		t.Error("ApproxKNN without reduction succeeded")
	}
}

func TestApproxKNNValidatesQuery(t *testing.T) {
	eng, _ := buildEngine(t, Options{ReducedDims: 4, SampleSize: 8}, 30)
	if _, _, err := eng.ApproxKNN(context.Background(), Histogram{1}, 3); err == nil {
		t.Error("accepted wrong-dimensional query")
	}
}

// TestApproxRecallReasonable: the approximate answer typically overlaps
// the exact answer substantially; assert a loose floor to catch
// regressions without overfitting to the data.
func TestApproxRecallReasonable(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 12, SampleSize: 24}, 200)
	var hit, total int
	for _, q := range queries {
		approx, _, err := eng.ApproxKNN(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := eng.KNN(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]bool{}
		for _, r := range exact {
			want[r.Index] = true
		}
		for _, r := range approx {
			total++
			if want[r.Index] {
				hit++
			}
		}
	}
	recall := float64(hit) / float64(total)
	t.Logf("approximate recall: %.2f", recall)
	if recall < 0.3 {
		t.Errorf("approximate recall %.2f unreasonably low", recall)
	}
}
