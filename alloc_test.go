//go:build !race

package emdsearch

import (
	"context"
	"testing"
)

// Under -race sync.Pool drops a share of its Puts on purpose, so the
// pooled solver states and buffers are reallocated at random and the
// counts below only hold in an ordinary build.

// TestKNNAllocs pins the allocations of one k-NN through the filter
// chain at n = 1500, through a background and through a cancellable
// context: 103 and 107, with a margin of one. The eager potential scan
// fills one distance slice; the count grows only with the candidates
// the chained stages pass on, since refinements draw on pooled solver
// states.
func TestKNNAllocs(t *testing.T) {
	const n, k = 1500, 10
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, n)
	q := queries[0]
	if _, _, err := eng.KNN(q, k); err != nil {
		t.Fatalf("warm-up query: %v", err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		max  float64
	}{
		{"background", context.Background(), 104},
		{"cancellable", cctx, 108},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := eng.KNNCtx(c.ctx, q, k); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs per query", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s: %v allocs per k-NN, want at most %v", c.name, allocs, c.max)
		}
	}
}
