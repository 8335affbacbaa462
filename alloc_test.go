//go:build !race

package emdsearch

import (
	"context"
	"testing"
)

// Under -race sync.Pool drops a share of its Puts on purpose, so the
// pooled solver states and buffers are reallocated at random and the
// counts below only hold in an ordinary build.

// TestVPTreeKNNAllocs pins the allocations of one forced VP-tree k-NN
// at n = 1500, through a background and through a cancellable
// context: 25 and 29, with a margin of one. The tree stream keeps the
// query's ancestor distances in one slab per stream; a slice per frame
// would multiply the count.
func TestVPTreeKNNAllocs(t *testing.T) {
	const n, k = 1500, 10
	eng, queries := buildEngine(t, indexOpts(IndexVPTree), n)
	q := queries[0]
	if _, stats, err := eng.KNN(q, k); err != nil || !stats.IndexUsed {
		t.Fatalf("warm-up query: err %v, index used %v", err, stats != nil && stats.IndexUsed)
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		max  float64
	}{
		{"background", context.Background(), 26},
		{"cancellable", cctx, 30},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := eng.KNNCtx(c.ctx, q, k); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs per query", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s: %v allocs per VP-tree k-NN, want at most %v", c.name, allocs, c.max)
		}
	}
}
