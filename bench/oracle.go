package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"

	emdsearch "emdsearch"
	"emdsearch/internal/emd"
)

// bruteKNN is the oracle: the exact EMD from q to every live item,
// sorted by (distance, id) — the engine's documented tie-break — and
// cut to k. ids[i] is the global id of items[i].
func bruteKNN(dist *emd.Dist, items []emdsearch.Histogram, ids []int, q emdsearch.Histogram, k int) []emdsearch.Result {
	all := make([]emdsearch.Result, len(items))
	for i, v := range items {
		all[i] = emdsearch.Result{Index: ids[i], Dist: dist.Distance(q, v)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// oracle answers the first n queries by brute force, on as many
// goroutines as there are clients. ids may be nil for the identity.
func oracle(cost emdsearch.CostMatrix, items []emdsearch.Histogram, ids []int, queries []emdsearch.Histogram, n int) ([][]emdsearch.Result, error) {
	if ids == nil {
		ids = make([]int, len(items))
		for i := range ids {
			ids[i] = i
		}
	}
	if n > len(queries) {
		n = len(queries)
	}
	out := make([][]emdsearch.Result, n)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A Dist carries solver scratch and is not shared.
			dist, err := emd.NewDist(cost)
			if err != nil {
				errs[w] = err
				return
			}
			for i := w; i < n; i += clients {
				out[i] = bruteKNN(dist, items, ids, queries[i], knnK)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameResults reports whether got equals want id for id and bit for
// bit on the distance. Go's JSON float encoding round-trips, so this
// holds over HTTP too.
func sameResults(got, want []emdsearch.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("rank %d: got (%d, %x), want (%d, %x)", i,
				got[i].Index, math.Float64bits(got[i].Dist), want[i].Index, math.Float64bits(want[i].Dist))
		}
	}
	return nil
}

// containsAll reports whether every id of want occurs in got: a range
// query at a query's k-th distance must return its k nearest.
func containsAll(got, want []emdsearch.Result) bool {
	seen := make(map[int]bool, len(got))
	for _, r := range got {
		seen[r.Index] = true
	}
	for _, r := range want {
		if !seen[r.Index] {
			return false
		}
	}
	return true
}

// hashResults folds an answer's ids and distance bits into h.
func hashResults(h hash.Hash64, rs []emdsearch.Result) {
	var b [16]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(b[:8], uint64(r.Index))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Dist))
		h.Write(b[:])
	}
	h.Write([]byte{0xff}) // answer boundary
}
