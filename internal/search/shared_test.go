package search

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// partition splits a global instance round-robin across n shards
// (gid % n), the ShardSet placement scheme: shard s holds global ids
// s, s+n, s+2n, ... and local index l on shard s is global id l·n+s.
func partition(filter, exact []float64, n int) (shardFilter, shardExact [][]float64) {
	shardFilter = make([][]float64, n)
	shardExact = make([][]float64, n)
	for gid := range filter {
		s := gid % n
		shardFilter[s] = append(shardFilter[s], filter[gid])
		shardExact[s] = append(shardExact[s], exact[gid])
	}
	return
}

// TestSharedKNNMatchesUnion is the cross-shard identity theorem's
// test: for random instances, running the KNOP core per shard against
// one SharedKNN yields a global result set identical — distances,
// global ids, order — to the single-database bounded KNN over the
// union. Exercised sequentially (worst case for threshold reuse:
// later shards inherit a tight bound) and concurrently under -race.
func TestSharedKNNMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 40 + rng.Intn(120)
		filter, exact := randomInstance(rng, n)
		for _, shards := range []int{1, 2, 3, 4} {
			for _, k := range []int{1, 4, 9} {
				want, _, err := KNNBounded(NewScanRanking(filter), simulatedRefine(exact), k)
				if err != nil {
					t.Fatalf("KNNBounded: %v", err)
				}
				sf, se := partition(filter, exact, shards)
				for _, concurrent := range []bool{false, true} {
					g, err := NewSharedKNN(k)
					if err != nil {
						t.Fatalf("NewSharedKNN: %v", err)
					}
					run := func(s int) {
						toGlobal := func(local int) int { return local*shards + s }
						cfg := query{shared: g, toGlobal: toGlobal}
						_, _, _, err := knnBoundedCore(NewScanRanking(sf[s]), simulatedRefine(se[s]), k, cfg)
						if err != nil {
							t.Errorf("shard %d: %v", s, err)
						}
					}
					if concurrent {
						var wg sync.WaitGroup
						for s := 0; s < shards; s++ {
							wg.Add(1)
							go func(s int) { defer wg.Done(); run(s) }(s)
						}
						wg.Wait()
					} else {
						for s := 0; s < shards; s++ {
							run(s)
						}
					}
					got := g.Results()
					if len(got) != len(want) {
						t.Fatalf("trial %d shards=%d k=%d conc=%v: %d results, want %d",
							trial, shards, k, concurrent, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("trial %d shards=%d k=%d conc=%v pos %d: got %v, want %v",
								trial, shards, k, concurrent, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSharedKNNParallelCoreMatchesUnion repeats the identity with the
// worker-pool KNOP core on each shard — the deployment shape of a
// ShardSet whose engines run Workers > 1.
func TestSharedKNNParallelCoreMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		n := 60 + rng.Intn(120)
		filter, exact := randomInstance(rng, n)
		shards, k := 3, 5
		want, _, err := KNNBounded(NewScanRanking(filter), simulatedRefine(exact), k)
		if err != nil {
			t.Fatalf("KNNBounded: %v", err)
		}
		sf, se := partition(filter, exact, shards)
		g, err := NewSharedKNN(k)
		if err != nil {
			t.Fatalf("NewSharedKNN: %v", err)
		}
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				toGlobal := func(local int) int { return local*shards + s }
				cfg := query{shared: g, toGlobal: toGlobal}
				_, _, _, err := parallelKNNBoundedCore(NewScanRanking(sf[s]), simulatedRefine(se[s]), k, 4, cfg)
				if err != nil {
					t.Errorf("shard %d: %v", s, err)
				}
			}(s)
		}
		wg.Wait()
		got := g.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d pos %d: got %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSharedKNNThresholdPrunesAcrossShards: once one shard has
// confirmed k tight neighbors, a second shard holding only far items
// must stop after its first pull instead of scanning its whole
// partition — the cross-shard threshold is doing real pruning work.
func TestSharedKNNThresholdPrunesAcrossShards(t *testing.T) {
	k := 3
	g, err := NewSharedKNN(k)
	if err != nil {
		t.Fatalf("NewSharedKNN: %v", err)
	}
	// Shard A: three items at distance ~1.
	for i := 0; i < k; i++ {
		g.Offer(i, 1.0+float64(i)*0.01)
	}
	if thr := g.Threshold(); thr != 1.02 {
		t.Fatalf("threshold = %v, want 1.02", thr)
	}
	// Shard B: 50 items whose filter lower bounds all exceed the
	// global threshold.
	nB := 50
	filter := make([]float64, nB)
	exact := make([]float64, nB)
	for i := range filter {
		filter[i] = 5 + float64(i)
		exact[i] = filter[i] + 1
	}
	cfg := query{shared: g}
	res, _, stats, err := knnBoundedCore(NewScanRanking(filter), simulatedRefine(exact), k, cfg)
	if err != nil {
		t.Fatalf("knnBoundedCore: %v", err)
	}
	if stats.Pulled != 1 {
		t.Fatalf("shard B pulled %d candidates, want 1 (break on shared threshold)", stats.Pulled)
	}
	if stats.Refinements != 0 {
		t.Fatalf("shard B refined %d candidates, want 0", stats.Refinements)
	}
	if len(res) != 0 {
		t.Fatalf("shard B confirmed %d local neighbors, want 0", len(res))
	}
}

// TestSharedKNNOfferIgnoresInf: deleted items surface as +Inf exact
// distances; offering them must not occupy top-k slots or publish a
// threshold.
func TestSharedKNNOfferIgnoresInf(t *testing.T) {
	g, err := NewSharedKNN(2)
	if err != nil {
		t.Fatalf("NewSharedKNN: %v", err)
	}
	g.Offer(0, math.Inf(1))
	g.Offer(1, math.Inf(1))
	if !math.IsInf(g.Threshold(), 1) {
		t.Fatalf("threshold = %v after only Inf offers, want +Inf", g.Threshold())
	}
	if n := len(g.Results()); n != 0 {
		t.Fatalf("results hold %d entries after Inf offers, want 0", n)
	}
	g.Offer(2, 1.5)
	g.Offer(3, 0.5)
	res := g.Results()
	if len(res) != 2 || res[0] != (Result{Index: 3, Dist: 0.5}) || res[1] != (Result{Index: 2, Dist: 1.5}) {
		t.Fatalf("results = %v", res)
	}
	if g.Threshold() != 1.5 {
		t.Fatalf("threshold = %v, want 1.5", g.Threshold())
	}
}

// TestSharedKNNOfferDedup: a failover runs the same shard search
// twice, on the primary and on its follower, so the same (global id,
// dist) pair arrives from both. A duplicate must not occupy a second
// top-k slot — that would publish a threshold tighter than the true
// global k-th distance and make other shards prune true neighbors.
func TestSharedKNNOfferDedup(t *testing.T) {
	g, err := NewSharedKNN(2)
	if err != nil {
		t.Fatalf("NewSharedKNN: %v", err)
	}
	g.Offer(7, 1.0)
	g.Offer(7, 1.0) // the follower's identical confirmation
	if !math.IsInf(g.Threshold(), 1) {
		t.Fatalf("duplicate offers filled the set: threshold = %v, want +Inf with one of two slots taken", g.Threshold())
	}
	if res := g.Results(); len(res) != 1 || res[0] != (Result{Index: 7, Dist: 1.0}) {
		t.Fatalf("results after duplicate offers = %v, want one entry", res)
	}
	g.Offer(3, 2.0)
	if g.Threshold() != 2.0 {
		t.Fatalf("threshold = %v, want the true 2nd-best 2.0", g.Threshold())
	}
	// A tighter re-offer of a held id keeps one slot and adopts the
	// tighter distance; a looser one is ignored.
	g.Offer(3, 1.5)
	if res := g.Results(); len(res) != 2 || res[1] != (Result{Index: 3, Dist: 1.5}) {
		t.Fatalf("results after tighter re-offer = %v", res)
	}
	if g.Threshold() != 1.5 {
		t.Fatalf("threshold = %v after tighter re-offer, want 1.5", g.Threshold())
	}
	g.Offer(7, 5.0)
	if res := g.Results(); len(res) != 2 || res[0] != (Result{Index: 7, Dist: 1.0}) {
		t.Fatalf("results after looser re-offer = %v", res)
	}
}

// TestSharedKNNValidation pins the constructor's k check and the
// classic path's indifference to a nil shared set.
func TestSharedKNNValidation(t *testing.T) {
	if _, err := NewSharedKNN(0); err == nil {
		t.Fatal("NewSharedKNN(0) did not fail")
	}
	// The threshold read and the offer of a settled candidate must be
	// no-ops with no shared set (classic path).
	l := &loop{best: newKBest(2), refine: func(int, float64) Refinement { return Refinement{Dist: 1} }}
	if thr := l.threshold(); !math.IsInf(thr, 1) {
		t.Fatalf("threshold without shared set = %v", thr)
	}
	l.settle(Candidate{Index: 0}, math.Inf(1)) // must not panic (the barrier would report it in l.err)
	if l.err != nil {
		t.Fatalf("settle without shared set: %v", l.err)
	}
}
