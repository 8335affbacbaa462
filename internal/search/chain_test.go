package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// plainSecond lifts a plain second-filter function into the
// threshold-taking form of NewChainedRanking: it ignores the threshold
// and always finishes.
func plainSecond(f func(i int) float64) func(int, float64) (float64, bool) {
	return func(i int, _ float64) (float64, bool) { return f(i), false }
}

// adversarialSecond is the loosest second filter the contract allows:
// whenever the true value exceeds abortAbove it reports an abort with an
// arbitrary value in (abortAbove, true] — often the smallest float above
// the threshold, far below the truth — so a chain that ever used an
// aborted value as a distance would reorder or drop neighbors.
func adversarialSecond(truth []float64, rng *rand.Rand) func(int, float64) (float64, bool) {
	return func(i int, abortAbove float64) (float64, bool) {
		d := truth[i]
		if !(d > abortAbove) {
			return d, false
		}
		lo := math.Nextafter(abortAbove, math.Inf(1))
		switch rng.Intn(3) {
		case 0:
			return lo, true
		case 1:
			return d, true
		}
		return math.Min(d, math.Max(lo, abortAbove+(d-abortAbove)*rng.Float64())), true
	}
}

// infBound returns a fresh threshold cell, as Searcher.buildRanking
// hands them out.
func infBound() *float64 {
	b := math.Inf(1)
	return &b
}

// chainInstance is a random multistep query: exact distances, and
// levels of lower bounds on them (level 0 is scanned eagerly, the rest
// are chained). Values are drawn from a coarse grid so that ties — on
// the k-th distance, between filter levels, between items — are common.
type chainInstance struct {
	exact  []float64
	levels [][]float64
}

func newChainInstance(rng *rand.Rand, n, levels, grid int) chainInstance {
	in := chainInstance{exact: make([]float64, n), levels: make([][]float64, levels)}
	for l := range in.levels {
		in.levels[l] = make([]float64, n)
	}
	for i := range in.exact {
		in.exact[i] = float64(rng.Intn(grid)+1) / float64(grid) * 10
		for l := range in.levels {
			// Not nested on purpose: the chain takes the running maximum.
			in.levels[l][i] = in.exact[i] * float64(rng.Intn(5)) / 4
		}
	}
	return in
}

// ranking builds the filter chain. With a nil rng it is the
// threshold-oblivious oracle: plain second filters, no bound cell.
func (in chainInstance) ranking(bound *float64, rng *rand.Rand) (Ranking, []*ChainedRanking) {
	r := Ranking(NewScanRanking(in.levels[0]))
	var chains []*ChainedRanking
	for _, lvl := range in.levels[1:] {
		second := plainSecond(func(i int) float64 { return lvl[i] })
		if rng != nil {
			second = adversarialSecond(lvl, rng)
		}
		cr := NewChainedRanking(r, second, bound)
		chains = append(chains, cr)
		r = cr
	}
	return r, chains
}

// checkChainBound runs one instance through the sequential k-NN and
// range loops twice — threshold-oblivious chain, and threshold-aware
// chain over adversarial second filters — and reports any difference in
// results or in the loops' work counters. Two partitions share one
// SharedKNN so the cross-partition threshold is exercised too (they run
// one after the other, which keeps the counters deterministic).
func checkChainBound(seed int64, n, levels, grid, k int) error {
	rng := rand.New(rand.NewSource(seed))
	parts := []chainInstance{newChainInstance(rng, n, levels, grid), newChainInstance(rng, n, levels, grid)}
	pred := func(i int) bool { return i%7 != 3 }
	eps := float64(rng.Intn(grid)+1) / float64(grid) * 5 // on the value grid

	type outcome struct {
		res   []Result
		stats QueryStats
	}
	run := func(aware bool) ([]outcome, error) {
		var outs []outcome
		shared, err := NewSharedKNN(k)
		if err != nil {
			return nil, err
		}
		for p, in := range parts {
			cfg := query{shared: shared, toGlobal: func(i int) int { return i + p*n }, pred: pred}
			var advRng *rand.Rand
			if aware {
				cfg.bound = infBound()
				advRng = rand.New(rand.NewSource(seed + int64(p)))
			}
			ranking, chains := in.ranking(cfg.bound, advRng)
			res, _, stats, err := knnBoundedCore(ranking, simulatedRefine(in.exact), k, cfg)
			if err != nil {
				return nil, err
			}
			if !aware {
				for _, cr := range chains {
					if cr.Aborted != 0 {
						return nil, fmt.Errorf("oblivious chain counted %d aborts", cr.Aborted)
					}
				}
			}
			outs = append(outs, outcome{res, *stats})
		}
		// Range query on the first partition.
		in := parts[0]
		cfg := query{}
		var advRng *rand.Rand
		if aware {
			cfg.bound = infBound()
			advRng = rand.New(rand.NewSource(seed - 1))
		}
		ranking, _ := in.ranking(cfg.bound, advRng)
		res, stats, err := rangeBoundedCore(ranking, simulatedRefine(in.exact), eps, cfg)
		if err != nil {
			return nil, err
		}
		return append(outs, outcome{res, *stats}), nil
	}

	want, err := run(false)
	if err != nil {
		return err
	}
	got, err := run(true)
	if err != nil {
		return err
	}
	for q := range want {
		w, g := want[q], got[q]
		if len(w.res) != len(g.res) {
			return fmt.Errorf("query %d: %d results, oblivious chain gives %d", q, len(g.res), len(w.res))
		}
		for i := range w.res {
			if w.res[i].Index != g.res[i].Index || math.Float64bits(w.res[i].Dist) != math.Float64bits(g.res[i].Dist) {
				return fmt.Errorf("query %d pos %d: %v, oblivious chain gives %v", q, i, g.res[i], w.res[i])
			}
		}
		if w.stats.Pulled != g.stats.Pulled || w.stats.Refinements != g.stats.Refinements || w.stats.RefinesAborted != g.stats.RefinesAborted {
			return fmt.Errorf("query %d: pulled/refined/aborted %d/%d/%d, oblivious chain gives %d/%d/%d", q,
				g.stats.Pulled, g.stats.Refinements, g.stats.RefinesAborted,
				w.stats.Pulled, w.stats.Refinements, w.stats.RefinesAborted)
		}
	}
	return nil
}

// TestChainedRankingBoundProperty is the soundness property of the
// threshold-aware chain: whatever certified bounds the stages return in
// place of distances beyond the live threshold, KNOP and the range loop
// produce the results AND the Pulled / Refinements / RefinesAborted
// counters of the chain that evaluates every stage to completion.
func TestChainedRankingBoundProperty(t *testing.T) {
	property := func(seed int64, n, levels, grid, k uint8) bool {
		err := checkChainBound(seed, 1+int(n)%80, 2+int(levels)%3, 2+int(grid)%40, 1+int(k)%12)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzChainedRankingBound drives the same property from the fuzzer.
func FuzzChainedRankingBound(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(3), uint8(2))
	f.Add(int64(2), uint8(79), uint8(2), uint8(30), uint8(9))
	f.Add(int64(3), uint8(5), uint8(1), uint8(0), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, n, levels, grid, k uint8) {
		if err := checkChainBound(seed, 1+int(n)%80, 2+int(levels)%3, 2+int(grid)%40, 1+int(k)%12); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChainedRankingBoundParallel checks the worker-pool cores against
// the same oracle. Their counters depend on scheduling, so only the
// results are compared; under -race this is also the proof that the
// bound cell is touched by the feeder goroutine alone.
func TestChainedRankingBoundParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		in := newChainInstance(rng, 20+rng.Intn(120), 2+rng.Intn(3), 2+rng.Intn(40))
		k := 1 + rng.Intn(10)
		oracle, _ := in.ranking(nil, nil)
		want, _, _, err := knnBoundedCore(oracle, simulatedRefine(in.exact), k, query{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := query{bound: infBound()}
		ranking, chains := in.ranking(cfg.bound, rand.New(rand.NewSource(int64(trial))))
		got, _, _, err := parallelKNNBoundedCore(ranking, simulatedRefine(in.exact), k, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d pos %d: got %v, want %v", trial, i, got[i], want[i])
			}
		}
		for l, cr := range chains {
			if cr.Aborted > cr.Evaluations {
				t.Fatalf("trial %d level %d: aborted %d > evaluations %d", trial, l+1, cr.Aborted, cr.Evaluations)
			}
		}
	}
}
