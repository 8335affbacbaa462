package emdsearch

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"emdsearch/internal/emd"
)

// The cross-layout bit-identity suite. The column block geometry and
// the threshold-aware solves only reorder or skip work: the chained
// ranking takes the running max of the stage bounds, and no stage
// exceeds the next, so candidate order, refinement counts, and every
// returned distance must be *byte-identical* across them — not merely
// within an epsilon — and identical to a brute-force scan over
// emd.Dist. Any drift means a kernel changed float semantics, which
// would silently change answers under workloads with near-ties.

// layoutVariant is one engine configuration whose answers must match
// the threshold-oblivious oracle and the brute-force scan bit for bit.
type layoutVariant struct {
	name string
	opts Options
}

func layoutVariants() []layoutVariant {
	base := Options{ReducedDims: 8, SampleSize: 10}
	oddBlock := base
	oddBlock.FilterBlockSize = 17
	oblivious := base
	oblivious.unboundedRefine = true
	return []layoutVariant{
		// The threshold-oblivious pipeline: no bounded refinement, no
		// bounded filter solve. It is the oracle for everything the live
		// threshold is allowed to change, which is work, never answers
		// or the Pulled / Refinements counters.
		{"threshold-oblivious", oblivious},
		{"columnar", base},
		{"columnar+block17", oddBlock},
	}
}

// bruteForce is the contract every pipeline answers to (and the one
// the benchmark's oracle checks): the exact EMD from q to every live
// item accepted by keep (nil keeps all), by a solver of its own, sorted
// by (distance, id).
func bruteForce(t *testing.T, eng *Engine, q Histogram, keep func(int) bool) []Result {
	t.Helper()
	dist, err := emd.NewDist(eng.Cost())
	if err != nil {
		t.Fatal(err)
	}
	var all []Result
	for i := 0; i < eng.Len(); i++ {
		if eng.Deleted(i) || (keep != nil && !keep(i)) {
			continue
		}
		all = append(all, Result{Index: i, Dist: dist.Distance(q, eng.Vector(i))})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
	return all
}

// knnRadius is the distance of q's m-th nearest live item in eng's
// exact k-NN answer: a range radius that lands on an item's exact
// distance and admits at least m items.
func knnRadius(t *testing.T, eng *Engine, q Histogram, m int) float64 {
	t.Helper()
	res, _, err := eng.KNN(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != m {
		t.Fatalf("KNN(q, %d) returned %d results", m, len(res))
	}
	return res[m-1].Dist
}

// within cuts a sorted result list at distance eps.
func within(rs []Result, eps float64) []Result {
	return rs[:sort.Search(len(rs), func(i int) bool { return rs[i].Dist > eps })]
}

// buildLayoutEngine builds one engine per variant over identical data
// (buildEngine's dataset is seeded, so every call sees the same
// vectors) and applies identical soft-deletes.
func buildLayoutEngine(t *testing.T, v layoutVariant, n int) (*Engine, []Histogram) {
	t.Helper()
	eng, queries := buildEngine(t, v.opts, n)
	for _, id := range []int{7, 23} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return eng, queries
}

// sameResults fails unless two result slices agree on indices and on
// the exact bit pattern of every distance.
func sameResults(t *testing.T, layout, api string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s/%s: %d results, want %d", layout, api, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index {
			t.Fatalf("%s/%s: result %d index %d, want %d", layout, api, i, got[i].Index, want[i].Index)
		}
		if math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s/%s: result %d dist %x, want %x (index %d)",
				layout, api, i, math.Float64bits(got[i].Dist), math.Float64bits(want[i].Dist), want[i].Index)
		}
	}
}

// fullRanking drains Rank(q) into the complete exact ordering of the
// live database, covering every item rather than just the top k.
func fullRanking(t *testing.T, eng *Engine, q Histogram) []Result {
	t.Helper()
	r, err := eng.Rank(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var out []Result
	for {
		idx, dist, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, Result{Index: idx, Dist: dist})
	}
}

func TestCrossLayoutBitIdentity(t *testing.T) {
	const n, k = 120, 7
	variants := layoutVariants()
	engines := make([]*Engine, len(variants))
	var queries []Histogram
	for i, v := range variants {
		engines[i], queries = buildLayoutEngine(t, v, n)
	}
	oracle := engines[0]
	pred := func(i int) bool { return i%3 != 0 }

	wantBatch := make([][]Result, len(queries))
	for qi, q := range queries {
		// Answers come from the brute-force scan, work counters from the
		// threshold-oblivious oracle (variant 0, itself held to the scan).
		brute := bruteForce(t, oracle, q, nil)
		if len(brute) != oracle.Alive() {
			t.Fatalf("brute-force scan covers %d items, want %d", len(brute), oracle.Alive())
		}
		wantKNN, wantWhere := brute[:k], bruteForce(t, oracle, q, pred)[:k]
		wantBatch[qi] = wantKNN
		eps := knnRadius(t, oracle, q, 15)
		wantRange := within(brute, eps)
		var wantStats *QueryStats

		for vi, eng := range engines {
			name := variants[vi].name
			got, stats, err := eng.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name, "KNN", got, wantKNN)
			// Refinement counts are part of the contract: neither the
			// column block geometry nor a bounded solve may change which
			// candidates reach the exact EMD.
			if vi == 0 {
				wantStats = stats
			} else {
				if stats.Refinements != wantStats.Refinements {
					t.Errorf("%s: query %d refined %d items, oracle refined %d",
						name, qi, stats.Refinements, wantStats.Refinements)
				}
				if stats.Pulled != wantStats.Pulled {
					t.Errorf("%s: query %d pulled %d candidates, oracle pulled %d",
						name, qi, stats.Pulled, wantStats.Pulled)
				}
			}

			gotRange, _, err := eng.Range(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name, "Range", gotRange, wantRange)

			gotWhere, _, err := knnWhere(eng, q, k, pred)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name, "KNNWhere", gotWhere, wantWhere)

			ans, err := eng.KNNCtx(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Degraded {
				t.Fatalf("%s: KNNCtx degraded without a deadline", name)
			}
			sameResults(t, name, "KNNCtx", ans.Results, wantKNN)

			// The complete exact ordering of the live database — the
			// strongest equality check available.
			sameResults(t, name, "Rank", fullRanking(t, eng, q), brute)
		}
	}

	// All queries at once, concurrently, per variant.
	for vi, eng := range engines {
		name := variants[vi].name
		gotBatch, errs := batchKNN(eng, queries, k)
		for bi := range queries {
			if errs[bi] != nil {
				t.Fatalf("%s: batch query %d: %v", name, bi, errs[bi])
			}
			sameResults(t, name, "BatchKNN", gotBatch[bi], wantBatch[bi])
		}
	}
}

// TestCrossLayoutStageChains pins which stage chain each layout
// assembles, so a configuration regression (a level silently missing)
// cannot hide behind the bit-identity of the answers.
func TestCrossLayoutStageChains(t *testing.T) {
	want := map[string][]string{
		"columnar":            {"Potentials", "Red-EMD"},
		"columnar+block17":    {"Potentials", "Red-EMD"},
		"threshold-oblivious": {"Potentials", "Red-EMD"},
	}
	for _, v := range layoutVariants() {
		eng, queries := buildLayoutEngine(t, v, 60)
		_, stats, err := eng.KNN(queries[0], 3)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(stats.Stages))
		for i, st := range stats.Stages {
			names[i] = st.Name
		}
		w := want[v.name]
		if len(names) != len(w) {
			t.Fatalf("%s: stage chain %v, want %v", v.name, names, w)
		}
		for i := range w {
			if names[i] != w[i] {
				t.Fatalf("%s: stage chain %v, want %v", v.name, names, w)
			}
		}
		checkStageAccounting(t, eng, stats, w)
	}
}

// TestCrossLayoutBitIdentityUnderMutation interleaves Adds and Deletes
// with queries, so every snapshot after the first extends the potential
// column instead of rebuilding it. Readers run beside a paced writer
// (every confirmed distance must be exact, whichever snapshot served
// it); once the writer stops, every layout answers bit-identically to
// the brute-force scan. The added items are near copies of the
// queries, so they enter the answers through their new projections.
func TestCrossLayoutBitIdentityUnderMutation(t *testing.T) {
	const n, k, rounds = 60, 5, 3
	for _, v := range layoutVariants() {
		eng, queries := buildLayoutEngine(t, v, n)
		rng := rand.New(rand.NewSource(17))
		d := eng.Dim()
		for r := 0; r < rounds; r++ {
			adds := make([]Histogram, 3)
			for i := range adds {
				q, noise := queries[rng.Intn(len(queries))], randHist(rng, d)
				adds[i] = make(Histogram, d)
				for j := range adds[i] {
					adds[i][j] = 0.9*q[j] + 0.1*noise[j]
				}
			}
			victim := n + 3*r // the first item this round's writer adds
			if r == 0 {
				victim = 11
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, h := range adds {
					if _, err := eng.Add("", h); err != nil {
						t.Error(err)
						return
					}
					time.Sleep(time.Millisecond)
				}
				if err := eng.Delete(victim); err != nil {
					t.Error(err)
				}
			}()
			concurrently(len(queries), func(i int) {
				res, _, err := eng.KNN(queries[i], k)
				if err != nil {
					t.Error(err)
					return
				}
				for j, hit := range res {
					exact, err := eng.Distance(context.Background(), queries[i], hit.Index)
					if err != nil || math.Float64bits(hit.Dist) != math.Float64bits(exact) {
						t.Errorf("%s: concurrent result %d dist %v, exact %v (%v)", v.name, hit.Index, hit.Dist, exact, err)
					}
					if j > 0 && res[j-1].Dist > hit.Dist {
						t.Errorf("%s: concurrent results out of order: %v", v.name, res)
					}
				}
			})
			<-done
			if t.Failed() {
				t.FailNow()
			}
			for _, q := range queries {
				checkExactKNN(t, v.name, eng, q, k)
			}
		}
	}
}

// TestPotentialColumnExtendsOnAdd: a pipeline rebuild projects only
// the items added since the previous one — one after one Add, none
// after a Delete or a Build — and answers stay exact throughout.
func TestPotentialColumnExtendsOnAdd(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 6, SampleSize: 8}, 50)
	var projected []int
	eng.testHookProjected = func(n int) { projected = append(projected, n) }
	q := queries[0]
	checkExactKNN(t, "first build", eng, q, 5)
	if _, err := eng.Add("fresh", queries[1]); err != nil {
		t.Fatal(err)
	}
	checkExactKNN(t, "after add", eng, q, 5)
	if err := eng.Delete(3); err != nil {
		t.Fatal(err)
	}
	checkExactKNN(t, "after delete", eng, q, 5)
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	checkExactKNN(t, "after build", eng, q, 5)
	if want := []int{50, 1, 0, 0}; !slices.Equal(projected, want) {
		t.Fatalf("items projected per rebuild %v, want %v", projected, want)
	}
}
