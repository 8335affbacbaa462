package emdsearch

import (
	"context"
	"math"
	"sort"
	"testing"

	"emdsearch/internal/emd"
)

// The cross-layout bit-identity suite. The columnar kernels, the
// quantized pre-filter, the metric indexes and the threshold-aware
// solves only reorder or skip work: the chained ranking takes the
// running max of the stage bounds, and no stage exceeds the next, so
// candidate order, refinement counts, and every returned distance must
// be *byte-identical* across them — not merely within an epsilon — and
// identical to a brute-force scan over emd.Dist. Any drift means a
// kernel changed float semantics, which would silently change answers
// under workloads with near-ties. (That the columnar kernels compute
// lb.IM's exact values is pinned where they live: TestIMScannerBitIdentical,
// FuzzQuantizedLowerBound, TestQuickQuantizedChain.)

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
	mt := base
	mt.IndexKind = IndexMTree
	vp := base
	vp.IndexKind = IndexVPTree
	vp4 := vp
	vp4.FourPoint = true
	oblivious := base
	oblivious.unboundedRefine = true
	return []layoutVariant{
		// The threshold-oblivious pipeline: no bounded refinement, no
		// bounded filter solve. It is the oracle for everything the live
		// threshold is allowed to change, which is work, never answers
		// or the Pulled / Refinements counters.
		{"threshold-oblivious", oblivious},
		{"columnar+quantized", base},
		{"columnar+block17", oddBlock},
		// Metric-index candidate generation replaces the filter scan
		// with a best-first tree traversal. Emissions stay a
		// nondecreasing lower-bounding order, so the *answers* must
		// still be bit-identical; only the work counters may differ.
		{"mtree-index", mt},
		{"vptree-index", vp},
		{"vptree-index+4pt", vp4},
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
		eps, err := oracle.EpsilonForCount(context.Background(), q, 15)
		if err != nil {
			t.Fatal(err)
		}
		wantRange := within(brute, eps)
		var wantStats *QueryStats

		for vi, eng := range engines {
			name := variants[vi].name
			got, stats, err := eng.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name, "KNN", got, wantKNN)
			// Refinement counts are part of the contract for the scan
			// layouts: neither the block geometry of the quantized stage
			// nor a bounded solve may change which candidates reach the
			// exact EMD. An index traversal orders candidates by a
			// (possibly different, still lower-bounding) metric, so only
			// its answers — not its work counters — must match.
			if vi == 0 {
				wantStats = stats
			} else if !stats.IndexUsed {
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
// assembles, so a configuration regression (quantized stage silently
// missing, index silently declined) cannot hide behind the
// bit-identity of the answers.
func TestCrossLayoutStageChains(t *testing.T) {
	want := map[string][]string{
		"columnar+quantized":  {"Q-Red-IM", "Red-IM", "Red-EMD"},
		"columnar+block17":    {"Q-Red-IM", "Red-IM", "Red-EMD"},
		"threshold-oblivious": {"Q-Red-IM", "Red-IM", "Red-EMD"},
		"mtree-index":         {"MTree(Red-EMD)"},
		"vptree-index":        {"VPTree(Red-EMD)"},
		"vptree-index+4pt":    {"VPTree(Red-EMD)"},
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
