package emdsearch

import (
	"context"
	"math"
	"testing"
)

// The cross-layout bit-identity suite. The columnar kernels and the
// quantized pre-filter are pure evaluation-order refactors of the
// per-item reference scan: the chained ranking takes the running max
// of the stage bounds, and the quantized stage never exceeds Red-IM,
// so candidate order, refinement counts, and every returned distance
// must be *byte-identical* across layouts — not merely within an
// epsilon. Any drift means a kernel changed float semantics, which
// would silently change answers under workloads with near-ties.

// layoutVariant is one engine configuration whose answers must match
// the reference per-item scan bit for bit.
type layoutVariant struct {
	name string
	opts Options
}

func layoutVariants() []layoutVariant {
	base := Options{ReducedDims: 8, SampleSize: 10}
	withRef := base
	withRef.ReferenceScan = true
	noQuant := base
	noQuant.DisableQuantizedFilter = true
	oddBlock := base
	oddBlock.FilterBlockSize = 17
	mt := base
	mt.IndexKind = IndexMTree
	vp := base
	vp.IndexKind = IndexVPTree
	vp4 := vp
	vp4.FourPoint = true
	oblivious := base
	oblivious.UnboundedRefine = true
	return []layoutVariant{
		{"reference", withRef},
		{"columnar+quantized", base},
		{"columnar", noQuant},
		{"columnar+block17", oddBlock},
		// The threshold-oblivious pipeline: no bounded refinement, no
		// bounded filter solve. It is the oracle for everything the live
		// threshold is allowed to change, which is work, never answers
		// or the Pulled / Refinements counters.
		{"threshold-oblivious", oblivious},
		// Metric-index candidate generation replaces the filter scan
		// with a best-first tree traversal. Emissions stay a
		// nondecreasing lower-bounding order, so the *answers* must
		// still be bit-identical; only the work counters may differ.
		{"mtree-index", mt},
		{"vptree-index", vp},
		{"vptree-index+4pt", vp4},
	}
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
// live database — the strongest equality check available, covering
// every item rather than just the top k.
func fullRanking(t *testing.T, eng *Engine, q Histogram) []Result {
	t.Helper()
	r, err := eng.Rank(q)
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
	ref := engines[0]
	pred := func(i int) bool { return i%3 != 0 }

	for qi, q := range queries {
		wantKNN, wantStats, err := ref.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		eps, err := ref.EpsilonForCount(q, 15)
		if err != nil {
			t.Fatal(err)
		}
		wantRange, _, err := ref.Range(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		wantWhere, _, err := ref.KNNWhere(q, k, pred)
		if err != nil {
			t.Fatal(err)
		}
		wantRank := fullRanking(t, ref, q)
		if len(wantRank) != ref.Alive() {
			t.Fatalf("reference ranking covers %d items, want %d", len(wantRank), ref.Alive())
		}

		for vi := 1; vi < len(variants); vi++ {
			name, eng := variants[vi].name, engines[vi]
			got, stats, err := eng.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name, "KNN", got, wantKNN)
			// Refinement counts are part of the contract for the scan
			// layouts: the extra quantized stage may only pre-prune what
			// Red-IM would have pruned anyway, so the exact-EMD work must
			// be unchanged. An index traversal orders candidates by a
			// (possibly different, still lower-bounding) metric, so only
			// its answers — not its work counters — must match.
			if !stats.IndexUsed {
				if stats.Refinements != wantStats.Refinements {
					t.Errorf("%s: query %d refined %d items, reference refined %d",
						name, qi, stats.Refinements, wantStats.Refinements)
				}
				if stats.Pulled != wantStats.Pulled {
					t.Errorf("%s: query %d pulled %d candidates, reference pulled %d",
						name, qi, stats.Pulled, wantStats.Pulled)
				}
			}

			gotRange, _, err := eng.Range(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name, "Range", gotRange, wantRange)

			gotWhere, _, err := eng.KNNWhere(q, k, pred)
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

			sameResults(t, name, "Rank", fullRanking(t, eng, q), wantRank)
		}
	}

	// BatchKNN across all queries at once, per variant.
	wantBatch, err := ref.BatchKNN(queries, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	for vi := 1; vi < len(variants); vi++ {
		name, eng := variants[vi].name, engines[vi]
		gotBatch, err := eng.BatchKNN(queries, k, 2)
		if err != nil {
			t.Fatal(err)
		}
		for bi := range wantBatch {
			if gotBatch[bi].Err != nil || wantBatch[bi].Err != nil {
				t.Fatalf("%s: batch query %d errs: got %v, want %v", name, bi, gotBatch[bi].Err, wantBatch[bi].Err)
			}
			sameResults(t, name, "BatchKNN", gotBatch[bi].Results, wantBatch[bi].Results)
		}
	}
}

// TestCrossLayoutStageChains pins which stage chain each layout
// assembles, so a configuration regression (quantized stage silently
// missing, reference path silently columnar) cannot hide behind the
// bit-identity of the answers.
func TestCrossLayoutStageChains(t *testing.T) {
	want := map[string][]string{
		"reference":           {"Red-IM", "Red-EMD"},
		"columnar+quantized":  {"Q-Red-IM", "Red-IM", "Red-EMD"},
		"columnar":            {"Red-IM", "Red-EMD"},
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
