package emdsearch

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"emdsearch/internal/data"
)

// exactDist is the test-side shorthand for Engine.Distance, failing
// the test on error.
func exactDist(t *testing.T, e *Engine, q Histogram, i int) float64 {
	t.Helper()
	d, err := e.Distance(context.Background(), q, i)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// intervalContainsUlps reports lower <= x <= upper with `ulps` units
// in the last place of slack on each side. The exact EMD recomputed
// by a fresh simplex solve can land a few final bits away from the
// query-time certified value (summation order); that is
// measurement noise in the reference, not an unsound interval.
func intervalContainsUlps(lower, upper, x float64, ulps int) bool {
	lo, hi := lower, upper
	for i := 0; i < ulps; i++ {
		lo = math.Nextafter(lo, math.Inf(-1))
		hi = math.Nextafter(hi, math.Inf(1))
	}
	return lo <= x && x <= hi
}

func buildEngine(t *testing.T, opts Options, n int) (*Engine, []Histogram) {
	t.Helper()
	ds, err := data.MusicSpectra(n+5, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds.Cost, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	return eng, queries
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(CostMatrix{{0, 1}, {1}}, Options{}); err == nil {
		t.Error("accepted ragged cost")
	}
	rect := CostMatrix{{0, 1, 2}, {1, 0, 1}}
	if _, err := NewEngine(rect, Options{}); err == nil {
		t.Error("accepted rectangular cost")
	}
	if _, err := NewEngine(LinearCost(4), Options{ReducedDims: 5}); err == nil {
		t.Error("accepted ReducedDims > d")
	}
	if _, err := NewEngine(LinearCost(4), Options{ReducedDims: -1}); err == nil {
		t.Error("accepted negative ReducedDims")
	}
}

func TestEngineExactnessAllMethods(t *testing.T) {
	for _, m := range []ReductionMethod{FBAll, FBMod, KMedoids, Adjacent} {
		t.Run(string(m), func(t *testing.T) {
			eng, queries := buildEngine(t, Options{ReducedDims: 8, Method: m, SampleSize: 10}, 120)
			scan, scanQueries := buildEngine(t, Options{}, 120)
			_ = scanQueries
			for _, q := range queries {
				got, stats, err := eng.KNN(q, 7)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := scan.KNN(q, 7)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("got %d results, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
					}
				}
				if stats.Refinements > eng.Len() {
					t.Errorf("refinements %d exceed database size", stats.Refinements)
				}
			}
		})
	}
}

func TestEnginePrunes(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, 200)
	var total int
	for _, q := range queries {
		_, stats, err := eng.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		total += stats.Refinements
	}
	if total >= 5*eng.Len() {
		t.Errorf("filter chain refined everything: %d refinements over 5 queries on %d items", total, eng.Len())
	}
}

func TestEngineScanMode(t *testing.T) {
	eng, queries := buildEngine(t, Options{}, 60)
	if eng.Reduction() != nil {
		t.Error("scan engine has a reduction")
	}
	_, stats, err := eng.KNN(queries[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Refinements != eng.Len() {
		t.Errorf("scan mode refined %d of %d", stats.Refinements, eng.Len())
	}
}

func TestEngineQueryValidation(t *testing.T) {
	eng, _ := buildEngine(t, Options{ReducedDims: 4, SampleSize: 8}, 30)
	if _, _, err := eng.KNN(Histogram{0.5, 0.5}, 3); err == nil {
		t.Error("accepted wrong-dimensional query")
	}
	bad := make(Histogram, 32)
	bad[0] = 2
	if _, _, err := eng.KNN(bad, 3); err == nil {
		t.Error("accepted unnormalized query")
	}
	if _, _, err := eng.Range(Histogram{1}, 0.5); err == nil {
		t.Error("Range accepted wrong-dimensional query")
	}
}

func TestEngineRange(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, 100)
	q := queries[0]
	results, _, err := eng.Range(q, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against direct distances.
	count := 0
	for i := 0; i < eng.Len(); i++ {
		if exactDist(t, eng, q, i) <= 0.08 {
			count++
		}
	}
	if len(results) != count {
		t.Errorf("range returned %d, scan finds %d", len(results), count)
	}
	for _, r := range results {
		if r.Dist > 0.08 {
			t.Errorf("result %d outside range: %g", r.Index, r.Dist)
		}
	}
}

func TestEngineAddAfterBuild(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 6, SampleSize: 8}, 50)
	before := eng.Len()
	// Insert a histogram identical to the query: it must become the
	// 1-NN without rebuilding.
	q := queries[0]
	id, err := eng.Add("inserted", q)
	if err != nil {
		t.Fatal(err)
	}
	if id != before {
		t.Errorf("new id %d, want %d", id, before)
	}
	results, _, err := eng.KNN(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Index != id || results[0].Dist > 1e-9 {
		t.Errorf("inserted duplicate not found as 1-NN: %+v", results[0])
	}
}

func TestEngineBuildErrors(t *testing.T) {
	eng, err := NewEngine(LinearCost(8), Options{ReducedDims: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Build(); err == nil {
		t.Error("Build on empty engine succeeded")
	}
	if _, err := eng.Add("", Histogram{1, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Build(); err == nil {
		t.Error("flow-based Build with a single histogram succeeded")
	}
}

func TestEngineKNNWithoutBuildUsesScan(t *testing.T) {
	eng, err := NewEngine(LinearCost(4), Options{ReducedDims: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Add("", Histogram{1, 0, 0, 0})
	eng.Add("", Histogram{0, 0, 0, 1})
	// No Build: engine must still answer correctly (unreduced scan).
	res, _, err := eng.KNN(Histogram{0.9, 0.1, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Index != 0 {
		t.Errorf("1-NN = %d, want 0", res[0].Index)
	}
}

func TestEngineSaveLoad(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 6, SampleSize: 8}, 40)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ds, _ := data.MusicSpectra(1, 32, 9)
	loaded, err := LoadEngine(&buf, ds.Cost, Options{ReducedDims: 6, SampleSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != eng.Len() {
		t.Fatalf("loaded %d items, want %d", loaded.Len(), eng.Len())
	}
	// Same reduction, same results, no rebuild needed.
	gotRed := loaded.Reduction()
	wantRed := eng.Reduction()
	for i := range wantRed {
		if gotRed[i] != wantRed[i] {
			t.Fatal("reduction not preserved")
		}
	}
	for _, q := range queries[:2] {
		got, _, err := loaded.KNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.KNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

func TestEngineLabelsAndVectors(t *testing.T) {
	eng, _ := buildEngine(t, Options{ReducedDims: 4, SampleSize: 8}, 20)
	if eng.Label(0) == "" {
		t.Error("label lost")
	}
	if len(eng.Vector(0)) != eng.Dim() {
		t.Error("vector dimensionality wrong")
	}
}

func TestEMDTopLevel(t *testing.T) {
	x := Histogram{0.5, 0, 0.2, 0, 0.3, 0}
	y := Histogram{0, 0.5, 0, 0.2, 0, 0.3}
	d, err := EMD(x, y, LinearCost(6))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1.0) > 1e-12 {
		t.Errorf("EMD = %g, want 1.0", d)
	}
	_, flow, err := EMDWithFlow(x, y, LinearCost(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(flow) != 6 {
		t.Errorf("flow rows %d, want 6", len(flow))
	}
	h := Normalize(Histogram{2, 6})
	if h[1] != 0.75 {
		t.Errorf("Normalize = %v", h)
	}
}

func TestCostConstructorsExported(t *testing.T) {
	if c := ModuloCost(6); c[0][5] != 1 {
		t.Error("ModuloCost wrong")
	}
	gc, err := GridCost(2, 2, 2)
	if err != nil || gc.Rows() != 4 {
		t.Errorf("GridCost: %v %v", gc, err)
	}
	pc, err := PositionCost([][]float64{{0}}, [][]float64{{3}}, 1)
	if err != nil || pc[0][0] != 3 {
		t.Errorf("PositionCost: %v %v", pc, err)
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	rngData := rand.New(rand.NewSource(1))
	_ = rngData
	a, qa := buildEngine(t, Options{ReducedDims: 6, SampleSize: 8, Seed: 7}, 60)
	b, _ := buildEngine(t, Options{ReducedDims: 6, SampleSize: 8, Seed: 7}, 60)
	ra, rb := a.Reduction(), b.Reduction()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("same seed produced different reductions")
		}
	}
	got, _, err := a.KNN(qa[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := b.KNN(qa[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("same seed produced different results")
		}
	}
}

func TestEngineCentroidPreFilter(t *testing.T) {
	ds, err := data.ColorImages(160, 5)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	withCentroid, err := NewEngine(ds.Cost, Options{
		ReducedDims: 8,
		SampleSize:  16,
		Positions:   ds.Positions,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEngine(ds.Cost, Options{ReducedDims: 8, SampleSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		withCentroid.Add(ds.Items[i].Label, h)
		plain.Add(ds.Items[i].Label, h)
	}
	if err := withCentroid.Build(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Build(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, gotStats, err := withCentroid.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := plain.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d results, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index {
				t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
		if len(gotStats.StageEvaluations) != 2 {
			t.Fatalf("expected 2 chained stages (Red-IM, Red-EMD) over the k-d tree base, got %v", gotStats.StageEvaluations)
		}
		// With the incremental centroid base ranking, no stage scans
		// the whole database.
		for si, evals := range gotStats.StageEvaluations {
			if evals >= withCentroid.Len() {
				t.Errorf("stage %d evaluated %d of %d items — base ranking not lazy", si, evals, withCentroid.Len())
			}
		}
	}
}

func TestEngineCentroidRejectsMismatchedPositions(t *testing.T) {
	// Linear |i-j| cost with 2-D positions that do not generate it.
	pos := make([][]float64, 8)
	for i := range pos {
		pos[i] = []float64{float64(i) * 2, 0}
	}
	eng, err := NewEngine(LinearCost(8), Options{Positions: pos})
	if err != nil {
		t.Fatal(err)
	}
	eng.Add("", Histogram{1, 0, 0, 0, 0, 0, 0, 0})
	if _, _, err := eng.KNN(Histogram{1, 0, 0, 0, 0, 0, 0, 0}, 1); err == nil {
		t.Error("mismatched positions accepted")
	}
}

func TestFacadeSignatureAndPartial(t *testing.T) {
	a := Signature{Positions: [][]float64{{0, 0}}, Weights: []float64{1}}
	b := Signature{Positions: [][]float64{{3, 4}}, Weights: []float64{1}}
	d, err := SignatureEMD(a, b, 2)
	if err != nil || math.Abs(d-5) > 1e-12 {
		t.Errorf("SignatureEMD = %g, %v", d, err)
	}
	p, err := PartialEMD(Histogram{2, 0}, Histogram{0, 1}, LinearCost(2))
	if err != nil || math.Abs(p-1) > 1e-12 {
		t.Errorf("PartialEMD = %g, %v", p, err)
	}
	ph, err := PenalizedEMD(Histogram{2, 0}, Histogram{0, 1}, LinearCost(2), 0.5)
	if err != nil || math.Abs(ph-1.5) > 1e-12 {
		t.Errorf("PenalizedEMD = %g, %v", ph, err)
	}
}

func TestEngineAsymmetricQueryExactAndTighter(t *testing.T) {
	sym, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16}, 150)
	asym, _ := buildEngine(t, Options{ReducedDims: 8, SampleSize: 16, AsymmetricQuery: true}, 150)
	var symRefine, asymRefine int
	for _, q := range queries {
		got, aStats, err := asym.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, sStats, err := sym.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("result %d: asym %+v vs sym %+v", i, got[i], want[i])
			}
		}
		symRefine += sStats.Refinements
		asymRefine += aStats.Refinements
	}
	if asymRefine > symRefine {
		t.Errorf("asymmetric filter refined more (%d) than symmetric (%d)", asymRefine, symRefine)
	}
}
