package eval

import (
	"strconv"
	"strings"
	"testing"

	"emdsearch/internal/data"
)

// tinyConfig keeps the unit tests fast; shapes are asserted in the
// larger benchmark harness.
func tinyConfig() Config {
	return Config{
		RetinaN:     80,
		IRMAN:       40,
		ColorN:      120,
		Queries:     3,
		K:           3,
		SampleSize:  8,
		DPrimes:     []int{4, 8},
		ChainDPrime: 8,
		CheckRecall: true,
		TightPairs:  15,
		Seed:        2,
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "y")
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "bb") || !strings.Contains(s, "2.5") {
		t.Errorf("rendered table missing content:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if tab.Rows[0][1] != "2.5" {
		t.Errorf("row 0 column 1 = %q", tab.Rows[0][1])
	}
}

func TestBuilderAllMethods(t *testing.T) {
	ds, err := data.MusicSpectra(30, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(ds.Cost, ds.Histograms()[:10], 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range AllMethods() {
		red, bs, err := b.Build(m, 6)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if red.ReducedDims() != 6 || red.OriginalDims() != 24 {
			t.Errorf("%s: dims %d->%d", m, red.OriginalDims(), red.ReducedDims())
		}
		switch m {
		case MethodFBModBase, MethodFBModKMed, MethodFBAllBase, MethodFBAllKMed:
			if bs.SampleEMDs != 45 {
				t.Errorf("%s: sample EMDs %d, want 45", m, bs.SampleEMDs)
			}
			if bs.Tightness <= 0 {
				t.Errorf("%s: tightness %g", m, bs.Tightness)
			}
		default:
			if bs.SampleEMDs != 0 {
				t.Errorf("%s: unexpected sample EMDs %d", m, bs.SampleEMDs)
			}
		}
	}
	if _, _, err := b.Build(Method("bogus"), 4); err == nil {
		t.Error("accepted unknown method")
	}
}

func TestBuilderFlowsNeedSample(t *testing.T) {
	ds, err := data.MusicSpectra(5, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(ds.Cost, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Build(MethodFBAllBase, 4); err == nil {
		t.Error("flow-based build without sample succeeded")
	}
	// Data-independent methods work without a sample.
	if _, _, err := b.Build(MethodKMed, 4); err != nil {
		t.Errorf("KMed without sample failed: %v", err)
	}
}

func TestNewSearcherValidation(t *testing.T) {
	ds, err := data.MusicSpectra(10, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSearcher(PipelineRedEMD, ds.Histograms(), ds.Cost, nil); err == nil {
		t.Error("Red-EMD pipeline without reduction succeeded")
	}
	if _, err := NewSearcher(Pipeline("bogus"), ds.Histograms(), ds.Cost, nil); err == nil {
		t.Error("unknown pipeline accepted")
	}
}

func TestTightnessRatioDetectsOverestimate(t *testing.T) {
	ds, err := data.MusicSpectra(10, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	vecs := ds.Histograms()
	bad := func(x, y []float64) float64 { return 1e9 }
	if _, err := TightnessRatio(bad, vecs, ds.Cost, 10); err == nil {
		t.Error("overestimating filter not rejected")
	}
	good := func(x, y []float64) float64 { return 0 }
	ratio, err := TightnessRatio(good, vecs, ds.Cost, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 0 {
		t.Errorf("zero filter ratio = %g", ratio)
	}
}

// experiment smoke tests: every driver runs at tiny scale with recall
// checking on; internal recall assertions fire on any completeness
// violation.
func TestExperimentsRunAtTinyScale(t *testing.T) {
	if raceEnabled {
		t.Skip("experiment sweep too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("experiments in -short mode")
	}
	c := tinyConfig()
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tab, err := exp.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if len(tab.Columns) < 2 {
				t.Fatalf("experiment has %d columns", len(tab.Columns))
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tab.Columns))
				}
			}
		})
	}
}

// TestFig20PCAWorse asserts the ablation's headline: PCA tightness is
// below the combining reduction's at every d'.
func TestFig20PCAWorse(t *testing.T) {
	if raceEnabled {
		t.Skip("experiment sweep too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("experiment in -short mode")
	}
	tab, err := Fig20(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		pcaTight, err1 := strconv.ParseFloat(tab.Rows[i][1], 64)
		fbTight, err2 := strconv.ParseFloat(tab.Rows[i][2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %d unparsable: %v", i, tab.Rows[i])
		}
		if pcaTight >= fbTight {
			t.Errorf("row %d: PCA tightness %g >= FB %g", i, pcaTight, fbTight)
		}
	}
}

// TestFig21AsymTighter asserts that the asymmetric reduction is at
// least as tight as the symmetric one at every d'.
func TestFig21AsymTighter(t *testing.T) {
	if raceEnabled {
		t.Skip("experiment sweep too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("experiment in -short mode")
	}
	tab, err := Fig21(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		sym, err1 := strconv.ParseFloat(tab.Rows[i][1], 64)
		asym, err2 := strconv.ParseFloat(tab.Rows[i][2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %d unparsable: %v", i, tab.Rows[i])
		}
		if asym < sym-1e-9 {
			t.Errorf("row %d: asymmetric tightness %g below symmetric %g", i, asym, sym)
		}
	}
}
