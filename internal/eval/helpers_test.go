package eval

import (
	"context"
	"strings"
	"testing"

	"emdsearch/internal/data"
	"emdsearch/internal/emd"
	"emdsearch/internal/search"
)

func TestFillSweepRowsOrdersByDPrime(t *testing.T) {
	tab := &Table{Columns: append([]string{"d'"}, methodNames()...)}
	results := map[int]map[Method]float64{
		16: {MethodRandom: 3},
		4:  {MethodRandom: 1},
		8:  {MethodRandom: 2},
	}
	fillSweepRows(tab, results, nil)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Cell(0, 0) != "4" || tab.Cell(1, 0) != "8" || tab.Cell(2, 0) != "16" {
		t.Errorf("rows not ordered by d': %v", tab.Rows)
	}
}

func TestSweepWinnersMinAndMax(t *testing.T) {
	results := map[int]map[Method]float64{
		8:  {MethodRandom: 10, MethodKMed: 5, MethodFBAllKMed: 2},
		16: {MethodRandom: 9, MethodKMed: 4, MethodFBAllKMed: 1},
	}
	if note := sweepWinners(results, nil, false); !strings.Contains(note, string(MethodFBAllKMed)) {
		t.Errorf("min winner note: %q", note)
	}
	if note := sweepWinners(results, nil, true); !strings.Contains(note, string(MethodRandom)) {
		t.Errorf("max winner note: %q", note)
	}
}

func TestNewSearcherAllPipelines(t *testing.T) {
	ds, err := data.MusicSpectra(20, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	vectors := ds.Histograms()
	builder, err := NewBuilder(ds.Cost, vectors[:8], 1)
	if err != nil {
		t.Fatal(err)
	}
	red, _, err := builder.Build(MethodKMed, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range AllPipelines() {
		s, err := NewSearcher(p, vectors, ds.Cost, red)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out, err := s.KNN(context.Background(), search.KNNQuery{Q: vectors[0], K: 3})
		if err != nil {
			t.Fatalf("%s query: %v", p, err)
		}
		results := out.Results
		if len(results) != 3 || results[0].Index != 0 || results[0].Dist > 1e-9 {
			t.Fatalf("%s: self-query results %v", p, results)
		}
	}
}

func TestRunKNNDetectsRecallLoss(t *testing.T) {
	ds, err := data.MusicSpectra(20, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	vectors := ds.Histograms()
	s, err := NewSearcher(PipelineScan, vectors, ds.Cost, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []emd.Histogram{vectors[0]}
	ref, err := ExactKNN(vectors, ds.Cost, queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunKNN(s, queries, 3, ref)
	if err != nil {
		t.Fatal(err)
	}
	if run.Recall != 1 {
		t.Errorf("scan recall %g", run.Recall)
	}
	// Corrupt the reference: recall must drop below 1.
	ref[0][0].Index = 19
	ref[0][1].Index = 18
	run, err = RunKNN(s, queries, 3, ref)
	if err != nil {
		t.Fatal(err)
	}
	if run.Recall >= 1 {
		t.Errorf("corrupted reference still gives recall %g", run.Recall)
	}
}

func TestMediumAndFullConfigsValid(t *testing.T) {
	for _, c := range []Config{QuickConfig(), MediumConfig(), FullConfig()} {
		if c.RetinaN < 1 || c.Queries < 1 || c.K < 1 || c.SampleSize < 2 {
			t.Errorf("degenerate config: %+v", c)
		}
		if len(c.DPrimes) == 0 || c.ChainDPrime < 1 {
			t.Errorf("config without d' plan: %+v", c)
		}
	}
}
