package emdsearch

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// checkStageAccounting verifies the invariants tying the per-stage
// counters together: evaluations flow from stage to stage (what stage
// i did not prune, stage i+1 evaluated; what the last stage did not
// prune, the candidate loop pulled), StageEvaluations mirrors Stages,
// and FilterTime sums the stage durations.
func checkStageAccounting(t *testing.T, eng *Engine, stats *QueryStats, wantNames []string) {
	t.Helper()
	if len(stats.Stages) != len(wantNames) {
		t.Fatalf("got %d stages, want %d (%v)", len(stats.Stages), len(wantNames), wantNames)
	}
	for i, want := range wantNames {
		st := stats.Stages[i]
		if st.Name != want {
			t.Errorf("stage %d named %q, want %q", i, st.Name, want)
		}
		if st.Evaluations != stats.StageEvaluations[i] {
			t.Errorf("stage %d: Evaluations %d != StageEvaluations %d", i, st.Evaluations, stats.StageEvaluations[i])
		}
		if st.Pruned < 0 || st.Duration < 0 {
			t.Errorf("stage %d: negative counters %+v", i, st)
		}
		if st.Aborted < 0 || st.Aborted > st.Evaluations {
			t.Errorf("stage %d: %d aborted of %d evaluations", i, st.Aborted, st.Evaluations)
		}
		consumed := stats.Pulled
		if i+1 < len(stats.Stages) {
			consumed = stats.Stages[i+1].Evaluations
		}
		if st.Evaluations-st.Pruned != consumed {
			t.Errorf("stage %d: %d evaluations - %d pruned != %d consumed downstream",
				i, st.Evaluations, st.Pruned, consumed)
		}
	}
	// The first stage scans the whole database (no centroid pre-filter
	// in these tests) — unless an index-backed ranking replaced the
	// scan, whose whole point is evaluating fewer than n items.
	if !stats.IndexUsed && stats.Stages[0].Evaluations != eng.Len() {
		t.Errorf("first stage evaluated %d of %d items", stats.Stages[0].Evaluations, eng.Len())
	}
	if stats.IndexUsed && stats.IndexNodesVisited <= 0 {
		t.Errorf("IndexUsed with %d nodes visited", stats.IndexNodesVisited)
	}
	var sum int64
	for _, st := range stats.Stages {
		sum += int64(st.Duration)
	}
	if int64(stats.FilterTime) != sum {
		t.Errorf("FilterTime %v != sum of stage durations %v", stats.FilterTime, sum)
	}
	if stats.TotalTime <= 0 {
		t.Errorf("TotalTime %v, want > 0", stats.TotalTime)
	}
	if stats.Refinements > 0 && stats.RefineTime <= 0 {
		t.Errorf("RefineTime %v with %d refinements", stats.RefineTime, stats.Refinements)
	}
}

func TestQueryStatsStagesDefault(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, 100)
	_, stats, err := eng.KNN(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	checkStageAccounting(t, eng, stats, []string{"Q-Red-IM", "Red-IM", "Red-EMD"})
}

func TestQueryStatsStagesAsymmetric(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10, AsymmetricQuery: true}, 100)
	_, stats, err := eng.KNN(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	checkStageAccounting(t, eng, stats, []string{"Q-Red-IM", "Red-IM", "Asym-Red-EMD"})
}

func TestQueryStatsStagesHierarchy(t *testing.T) {
	eng, queries := buildEngine(t, Options{Hierarchy: []int{8, 2}, SampleSize: 10}, 100)
	_, stats, err := eng.KNN(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	checkStageAccounting(t, eng, stats, []string{"Q-Red-IM", "Red-IM", "Red-EMD-2", "Red-EMD-8"})
}

// TestEngineMetrics exercises the engine-level aggregation: query
// counts by kind, error counts, snapshot builds, stage totals, and
// that the snapshot is JSON-marshalable (the expvar contract).
func TestEngineMetrics(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 6, SampleSize: 10}, 60)
	q := queries[0]
	var refinements int
	for i := 0; i < 3; i++ {
		_, stats, err := eng.KNN(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		refinements += stats.Refinements
	}
	if _, _, err := eng.Range(q, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.KNN(Histogram{1}, 1); err == nil {
		t.Fatal("wrong-dimensional query accepted")
	}

	m := eng.Metrics()
	if m.KNNQueries != 3 {
		t.Errorf("KNNQueries = %d, want 3", m.KNNQueries)
	}
	if m.RangeQueries != 1 {
		t.Errorf("RangeQueries = %d, want 1", m.RangeQueries)
	}
	if m.RankQueries != 1 {
		t.Errorf("RankQueries = %d, want 1", m.RankQueries)
	}
	if m.QueryErrors != 1 {
		t.Errorf("QueryErrors = %d, want 1", m.QueryErrors)
	}
	if m.SnapshotBuilds != 1 {
		t.Errorf("SnapshotBuilds = %d, want 1 (no mutations between queries)", m.SnapshotBuilds)
	}
	if m.Refinements < int64(refinements) {
		t.Errorf("aggregate Refinements %d below the %d of the KNN queries alone", m.Refinements, refinements)
	}
	if len(m.Stages) == 0 {
		t.Error("no per-stage aggregates")
	}
	for name, st := range m.Stages {
		if st.Evaluations <= 0 {
			t.Errorf("stage %q: %d evaluations", name, st.Evaluations)
		}
	}
	if m.QueryTime <= 0 || m.RefineTime <= 0 {
		t.Errorf("timers not accumulated: query=%v refine=%v", m.QueryTime, m.RefineTime)
	}
	buf, err := json.Marshal(m)
	if err != nil {
		t.Errorf("Metrics not JSON-marshalable: %v", err)
	}
	// The retired warm-start key stays readable (always 0); the SSP
	// fallback counter is exported and, on ordinary data, still 0.
	for _, key := range []string{`"warm_start_hits":0`, `"ssp_fallbacks":0`} {
		if !strings.Contains(string(buf), key) {
			t.Errorf("Metrics JSON lacks %s: %s", key, buf)
		}
	}

	// A mutation invalidates the snapshot; the next query rebuilds it.
	if _, err := eng.Add("", q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.KNN(q, 1); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().SnapshotBuilds; got != 2 {
		t.Errorf("SnapshotBuilds after Add+query = %d, want 2", got)
	}
}

// TestEngineDistanceErrors is the regression test for the former
// panicking Distance: dimension mismatches and out-of-range indices
// must surface as errors, and the happy path must agree with the
// package-level EMD.
func TestEngineDistanceErrors(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 4, SampleSize: 8}, 30)
	q := queries[0]
	if _, err := eng.Distance(context.Background(), Histogram{0.5, 0.5}, 0); err == nil {
		t.Error("wrong-dimensional query accepted")
	}
	bad := make(Histogram, eng.Dim())
	bad[0] = 2
	if _, err := eng.Distance(context.Background(), bad, 0); err == nil {
		t.Error("unnormalized query accepted")
	}
	if _, err := eng.Distance(context.Background(), q, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := eng.Distance(context.Background(), q, eng.Len()); err == nil {
		t.Error("out-of-range index accepted")
	}
	got, err := eng.Distance(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EMD(q, eng.Vector(3), eng.cost)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Distance = %g, EMD = %g", got, want)
	}
}
