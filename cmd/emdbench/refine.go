package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"emdsearch"
	"emdsearch/internal/data"
)

// refineConfig sizes the refinement-kernel benchmark.
type refineConfig struct {
	n, d, queries int
	k             int
	seed          int64
	out           string // JSON report path ("" = stdout only)
}

// refineReport is the machine-readable result of -exp refine, written
// to -out as JSON (the CI benchmark smoke job archives it as
// BENCH_refine.json).
type refineReport struct {
	N       int   `json:"n"`
	D       int   `json:"d"`
	DPrime  int   `json:"dprime"`
	Queries int   `json:"queries"`
	K       int   `json:"k"`
	Seed    int64 `json:"seed"`

	UnboundedNS int64   `json:"unbounded_ns"`
	BoundedNS   int64   `json:"bounded_ns"`
	Speedup     float64 `json:"speedup"`

	ResultsIdentical bool `json:"results_identical"`

	Refinements    int64 `json:"refinements"`
	RefinesAborted int64 `json:"refines_aborted"`
	// RedEMDEvals counts the Red-EMD filter stage's evaluations and
	// RedEMDAborted those of them a certified bound answered.
	RedEMDEvals   int64   `json:"red_emd_evals"`
	RedEMDAborted int64   `json:"red_emd_aborted"`
	AvgRefineRows float64 `json:"avg_refine_rows"`
	AvgRefineCols float64 `json:"avg_refine_cols"`
}

// runRefine benchmarks the threshold-aware pipeline (bounded refinement
// and bounded Red-EMD filter solves) against the threshold-oblivious one
// on the same engine configuration as BenchmarkRefineEngineKNN: it
// builds two engines that differ only in Options.UnboundedRefine, serves
// the identical k-NN workload on each, checks the answers are
// bit-identical, and reports wall times, the speedup and the bounded
// kernel's refinement and filter counters.
func runRefine(cfg refineConfig) error {
	ds, err := data.MusicSpectra(cfg.n+16, cfg.d, cfg.seed)
	if err != nil {
		return err
	}
	vecs, queries, err := ds.Split(16)
	if err != nil {
		return err
	}
	if cfg.queries < len(queries) {
		queries = queries[:cfg.queries]
	}
	dprime := cfg.d / 4
	if dprime < 2 {
		dprime = 2
	}

	build := func(unbounded bool) (*emdsearch.Engine, error) {
		eng, err := emdsearch.NewEngine(ds.Cost, emdsearch.Options{
			ReducedDims:     dprime,
			SampleSize:      24,
			Seed:            cfg.seed,
			UnboundedRefine: unbounded,
		})
		if err != nil {
			return nil, err
		}
		for i, h := range vecs {
			if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
				return nil, err
			}
		}
		if err := eng.Build(); err != nil {
			return nil, err
		}
		return eng, nil
	}

	run := func(eng *emdsearch.Engine) ([][]emdsearch.Result, time.Duration, error) {
		results := make([][]emdsearch.Result, 0, cfg.queries)
		start := time.Now()
		for qi := 0; qi < cfg.queries; qi++ {
			res, _, err := eng.KNN(queries[qi%len(queries)], cfg.k)
			if err != nil {
				return nil, 0, err
			}
			results = append(results, res)
		}
		return results, time.Since(start), nil
	}

	fmt.Printf("refine: n=%d d=%d d'=%d queries=%d k=%d seed=%d\n",
		len(vecs), cfg.d, dprime, cfg.queries, cfg.k, cfg.seed)

	unboundedEng, err := build(true)
	if err != nil {
		return err
	}
	unboundedRes, unboundedDur, err := run(unboundedEng)
	if err != nil {
		return fmt.Errorf("unbounded run: %w", err)
	}
	boundedEng, err := build(false)
	if err != nil {
		return err
	}
	boundedRes, boundedDur, err := run(boundedEng)
	if err != nil {
		return fmt.Errorf("bounded run: %w", err)
	}

	identical := sameResults(unboundedRes, boundedRes)
	m := boundedEng.Metrics()
	rep := refineReport{
		N:       len(vecs),
		D:       cfg.d,
		DPrime:  dprime,
		Queries: cfg.queries,
		K:       cfg.k,
		Seed:    cfg.seed,

		UnboundedNS: int64(unboundedDur),
		BoundedNS:   int64(boundedDur),
		Speedup:     float64(unboundedDur) / float64(boundedDur),

		ResultsIdentical: identical,

		Refinements:    m.Refinements,
		RefinesAborted: m.RefinesAborted,
		RedEMDEvals:    m.Stages["Red-EMD"].Evaluations,
		RedEMDAborted:  m.Stages["Red-EMD"].Aborted,
	}
	if m.Refinements > 0 {
		rep.AvgRefineRows = float64(m.RefineRows) / float64(m.Refinements)
		rep.AvgRefineCols = float64(m.RefineCols) / float64(m.Refinements)
	}

	fmt.Printf("unbounded: %v  bounded: %v  speedup: %.2fx\n",
		unboundedDur.Round(time.Millisecond), boundedDur.Round(time.Millisecond), rep.Speedup)
	fmt.Printf("results identical: %v\n", identical)
	fmt.Printf("bounded metrics: refinements=%d aborted=%d avg_shape=%.1fx%.1f red_emd_evals=%d red_emd_aborted=%d\n",
		rep.Refinements, rep.RefinesAborted, rep.AvgRefineRows, rep.AvgRefineCols, rep.RedEMDEvals, rep.RedEMDAborted)

	if cfg.out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(cfg.out, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.out)
	}
	if !identical {
		return fmt.Errorf("bounded and unbounded kernels disagree")
	}
	return nil
}

// sameResults reports whether two per-query result sets agree exactly:
// same indices in the same order and bit-identical distances.
func sameResults(a, b [][]emdsearch.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for qi := range a {
		if len(a[qi]) != len(b[qi]) {
			return false
		}
		for i := range a[qi] {
			x, y := a[qi][i], b[qi][i]
			if x.Index != y.Index ||
				math.Float64bits(x.Dist) != math.Float64bits(y.Dist) {
				return false
			}
		}
	}
	return true
}
