package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"emdsearch"
	"emdsearch/internal/data"
)

// cascadeConfig sizes the cascade-planner benchmark.
type cascadeConfig struct {
	scales  []int // corpus sizes, ascending
	d       int
	modes   int
	queries int
	k       int
	seed    int64
	out     string // JSON report path ("" = stdout only)
}

// cascadeRun is one measured (engine mode, corpus size) cell.
type cascadeRun struct {
	Mode string `json:"mode"` // fixed | auto
	N    int    `json:"n"`
	Plan []int  `json:"plan"` // active chain d' levels, coarse -> fine

	QueryNS int64   `json:"query_ns"` // summed end-to-end KNN wall time
	QPS     float64 `json:"queries_per_sec"`

	// RefinementsPerQuery is the mean number of exact EMD solves per
	// query — the quantity the planner exists to shrink.
	RefinementsPerQuery float64 `json:"refinements_per_query"`

	SpeedupVsFixed   float64 `json:"speedup_vs_fixed"`
	ResultsIdentical bool    `json:"results_identical"`
}

// cascadeReport is the machine-readable result of -exp cascade,
// written to -out as JSON (the CI benchmark smoke job archives it as
// BENCH_cascade.json).
type cascadeReport struct {
	D       int   `json:"d"`
	DPrime  int   `json:"dprime"`
	Modes   int   `json:"modes"`
	Queries int   `json:"queries"`
	K       int   `json:"k"`
	Scales  []int `json:"scales"`
	Seed    int64 `json:"seed"`

	Runs []cascadeRun `json:"runs"`

	// RefinementsReduced reports whether, at the largest scale, the
	// auto-planned chain performed fewer exact refinements per query
	// than the fixed 2-level chain — the acceptance signal.
	RefinementsReduced bool `json:"refinements_reduced"`
	// Speedup is the end-to-end auto-vs-fixed speedup at the largest
	// scale.
	Speedup          float64 `json:"speedup"`
	ResultsIdentical bool    `json:"results_identical"`
}

// runCascade benchmarks the auto-tuning cascade planner end to end: a
// fixed 2-level chain (the configured d' over a coarse d'=2 pre-level)
// versus an AutoCascade engine that observes one pass of the workload
// and re-plans its own pyramid. Answers must stay bit-identical across
// plans — the cascade is a chain of certified lower bounds, never an
// approximation — so any divergence fails the run. The headline signal
// is exact refinements per query falling under the planned chain.
func runCascade(cfg cascadeConfig) error {
	maxN := cfg.scales[len(cfg.scales)-1]
	ds, err := data.GaussianMixtures(maxN+cfg.queries, cfg.d, cfg.modes, cfg.seed)
	if err != nil {
		return err
	}
	vecs, queries, err := ds.Split(cfg.queries)
	if err != nil {
		return err
	}
	// d' = d/4: a deliberately loose finest level. The fixed chain is
	// stuck refining every histogram this bound cannot prune; the
	// planner is free to grow a finer finest level when the model says
	// the extra filter work pays for itself in saved refinements.
	dprime := cfg.d / 4
	if dprime < 2 {
		dprime = 2
	}

	build := func(n int, auto bool) (*emdsearch.Engine, error) {
		opts := emdsearch.Options{
			SampleSize: 24,
			Seed:       cfg.seed,
			IndexKind:  emdsearch.IndexOff,
		}
		if auto {
			opts.ReducedDims = dprime
			opts.AutoCascade = true
		} else {
			opts.Hierarchy = []int{dprime, 2}
		}
		eng, err := emdsearch.NewEngine(ds.Cost, opts)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if _, err := eng.Add(ds.Items[i].Label, vecs[i]); err != nil {
				return nil, err
			}
		}
		if err := eng.Build(); err != nil {
			return nil, err
		}
		return eng, nil
	}

	measure := func(eng *emdsearch.Engine, mode string, n int) ([][]emdsearch.Result, *cascadeRun, error) {
		before := eng.Metrics()
		results := make([][]emdsearch.Result, 0, len(queries))
		start := time.Now()
		for _, q := range queries {
			res, _, err := eng.KNN(q, cfg.k)
			if err != nil {
				return nil, nil, err
			}
			results = append(results, res)
		}
		elapsed := time.Since(start)
		after := eng.Metrics()
		r := &cascadeRun{
			Mode:                mode,
			N:                   n,
			QueryNS:             int64(elapsed),
			QPS:                 float64(len(queries)) / elapsed.Seconds(),
			RefinementsPerQuery: float64(after.Refinements-before.Refinements) / float64(len(queries)),
		}
		return results, r, nil
	}

	fmt.Printf("cascade: d=%d d'=%d modes=%d queries=%d k=%d scales=%v seed=%d\n",
		cfg.d, dprime, cfg.modes, cfg.queries, cfg.k, cfg.scales, cfg.seed)

	rep := cascadeReport{
		D: cfg.d, DPrime: dprime, Modes: cfg.modes,
		Queries: cfg.queries, K: cfg.k, Scales: cfg.scales, Seed: cfg.seed,
		ResultsIdentical: true,
	}

	for _, n := range cfg.scales {
		fixedEng, err := build(n, false)
		if err != nil {
			return fmt.Errorf("fixed build n=%d: %w", n, err)
		}
		fixedRes, fixedRun, err := measure(fixedEng, "fixed", n)
		if err != nil {
			return fmt.Errorf("fixed run n=%d: %w", n, err)
		}
		fixedRun.Plan = []int{2, dprime}
		fixedRun.ResultsIdentical = true
		rep.Runs = append(rep.Runs, *fixedRun)
		fmt.Printf("%-6s n=%-7d plan=%-12v %9.1f q/s  refines/q=%8.1f\n",
			fixedRun.Mode, n, fixedRun.Plan, fixedRun.QPS, fixedRun.RefinementsPerQuery)

		autoEng, err := build(n, true)
		if err != nil {
			return fmt.Errorf("auto build n=%d: %w", n, err)
		}
		// One observation pass over the real workload feeds the cost
		// model; the forced Replan then adopts the cheapest chain the
		// fitted model can find (a no-op if the single level already is).
		for _, q := range queries {
			if _, _, err := autoEng.KNN(q, cfg.k); err != nil {
				return fmt.Errorf("auto warmup n=%d: %w", n, err)
			}
		}
		if _, err := autoEng.Replan(); err != nil {
			return fmt.Errorf("auto replan n=%d: %w", n, err)
		}
		autoRes, autoRun, err := measure(autoEng, "auto", n)
		if err != nil {
			return fmt.Errorf("auto run n=%d: %w", n, err)
		}
		autoRun.Plan = autoEng.Metrics().CascadePlan
		autoRun.SpeedupVsFixed = float64(fixedRun.QueryNS) / float64(autoRun.QueryNS)
		autoRun.ResultsIdentical = sameResults(fixedRes, autoRes)
		if !autoRun.ResultsIdentical {
			rep.ResultsIdentical = false
		}
		if n == maxN {
			rep.Speedup = autoRun.SpeedupVsFixed
			rep.RefinementsReduced = autoRun.ResultsIdentical &&
				autoRun.RefinementsPerQuery < fixedRun.RefinementsPerQuery
		}
		rep.Runs = append(rep.Runs, *autoRun)
		fmt.Printf("%-6s n=%-7d plan=%-12v %9.1f q/s  refines/q=%8.1f  %6.2fx  identical=%v\n",
			autoRun.Mode, n, autoRun.Plan, autoRun.QPS, autoRun.RefinementsPerQuery,
			autoRun.SpeedupVsFixed, autoRun.ResultsIdentical)
	}

	fmt.Printf("results identical: %v  refinements reduced at n=%d: %v  speedup: %.2fx\n",
		rep.ResultsIdentical, maxN, rep.RefinementsReduced, rep.Speedup)

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
	if !rep.ResultsIdentical {
		return fmt.Errorf("the auto-planned chain diverged from the fixed chain")
	}
	return nil
}
