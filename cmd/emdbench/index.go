package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"emdsearch"
	"emdsearch/internal/data"
)

// indexConfig sizes the metric-index benchmark.
type indexConfig struct {
	scales  []int // corpus sizes, ascending
	d       int
	modes   int
	queries int
	ks      []int
	seed    int64
	out     string // JSON report path ("" = stdout only)
}

// indexRun is one measured (engine kind, corpus size, k) cell.
type indexRun struct {
	Kind string `json:"kind"` // scan | vptree
	N    int    `json:"n"`
	K    int    `json:"k"`

	// BuildMS is the one-off snapshot-build cost paid at the first
	// query — for the VP-tree that includes constructing the tree.
	BuildMS float64 `json:"build_ms"`
	QueryNS int64   `json:"query_ns"` // summed end-to-end KNN wall time
	QPS     float64 `json:"queries_per_sec"`

	// NodesPerQuery is the mean index nodes expanded per query (0 for
	// the scan baseline); NodesFrac divides by n — sublinear candidate
	// generation shows as this fraction falling while n grows.
	NodesPerQuery float64 `json:"nodes_per_query"`
	NodesFrac     float64 `json:"nodes_frac"`

	SpeedupVsScan    float64 `json:"speedup_vs_scan"`
	ResultsIdentical bool    `json:"results_identical"`
}

// indexReport is the machine-readable result of -exp index, written to
// -out as JSON (the CI benchmark smoke job archives it as
// BENCH_index.json).
type indexReport struct {
	D       int        `json:"d"`
	DPrime  int        `json:"dprime"`
	Modes   int        `json:"modes"`
	Queries int        `json:"queries"`
	Scales  []int      `json:"scales"`
	Ks      []int      `json:"ks"`
	Seed    int64      `json:"seed"`
	Runs    []indexRun `json:"runs"`

	// BestSpeedup is the largest end-to-end index speedup at the
	// largest scale and default k; the acceptance target is
	// SpeedupTarget.
	BestSpeedup   float64 `json:"best_speedup"`
	SpeedupTarget float64 `json:"speedup_target"`

	// SublinearNodes reports whether, at the default k, the VP-tree's
	// nodes expanded per query grew strictly slower than the corpus
	// between the smallest and largest scale.
	SublinearNodes   bool `json:"sublinear_nodes"`
	ResultsIdentical bool `json:"results_identical"`
}

// indexSpeedupTarget is the acceptance bar for index-backed k-NN over
// the full scan pipeline at the largest benchmarked scale.
const indexSpeedupTarget = 3.0

// indexDefaultK is the k the headline speedup and sublinearity checks
// are evaluated at.
const indexDefaultK = 10

// runIndex benchmarks the metric-index candidate generator end to end:
// the default scan pipeline versus the VP-tree first stage over the
// same corpora, across corpus sizes and k. Answers must stay
// bit-identical to the scan baseline — the index is a candidate
// *generator*, never an approximation — so any divergence fails the
// run. The sublinearity signal is nodes expanded per query growing
// slower than n.
func runIndex(cfg indexConfig) error {
	maxN := cfg.scales[len(cfg.scales)-1]
	ds, err := data.GaussianMixtures(maxN+cfg.queries, cfg.d, cfg.modes, cfg.seed)
	if err != nil {
		return err
	}
	vecs, queries, err := ds.Split(cfg.queries)
	if err != nil {
		return err
	}
	// d' = d/2: the tight reduction. The index pays Red-EMD per visited
	// entry, so it profits from a bound that prunes hard; the scan's
	// cheap quantized pre-stage cannot exploit tightness the same way.
	dprime := cfg.d / 2
	if dprime < 2 {
		dprime = 2
	}

	build := func(n int, kind string) (*emdsearch.Engine, float64, error) {
		opts := emdsearch.Options{
			ReducedDims: dprime,
			SampleSize:  24,
			Seed:        cfg.seed,
			IndexKind:   kind,
		}
		eng, err := emdsearch.NewEngine(ds.Cost, opts)
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < n; i++ {
			if _, err := eng.Add(ds.Items[i].Label, vecs[i]); err != nil {
				return nil, 0, err
			}
		}
		if err := eng.Build(); err != nil {
			return nil, 0, err
		}
		// The snapshot (and, for the VP-tree, the tree) is built lazily
		// at the first query — time it as the build cost.
		start := time.Now()
		if _, _, err := eng.KNN(queries[0], indexDefaultK); err != nil {
			return nil, 0, err
		}
		return eng, float64(time.Since(start)) / float64(time.Millisecond), nil
	}

	run := func(eng *emdsearch.Engine, k int, wantIndex bool) ([][]emdsearch.Result, *indexRun, error) {
		results := make([][]emdsearch.Result, 0, cfg.queries)
		var nodes int64
		start := time.Now()
		for _, q := range queries {
			res, stats, err := eng.KNN(q, k)
			if err != nil {
				return nil, nil, err
			}
			if stats.IndexUsed != wantIndex {
				return nil, nil, fmt.Errorf("IndexUsed = %v, want %v", stats.IndexUsed, wantIndex)
			}
			nodes += int64(stats.IndexNodesVisited)
			results = append(results, res)
		}
		elapsed := time.Since(start)
		r := &indexRun{
			K:             k,
			QueryNS:       int64(elapsed),
			QPS:           float64(len(queries)) / elapsed.Seconds(),
			NodesPerQuery: float64(nodes) / float64(len(queries)),
		}
		return results, r, nil
	}

	fmt.Printf("index: d=%d d'=%d modes=%d queries=%d scales=%v ks=%v seed=%d\n",
		cfg.d, dprime, cfg.modes, cfg.queries, cfg.scales, cfg.ks, cfg.seed)

	rep := indexReport{
		D: cfg.d, DPrime: dprime, Modes: cfg.modes,
		Queries: cfg.queries, Scales: cfg.scales, Ks: cfg.ks, Seed: cfg.seed,
		SpeedupTarget:    indexSpeedupTarget,
		SublinearNodes:   true,
		ResultsIdentical: true,
	}
	// nodesAt[n] at the default k, for the sublinearity check.
	nodesAt := map[int]float64{}

	for _, n := range cfg.scales {
		scanEng, scanBuild, err := build(n, emdsearch.IndexOff)
		if err != nil {
			return fmt.Errorf("scan build n=%d: %w", n, err)
		}
		type variant struct {
			name string
			eng  *emdsearch.Engine
			ms   float64
		}
		vpEng, vpBuild, err := build(n, emdsearch.IndexVPTree)
		if err != nil {
			return fmt.Errorf("vptree build n=%d: %w", n, err)
		}
		variants := []variant{{"scan", scanEng, scanBuild}, {emdsearch.IndexVPTree, vpEng, vpBuild}}
		for _, k := range cfg.ks {
			var scanRes [][]emdsearch.Result
			var scanNS int64
			for _, v := range variants {
				out, r, err := run(v.eng, k, v.name != "scan")
				if err != nil {
					return fmt.Errorf("%s run n=%d k=%d: %w", v.name, n, k, err)
				}
				r.Kind, r.N, r.BuildMS = v.name, n, v.ms
				r.ResultsIdentical = true
				if v.name == "scan" {
					scanRes, scanNS = out, r.QueryNS
				} else {
					r.SpeedupVsScan = float64(scanNS) / float64(r.QueryNS)
					r.NodesFrac = r.NodesPerQuery / float64(n)
					r.ResultsIdentical = sameResults(scanRes, out)
					if !r.ResultsIdentical {
						rep.ResultsIdentical = false
					}
					if k == indexDefaultK {
						nodesAt[n] = r.NodesPerQuery
						if n == maxN && r.ResultsIdentical && r.SpeedupVsScan > rep.BestSpeedup {
							rep.BestSpeedup = r.SpeedupVsScan
						}
					}
				}
				rep.Runs = append(rep.Runs, *r)
				fmt.Printf("%-8s n=%-7d k=%-3d build=%8.1fms  %9.1f q/s  nodes/q=%9.1f (%5.3f of n)  %6.2fx  identical=%v\n",
					r.Kind, n, k, r.BuildMS, r.QPS, r.NodesPerQuery, r.NodesFrac, r.SpeedupVsScan, r.ResultsIdentical)
			}
		}
	}

	// Sublinearity: nodes/query must grow strictly slower than the
	// corpus between the smallest and largest scale.
	if len(cfg.scales) >= 2 {
		minN := cfg.scales[0]
		growth := float64(maxN) / float64(minN)
		if lo, hi := nodesAt[minN], nodesAt[maxN]; lo > 0 && hi > 0 {
			ratio := hi / lo
			rep.SublinearNodes = ratio < growth
			fmt.Printf("vptree   nodes grew %.2fx while n grew %.2fx — sublinear=%v\n", ratio, growth, rep.SublinearNodes)
		}
	}

	fmt.Printf("results identical: %v  best index speedup at n=%d k=%d: %.2fx (target %.1fx)\n",
		rep.ResultsIdentical, maxN, indexDefaultK, rep.BestSpeedup, rep.SpeedupTarget)

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
		return fmt.Errorf("the VP-tree diverged from the scan baseline")
	}
	return nil
}
