// Command emdbench regenerates the paper's evaluation (see DESIGN.md
// section 5 for the experiment index). It runs one or all experiments
// at full or quick scale and prints each result as an aligned ASCII
// table (or CSV).
//
// Usage:
//
//	emdbench [-exp all|fig13..fig25|tab1..tab3|serve|index|cascade|shard] [-scale full|medium|quick] [-csv] [-seed N]
//	         [-dprime D] [-workers N] [-concurrency N] [-timeout D] [-wal FILE] [-out FILE]
//
// The full scale approximates the paper's corpus sizes and can take
// tens of minutes for the complete suite; quick finishes in a couple
// of minutes.
//
// -exp serve runs the concurrent-serving benchmark instead of a paper
// experiment: concurrent client goroutines (-concurrency) fire k-NN
// queries, each refined by a per-query worker pool (-workers), while a
// background writer keeps mutating the index. It reports throughput,
// tail latency (p50/p95/p99) and the engine's aggregated Metrics. With
// -timeout every query gets a deadline through KNNCtx: queries that
// miss it return certified anytime answers instead of stretching the
// tail, and the report counts how many degraded.
//
// -exp index benchmarks the metric-index candidate generator: the
// default scan pipeline versus the VP-tree first stage over the same
// corpora, across corpus sizes and k. It verifies the
// answers stay bit-identical to the scan baseline, checks nodes
// expanded per query grow sublinearly in n, and (with -out) writes a
// JSON report with the end-to-end speedups.
//
// -exp cascade benchmarks the auto-tuning cascade planner: a fixed
// 2-level reduction chain versus an AutoCascade engine that observes
// the workload and re-plans its own stepwise-d' pyramid. It verifies
// the answers stay bit-identical across plans, reports exact
// refinements per query and the end-to-end speedup, and (with -out)
// writes a JSON report.
//
// -exp shard benchmarks fault-tolerant scatter-gather serving: one
// fixed corpus queried through ShardSets of increasing width, every
// healthy answer verified bit-identical to the single-engine
// reference, then re-queried with one shard hard-failing to measure
// certified partial answers. With -out it writes a JSON report.
//
// -wal gives the serve benchmark a write-ahead log: the background
// writer's Adds then pay a durable (fsynced) log append each, the way
// a crash-safe ingest would. If the log latches broken mid-run the
// writer heals it with Engine.ReopenWALRetry (jittered capped
// exponential backoff) instead of dying.
//
// -gate routes serve-mode queries through an admission Gate
// (bounded concurrency, bounded deadline-aware wait queue, load
// shedding, panic breaker); -maxconcurrent and -maxqueue size it.
//
// -overload replaces the closed-loop benchmark with an open-loop
// overload sweep: after calibrating the uncontended service time it
// offers 1x, 2x, 5x and 10x the estimated capacity and reports, per
// level, the outcome split (ok / certified-degraded / shed / internal
// fault), goodput, admitted p50/p99 and shed p99. -chaos P injects a
// solver panic with probability P per refinement (and a slow solve
// with probability 2P), proving panic containment and the breaker
// under load. With -out the sweep writes a JSON report.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"emdsearch/internal/eval"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiment id (fig13..fig25, tab1..tab3) or 'all'")
		scaleFlag = flag.String("scale", "quick", "experiment scale: full, medium or quick")
		csvFlag   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		seedFlag  = flag.Int64("seed", 0, "override the experiment seed (0 keeps the default)")
		dprime    = flag.Int("dprime", 0, "override the chain d' used by the pipeline experiments (0 keeps the scale default)")
		recall    = flag.Bool("check-recall", false, "verify every pipeline result against an exhaustive scan (slow)")
		workers   = flag.Int("workers", 1, "serve mode: refinement workers per query (negative = GOMAXPROCS)")
		conc      = flag.Int("concurrency", 4, "serve mode: concurrent query clients")
		timeout   = flag.Duration("timeout", 0, "serve mode: per-query deadline, e.g. 500us or 2ms (0 = no deadline)")
		walFlag   = flag.String("wal", "", "serve mode: write-ahead-log path; background ingest pays a fsynced append per Add")
		outFlag   = flag.String("out", "", "serve/index/cascade/shard mode: write the JSON report to this path")
		gateFlag  = flag.Bool("gate", false, "serve mode: route queries through an admission Gate (limiter + breaker)")
		overload  = flag.Bool("overload", false, "serve mode: run the open-loop overload sweep (1x/2x/5x/10x capacity) instead of the closed-loop benchmark")
		chaos     = flag.Float64("chaos", 0, "serve mode: per-refinement probability of an injected solver panic (and 2x of a slow solve)")
		maxConc   = flag.Int("maxconcurrent", 0, "serve mode: gate concurrency limit (0 = GOMAXPROCS)")
		maxQueue  = flag.Int("maxqueue", 0, "serve mode: gate wait-queue bound (0 = 2x maxconcurrent)")
	)
	flag.Parse()

	if *expFlag == "shard" {
		sc := shardConfig{n: 300, d: 32, queries: 20, k: 10, shards: []int{1, 2, 4}, seed: *seedFlag, out: *outFlag}
		if sc.seed == 0 {
			sc.seed = 42
		}
		switch *scaleFlag {
		case "full":
			sc.n, sc.d, sc.shards = 2000, 64, []int{1, 2, 4, 8}
		case "medium":
			sc.n, sc.d = 800, 48
		case "quick":
		default:
			fmt.Fprintf(os.Stderr, "emdbench: unknown scale %q (want full, medium or quick)\n", *scaleFlag)
			os.Exit(2)
		}
		if err := runShard(sc); err != nil {
			fmt.Fprintf(os.Stderr, "emdbench: shard: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *expFlag == "index" {
		// Two smooth mixture modes keep the intrinsic dimensionality low
		// — the regime a metric index is for. High-intrinsic-dim corpora
		// stay on the scan path (that is what IndexAuto checks).
		ic := indexConfig{
			scales: []int{2000, 10000}, d: 32, modes: 2,
			queries: 20, ks: []int{1, 10},
			seed: *seedFlag, out: *outFlag,
		}
		switch *scaleFlag {
		case "full":
			ic.scales = []int{10000, 100000}
			ic.queries = 40
		case "medium":
			ic.scales = []int{5000, 20000}
			ic.queries = 30
		case "quick":
		default:
			fmt.Fprintf(os.Stderr, "emdbench: unknown scale %q (want full, medium or quick)\n", *scaleFlag)
			os.Exit(2)
		}
		if err := runIndex(ic); err != nil {
			fmt.Fprintf(os.Stderr, "emdbench: index: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *expFlag == "cascade" {
		// A deliberately loose default d' (d/4) gives the planner head
		// room: the fixed 2-level chain over-refines, the auto planner
		// may grow a finer finest level to prune harder.
		cc := cascadeConfig{
			scales: []int{2000, 10000}, d: 64, modes: 4,
			queries: 20, k: 10,
			seed: *seedFlag, out: *outFlag,
		}
		switch *scaleFlag {
		case "full":
			cc.scales = []int{10000, 100000}
			cc.queries = 40
		case "medium":
			cc.scales = []int{5000, 20000}
			cc.queries = 30
		case "quick":
		default:
			fmt.Fprintf(os.Stderr, "emdbench: unknown scale %q (want full, medium or quick)\n", *scaleFlag)
			os.Exit(2)
		}
		if err := runCascade(cc); err != nil {
			fmt.Fprintf(os.Stderr, "emdbench: cascade: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *expFlag == "serve" {
		if *conc < 1 {
			fmt.Fprintf(os.Stderr, "emdbench: -concurrency must be at least 1 (got %d)\n", *conc)
			os.Exit(2)
		}
		sc := serveConfig{
			n: 300, d: 32, queries: 200,
			workers: *workers, concurrency: *conc, seed: *seedFlag,
			timeout: *timeout, wal: *walFlag,
			gate: *gateFlag, overload: *overload, chaos: *chaos,
			maxConcurrent: *maxConc, maxQueue: *maxQueue, out: *outFlag,
		}
		switch *scaleFlag {
		case "full":
			sc.n, sc.d, sc.queries = 2000, 96, 1000
		case "medium":
			sc.n, sc.d, sc.queries = 800, 64, 400
		case "quick":
		default:
			fmt.Fprintf(os.Stderr, "emdbench: unknown scale %q (want full, medium or quick)\n", *scaleFlag)
			os.Exit(2)
		}
		run := runServe
		if sc.overload {
			run = runOverload
		}
		if err := run(sc); err != nil {
			fmt.Fprintf(os.Stderr, "emdbench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var cfg eval.Config
	switch *scaleFlag {
	case "full":
		cfg = eval.FullConfig()
	case "medium":
		cfg = eval.MediumConfig()
	case "quick":
		cfg = eval.QuickConfig()
	default:
		fmt.Fprintf(os.Stderr, "emdbench: unknown scale %q (want full, medium or quick)\n", *scaleFlag)
		os.Exit(2)
	}
	if *seedFlag != 0 {
		cfg.Seed = *seedFlag
	}
	if *dprime != 0 {
		cfg.ChainDPrime = *dprime
	}
	if *recall {
		cfg.CheckRecall = true
	}

	ran := 0
	for _, exp := range eval.Experiments() {
		if *expFlag != "all" && exp.ID != *expFlag {
			continue
		}
		ran++
		start := time.Now()
		table, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "emdbench: %s: %v\n", exp.ID, err)
			os.Exit(1)
		}
		if *csvFlag {
			fmt.Printf("# %s\n%s\n", table.Title, table.CSV())
		} else {
			fmt.Println(table.String())
		}
		fmt.Printf("(%s finished in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "emdbench: unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
}
