package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"emdsearch"
	"emdsearch/internal/data"
)

// shardConfig sizes the scatter-gather serving benchmark.
type shardConfig struct {
	n, d    int
	queries int
	k       int
	shards  []int
	seed    int64
	out     string // JSON report path ("" = stdout only)
}

// shardRun is one shard-count's measurement inside -exp shard.
type shardRun struct {
	Shards int `json:"shards"`
	// Healthy-path serving: every query's answer verified bit-identical
	// to the single merged engine before any number is reported.
	HealthyQPS    float64 `json:"healthy_qps"`
	HealthyP95NS  int64   `json:"healthy_p95_ns"`
	Refinements   int     `json:"refinements"`
	IdentityCheck bool    `json:"identity_check"`
	// Chaos leg: shard 0 fails every dispatch; answers must degrade
	// with exact coverage instead of failing.
	ChaosQPS      float64 `json:"chaos_qps"`
	ChaosDegraded int     `json:"chaos_degraded"`
	// Replicated leg: one follower per shard, shard 0's primary dead.
	// Failover serves the full answer — verified bit-identical to the
	// single engine (hard assertion) with zero uncovered items.
	FailoverQPS     float64 `json:"failover_qps"`
	FailoverServes  int64   `json:"failover_serves"`
	ReplicaIdentity bool    `json:"replica_identity"`
}

// shardReport is the machine-readable result of -exp shard, written
// to -out as JSON (the CI benchmark smoke job archives it as
// BENCH_shard.json).
type shardReport struct {
	N       int        `json:"n"`
	D       int        `json:"d"`
	Queries int        `json:"queries"`
	K       int        `json:"k"`
	Seed    int64      `json:"seed"`
	Runs    []shardRun `json:"runs"`
}

// runShard benchmarks fault-tolerant scatter-gather serving: one fixed
// corpus queried through shard sets of increasing width, with every
// healthy answer verified bit-identical to the single-engine reference
// (results and ordering), then re-queried with one shard failing to
// measure the cost and coverage of certified partial answers.
func runShard(cfg shardConfig) error {
	ds, err := data.MusicSpectra(cfg.n+cfg.queries, cfg.d, cfg.seed)
	if err != nil {
		return err
	}
	vecs, queries, err := ds.Split(cfg.queries)
	if err != nil {
		return err
	}
	dprime := cfg.d / 4
	if dprime < 2 {
		dprime = 2
	}
	engOpts := emdsearch.Options{ReducedDims: dprime, Seed: cfg.seed}

	single, err := emdsearch.NewEngine(ds.Cost, engOpts)
	if err != nil {
		return err
	}
	for i, h := range vecs {
		if _, err := single.Add(ds.Items[i].Label, h); err != nil {
			return err
		}
	}
	if err := single.Build(); err != nil {
		return err
	}
	reference := make([][]emdsearch.Result, len(queries))
	for qi, q := range queries {
		res, _, err := single.KNN(q, cfg.k)
		if err != nil {
			return err
		}
		reference[qi] = res
	}

	report := shardReport{N: cfg.n, D: cfg.d, Queries: cfg.queries, K: cfg.k, Seed: cfg.seed}
	ctx := context.Background()
	for _, shards := range cfg.shards {
		set, err := buildShardBench(ds.Cost, engOpts, vecs, ds, shards, nil)
		if err != nil {
			return err
		}
		run := shardRun{Shards: shards, IdentityCheck: true}
		lat := make([]time.Duration, 0, len(queries))
		start := time.Now()
		for qi, q := range queries {
			qs := time.Now()
			ans, err := set.KNN(ctx, q, cfg.k)
			if err != nil {
				return fmt.Errorf("shards=%d query %d: %w", shards, qi, err)
			}
			lat = append(lat, time.Since(qs))
			if ans.Degraded {
				return fmt.Errorf("shards=%d query %d degraded on the healthy path", shards, qi)
			}
			run.Refinements += ans.Stats.Refinements
			if !sameShardResults(ans.Results, reference[qi]) {
				return fmt.Errorf("shards=%d query %d: scatter-gather answer diverged from single engine\n got: %v\nwant: %v",
					shards, qi, ans.Results, reference[qi])
			}
		}
		total := time.Since(start)
		run.HealthyQPS = float64(len(queries)) / total.Seconds()
		run.HealthyP95NS = percentileNS(lat, 0.95)

		// Chaos leg: shard 0 hard-fails; every answer must degrade with
		// the failed shard's items accounted uncovered.
		chaos, err := buildShardBench(ds.Cost, engOpts, vecs, ds, shards,
			func(ctx context.Context, shard, try int, op string) error {
				if shard == 0 && shards > 1 {
					return errors.New("bench: injected shard outage")
				}
				return nil
			})
		if err != nil {
			return err
		}
		start = time.Now()
		for qi, q := range queries {
			ans, err := chaos.KNN(ctx, q, cfg.k)
			if shards == 1 {
				if err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("shards=%d chaos query %d failed outright: %w", shards, qi, err)
			}
			if !ans.Degraded || ans.Coverage.ShardsFailed != 1 || ans.Coverage.ItemsUncovered == 0 {
				return fmt.Errorf("shards=%d chaos query %d: coverage %+v", shards, qi, ans.Coverage)
			}
			run.ChaosDegraded++
		}
		run.ChaosQPS = float64(len(queries)) / time.Since(start).Seconds()

		// Replicated leg: same dead primary, but each shard has a
		// caught-up follower — the failover answer must be complete and
		// bit-identical to the single-engine reference.
		repl, err := buildReplicatedBench(ds.Cost, engOpts, vecs, ds, shards,
			func(ctx context.Context, shard, try int, op string) error {
				if shard == 0 && shards > 1 && op == "knn" {
					return errors.New("bench: injected primary crash")
				}
				return nil
			})
		if err != nil {
			return err
		}
		run.ReplicaIdentity = true
		start = time.Now()
		for qi, q := range queries {
			ans, err := repl.KNN(ctx, q, cfg.k)
			if err != nil {
				return fmt.Errorf("shards=%d failover query %d: %w", shards, qi, err)
			}
			if shards > 1 {
				if ans.Degraded || ans.Coverage.ItemsUncovered != 0 {
					return fmt.Errorf("shards=%d failover query %d: caught-up failover degraded: %+v", shards, qi, ans.Coverage)
				}
				if !ans.Outcomes[0].FailedOver {
					return fmt.Errorf("shards=%d failover query %d: shard 0 did not fail over: %+v", shards, qi, ans.Outcomes[0])
				}
			}
			if !sameShardResults(ans.Results, reference[qi]) {
				return fmt.Errorf("shards=%d failover query %d: failed-over answer diverged from single engine\n got: %v\nwant: %v",
					shards, qi, ans.Results, reference[qi])
			}
		}
		run.FailoverQPS = float64(len(queries)) / time.Since(start).Seconds()
		run.FailoverServes = repl.Metrics().FailoverServes
		repl.Close()
		report.Runs = append(report.Runs, run)

		fmt.Printf("shards=%d  healthy %.0f q/s (p95 %v, %d refinements)  chaos %.0f q/s (%d/%d degraded)  failover %.0f q/s (%d serves, identity ok)\n",
			shards, run.HealthyQPS, time.Duration(run.HealthyP95NS), run.Refinements,
			run.ChaosQPS, run.ChaosDegraded, len(queries), run.FailoverQPS, run.FailoverServes)
	}

	if cfg.out != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.out)
	}
	return nil
}

// buildShardBench loads the corpus into a fresh shard set.
func buildShardBench(cost emdsearch.CostMatrix, engOpts emdsearch.Options, vecs []emdsearch.Histogram, ds *data.Dataset, shards int, hook func(ctx context.Context, shard, try int, op string) error) (*emdsearch.ShardSet, error) {
	set, err := emdsearch.NewShardSet(cost, engOpts, emdsearch.ShardSetOptions{
		Shards: shards, ShardHook: hook, QuarantineAfter: 1 << 30,
	})
	if err != nil {
		return nil, err
	}
	for i, h := range vecs {
		if _, err := set.Add(ds.Items[i].Label, h); err != nil {
			return nil, err
		}
	}
	if err := set.Build(); err != nil {
		return nil, err
	}
	return set, nil
}

// buildReplicatedBench loads the corpus into a shard set with one
// follower per shard and waits for the followers to catch up, so the
// failover leg measures steady-state serving, not bootstrap.
func buildReplicatedBench(cost emdsearch.CostMatrix, engOpts emdsearch.Options, vecs []emdsearch.Histogram, ds *data.Dataset, shards int, hook func(ctx context.Context, shard, try int, op string) error) (*emdsearch.ShardSet, error) {
	set, err := emdsearch.NewShardSet(cost, engOpts, emdsearch.ShardSetOptions{
		Shards: shards, ShardHook: hook, QuarantineAfter: 1 << 30, Replicas: 1,
	})
	if err != nil {
		return nil, err
	}
	for i, h := range vecs {
		if _, err := set.Add(ds.Items[i].Label, h); err != nil {
			return nil, err
		}
	}
	if err := set.Build(); err != nil {
		return nil, err
	}
	if err := set.WaitReplicasCaughtUp(context.Background()); err != nil {
		return nil, err
	}
	return set, nil
}

// sameShardResults reports bit-identity of two result lists.
func sameShardResults(got, want []emdsearch.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Index != want[i].Index ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

// sameResults reports bit-identity of two per-query result sets.
func sameResults(a, b [][]emdsearch.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for qi := range a {
		if !sameShardResults(a[qi], b[qi]) {
			return false
		}
	}
	return true
}

// percentileNS returns the p-th percentile of lat in nanoseconds.
func percentileNS(lat []time.Duration, p float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return int64(sorted[int(p*float64(len(sorted)-1))])
}
