package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emdsearch"
	"emdsearch/internal/data"
)

// serveConfig sizes the concurrent-serving benchmark.
type serveConfig struct {
	n, d, queries int
	workers       int // per-query refinement workers (Options.Workers)
	concurrency   int // concurrent query clients
	seed          int64
	// timeout, when positive, gives every query a deadline via KNNCtx;
	// queries that miss it return certified anytime answers and are
	// counted as degraded. Zero keeps the context-free KNN path.
	timeout time.Duration
	// wal, when non-empty, attaches a write-ahead log at that path, so
	// the background writer's Adds each pay a durable fsynced append.
	wal string
	// gate routes every query through an admission Gate so closed-loop
	// serving exercises the limiter and breaker paths.
	gate bool
	// overload switches serve into the open-loop overload sweep
	// (runOverload) instead of the closed-loop benchmark.
	overload bool
	// chaos is the per-refinement probability of an injected solver
	// panic (and 2x that of an injected slow solve); 0 disables.
	chaos float64
	// maxConcurrent / maxQueue size the admission gate; zero means the
	// gate defaults (GOMAXPROCS / 2x).
	maxConcurrent, maxQueue int
	// out, when non-empty, is where the overload sweep writes its JSON
	// report.
	out string
}

// runServe benchmarks the engine as a concurrent query server: it
// builds one engine and fires k-NN queries from `concurrency` client
// goroutines, each query refining with `workers` goroutines, while a
// background goroutine keeps mutating the index (Add) to exercise the
// snapshot path. It reports throughput, tail latency (p50/p95/p99) and
// the engine's aggregated Metrics. With a per-query timeout the
// queries run through KNNCtx: missed deadlines degrade to certified
// anytime answers instead of blowing the tail, and the report shows
// how many queries degraded.
func runServe(cfg serveConfig) error {
	ds, err := data.MusicSpectra(cfg.n+16, cfg.d, cfg.seed)
	if err != nil {
		return err
	}
	vecs, queries, err := ds.Split(16)
	if err != nil {
		return err
	}
	dprime := cfg.d / 8
	if dprime < 2 {
		dprime = 2
	}
	eng, err := emdsearch.NewEngine(ds.Cost, emdsearch.Options{
		ReducedDims: dprime,
		Workers:     cfg.workers,
		Seed:        cfg.seed,
	})
	if err != nil {
		return err
	}
	for i, h := range vecs {
		if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
			return err
		}
	}
	if err := eng.Build(); err != nil {
		return err
	}
	if cfg.wal != "" {
		if err := eng.OpenWAL(cfg.wal); err != nil {
			return err
		}
		defer func() {
			if err := eng.CloseWAL(); err != nil {
				fmt.Printf("serve: close WAL: %v\n", err)
			}
		}()
	}

	if cfg.timeout > 0 {
		fmt.Printf("serve: n=%d d=%d d'=%d queries=%d concurrency=%d workers=%d timeout=%v\n",
			len(vecs), cfg.d, dprime, cfg.queries, cfg.concurrency, cfg.workers, cfg.timeout)
	} else {
		fmt.Printf("serve: n=%d d=%d d'=%d queries=%d concurrency=%d workers=%d\n",
			len(vecs), cfg.d, dprime, cfg.queries, cfg.concurrency, cfg.workers)
	}

	var gate *emdsearch.Gate
	if cfg.gate {
		gate = emdsearch.NewGate(eng, emdsearch.GateOptions{
			MaxConcurrent: cfg.maxConcurrent,
			MaxQueue:      cfg.maxQueue,
		})
	}

	// Background writer: one Add per millisecond, forcing snapshot
	// rebuilds under load the way a live ingest would. A broken WAL is
	// healed in place with capped-backoff reopens instead of killing
	// the writer.
	stopWriter := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stopWriter:
				return
			case <-tick.C:
				if _, err := eng.Add("ingest", vecs[i%len(vecs)]); err != nil {
					if errors.Is(err, emdsearch.ErrWALBroken) {
						if rerr := eng.ReopenWALRetry(context.Background(), 10); rerr != nil {
							fmt.Printf("serve: WAL stayed broken after backoff: %v\n", rerr)
							return
						}
						continue
					}
					return
				}
			}
		}
	}()

	var (
		next     int64
		degraded int64
		anytime  int64 // certified items carried by degraded answers
		shed     int64 // gate mode: queries rejected with ErrOverloaded
		wg       sync.WaitGroup
	)
	// Per-query latencies, indexed by query number: lock-free writes,
	// and the tail percentiles come out of one sort afterwards.
	latencies := make([]time.Duration, cfg.queries)
	start := time.Now()
	for c := 0; c < cfg.concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				qi := atomic.AddInt64(&next, 1) - 1
				if qi >= int64(cfg.queries) {
					return
				}
				q := queries[qi%int64(len(queries))]
				t0 := time.Now()
				switch {
				case gate != nil:
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if cfg.timeout > 0 {
						ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
					}
					ans, err := gate.KNN(ctx, q, 10)
					cancel()
					switch {
					case errors.Is(err, emdsearch.ErrOverloaded):
						atomic.AddInt64(&shed, 1)
					case err != nil && ans == nil:
						fmt.Printf("serve: query error: %v\n", err)
						return
					case ans.Degraded:
						atomic.AddInt64(&degraded, 1)
						atomic.AddInt64(&anytime, int64(len(ans.Anytime)))
					}
				case cfg.timeout > 0:
					ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
					ans, err := eng.KNNCtx(ctx, q, 10)
					cancel()
					if err != nil && ans == nil {
						fmt.Printf("serve: query error: %v\n", err)
						return
					}
					if ans.Degraded {
						atomic.AddInt64(&degraded, 1)
						atomic.AddInt64(&anytime, int64(len(ans.Anytime)))
					}
				default:
					if _, _, err := eng.KNN(q, 10); err != nil {
						fmt.Printf("serve: query error: %v\n", err)
						return
					}
				}
				latencies[qi] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopWriter)
	writerWG.Wait()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var totalNS int64
	for _, l := range latencies {
		totalNS += int64(l)
	}
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(latencies)-1))
		return latencies[i].Round(time.Microsecond)
	}
	qps := float64(cfg.queries) / elapsed.Seconds()
	meanLat := time.Duration(totalNS / int64(cfg.queries))
	fmt.Printf("served %d queries in %v: %.1f qps, mean latency %v\n",
		cfg.queries, elapsed.Round(time.Millisecond), qps, meanLat.Round(time.Microsecond))
	fmt.Printf("latency: p50=%v p95=%v p99=%v max=%v\n",
		pct(0.50), pct(0.95), pct(0.99), pct(1.0))
	if cfg.timeout > 0 || gate != nil {
		fmt.Printf("deadline: %d/%d queries degraded (%.1f%%), %d certified anytime items returned\n",
			degraded, cfg.queries, 100*float64(degraded)/float64(cfg.queries), anytime)
	}
	if gate != nil {
		gm := gate.Metrics()
		fmt.Printf("gate: admitted=%d queued=%d shed=%d (client-observed shed=%d) degraded=%d breaker=%s est_service=%v\n",
			gm.Admitted, gm.Queued, gm.Shed, shed, gm.Degraded, gm.BreakerState,
			gm.EstServiceTime.Round(time.Microsecond))
	}

	m := eng.Metrics()
	fmt.Printf("metrics: knn=%d errors=%d cancelled=%d degraded=%d snapshot_builds=%d pulled=%d refinements=%d skipped=%d\n",
		m.KNNQueries, m.QueryErrors, m.QueriesCancelled, m.QueriesDeadlineDegraded,
		m.SnapshotBuilds, m.Pulled, m.Refinements, m.RefinementsSkipped)
	if cfg.wal != "" {
		fmt.Printf("         wal_appends=%d (durable ingest at %s)\n", m.WALAppends, cfg.wal)
	}
	fmt.Printf("         filter=%v refine=%v query=%v\n",
		m.FilterTime.Round(time.Millisecond), m.RefineTime.Round(time.Millisecond), m.QueryTime.Round(time.Millisecond))
	for name, st := range m.Stages {
		fmt.Printf("         stage %-12s evals=%-8d pruned=%-8d aborted=%-8d time=%v\n",
			name, st.Evaluations, st.Pruned, st.Aborted, st.Time.Round(time.Millisecond))
	}
	return nil
}
