// Command emdserve serves EMD similarity search over HTTP+JSON from a
// fault-tolerant sharded engine set. It builds a synthetic corpus (the
// music-spectra generator, as the serve_http benchmark workload uses)
// partitioned round-robin across -shards gated engines and answers
// scatter-gather queries with certified partial-failure semantics: a
// slow or failing shard degrades the answer — with exact coverage
// accounting — instead of failing the query.
//
// With -wal-dir, mutations are durable: each shard logs to
// shard-NNN.wal, a background loop checkpoints snapshots every
// -checkpoint-every, shutdown flushes a final checkpoint, and a
// restart pointed at the same directory recovers the corpus instead of
// regenerating it. With -replicas 1, each shard feeds a follower by
// WAL shipping and a crashed or quarantined primary fails over to it —
// byte-identical answers when the follower is caught up, an honest
// freshness-bounded Degraded certificate when it lags.
//
// Endpoints:
//
//	POST /knn        {"q": [...], "k": 5, "timeout_ms": 50}
//	POST /range      {"q": [...], "eps": 0.25, "timeout_ms": 50}
//	GET  /healthz    per-shard availability and replica lag; 503 once every shard is quarantined
//	GET  /metrics    ShardSetMetrics JSON (scatter, retry, quarantine, failover counters)
//	GET  /debug/vars expvar, including the published shard-set metrics
//
// Usage:
//
//	emdserve -addr :8080 -shards 4 -n 2000 -d 32 -dprime 8 -timeout 100ms \
//	         -wal-dir /var/lib/emdserve -checkpoint-every 1m -replicas 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"emdsearch/internal/data"

	emdsearch "emdsearch"
)

// serveConfig collects the corpus and set knobs main wires from flags.
type serveConfig struct {
	shards, n, d, dprime, workers, maxConc int
	seed                                   int64
	walDir                                 string
	replicas                               int
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		shards    = flag.Int("shards", 4, "engine partitions")
		n         = flag.Int("n", 2000, "corpus size")
		d         = flag.Int("d", 32, "histogram dimensionality")
		dprime    = flag.Int("dprime", 8, "reduced filter dimensionality")
		workers   = flag.Int("workers", 0, "per-shard refinement workers (0 = sequential)")
		seed      = flag.Int64("seed", 42, "corpus seed")
		timeout   = flag.Duration("timeout", 100*time.Millisecond, "default per-query deadline (0 = none)")
		maxConc   = flag.Int("max-concurrent", 0, "per-shard concurrent query cap (0 = gate default)")
		walDir    = flag.String("wal-dir", "", "directory for per-shard WALs and snapshots (empty = in-memory only)")
		ckptEvery = flag.Duration("checkpoint-every", time.Minute, "periodic checkpoint interval with -wal-dir (0 = checkpoint only at shutdown)")
		replicas  = flag.Int("replicas", 0, "followers per shard, 0 or 1; failed-over answers stay certified")
	)
	flag.Parse()

	cfg := serveConfig{
		shards: *shards, n: *n, d: *d, dprime: *dprime, workers: *workers,
		maxConc: *maxConc, seed: *seed, walDir: *walDir, replicas: *replicas,
	}
	set, recovered, err := buildSet(cfg)
	if err != nil {
		log.Fatalf("emdserve: %v", err)
	}
	if recovered {
		log.Printf("emdserve: recovered %d items from %s", set.Len(), *walDir)
	}
	if err := set.PublishExpvar("emdserve"); err != nil {
		log.Fatalf("emdserve: %v", err)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: (&server{set: set, timeout: *timeout}).handler(),
	}

	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		if *walDir != "" {
			checkpointLoop(set, *walDir, *ckptEvery, stopCkpt)
		}
	}()

	// Graceful shutdown: stop accepting, drain in-flight queries, then
	// flush a final checkpoint so the WALs restart empty.
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("emdserve: shutdown: %v", err)
		}
		close(stopCkpt)
		<-ckptDone
		set.Close()
		close(done)
	}()

	log.Printf("emdserve: %d items, %d shards, %d replicas/shard, serving on %s",
		set.Len(), set.Shards(), *replicas, *addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("emdserve: %v", err)
	}
	<-done
}

// buildSet loads the serving set: recovered from cfg.walDir when the
// directory already holds shard persistence, generated fresh
// otherwise. The returned bool reports which path ran. Either way,
// when cfg.walDir is set the returned set has open WALs and durable
// mutations.
func buildSet(cfg serveConfig) (*emdsearch.ShardSet, bool, error) {
	ds, err := data.MusicSpectra(cfg.n, cfg.d, cfg.seed)
	if err != nil {
		return nil, false, err
	}
	engOpts := emdsearch.Options{ReducedDims: cfg.dprime, Workers: cfg.workers, Seed: cfg.seed}
	setOpts := emdsearch.ShardSetOptions{
		Shards:   cfg.shards,
		Gate:     emdsearch.GateOptions{MaxConcurrent: cfg.maxConc},
		Replicas: cfg.replicas,
	}

	if cfg.walDir != "" {
		persisted, err := filepath.Glob(filepath.Join(cfg.walDir, "shard-*"))
		if err != nil {
			return nil, false, err
		}
		if len(persisted) > 0 {
			set, stats, err := emdsearch.OpenShardSet(cfg.walDir, ds.Cost, engOpts, setOpts)
			if err != nil {
				return nil, false, err
			}
			replayed := 0
			for _, st := range stats {
				replayed += st.WALRecords
			}
			log.Printf("emdserve: replayed %d WAL records over snapshots", replayed)
			// Resume logging, then fold the replayed tail into fresh
			// snapshots so the logs restart empty.
			if err := set.OpenWAL(cfg.walDir); err != nil {
				return nil, false, err
			}
			if err := set.Checkpoint(cfg.walDir); err != nil {
				return nil, false, err
			}
			if err := set.Build(); err != nil {
				return nil, false, err
			}
			return set, true, nil
		}
	}

	set, err := emdsearch.NewShardSet(ds.Cost, engOpts, setOpts)
	if err != nil {
		return nil, false, err
	}
	if cfg.walDir != "" {
		if err := os.MkdirAll(cfg.walDir, 0o755); err != nil {
			return nil, false, err
		}
		if err := set.OpenWAL(cfg.walDir); err != nil {
			return nil, false, err
		}
	}
	for i, item := range ds.Items {
		if _, err := set.Add(item.Label, item.Vector); err != nil {
			return nil, false, fmt.Errorf("item %d: %w", i, err)
		}
	}
	if err := set.Build(); err != nil {
		return nil, false, err
	}
	return set, false, nil
}

// checkpointLoop snapshots the set into dir every interval (0 = never)
// until stop closes, then flushes one final checkpoint and detaches
// the WALs — the graceful-shutdown path that makes the next start
// recover from snapshots with empty logs.
func checkpointLoop(set *emdsearch.ShardSet, dir string, every time.Duration, stop <-chan struct{}) {
	if every > 0 {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := set.Checkpoint(dir); err != nil {
					log.Printf("emdserve: periodic checkpoint: %v", err)
				}
			case <-stop:
				flushWAL(set, dir)
				return
			}
		}
	}
	<-stop
	flushWAL(set, dir)
}

// flushWAL writes the final checkpoint and closes the logs.
func flushWAL(set *emdsearch.ShardSet, dir string) {
	if err := set.Checkpoint(dir); err != nil {
		log.Printf("emdserve: final checkpoint: %v", err)
	}
	if err := set.CloseWAL(); err != nil {
		log.Printf("emdserve: close WAL: %v", err)
	}
}
