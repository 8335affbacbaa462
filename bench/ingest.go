package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	emdsearch "emdsearch"
)

// recoveries is how often crash recovery is repeated; recover_s is the
// median.
const recoveries = 5

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// closeSet detaches a WAL-backed set the way a crash leaves it: logs
// closed where they stand, no final checkpoint.
func closeSet(set *emdsearch.ShardSet) {
	_ = set.CloseWAL() // the files are abandoned or deleted next
	set.Close()
}

// writerLog is what the open-loop writer did.
type writerLog struct {
	ops      []opRecord
	late     []float64 // ms each Add started after it was due
	added    []int     // acknowledged Adds: global id of in.adds[i], -1 if refused
	deleted  []int     // acknowledged Deletes, by global id
	diskAmp  float64   // after the last checkpoint
	firstErr error
}

// runWriter adds in.adds[i] at start + i/rate — on schedule whether or
// not the previous Add has returned in time, so a stall delays every
// Add due during it and each is timed from the instant it was due.
// After every tenth Add it deletes one item of the initial corpus, and
// three times in the window it checkpoints. Mutations and checkpoints
// may not interleave with each other, so this one goroutine does all.
func runWriter(set *emdsearch.ShardSet, in *inputs, sp spec, dir string, start time.Time) *writerLog {
	wl := &writerLog{added: make([]int, len(in.adds))}
	interval := time.Second / time.Duration(sp.AddRate)
	ckptEvery := (len(in.adds) + 3) / 4
	fail := func(rec *opRecord, err error) {
		rec.failed = true
		if wl.firstErr == nil {
			wl.firstErr = err
		}
	}
	for i, v := range in.adds {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wl.late = append(wl.late, math.Max(0, ms(time.Since(due))))
		gid, err := set.Add("", v)
		rec := opRecord{kind: opAdd, lat: time.Since(due)}
		wl.added[i] = gid
		if err != nil {
			wl.added[i] = -1
			fail(&rec, fmt.Errorf("add %d: %w", i, err))
		}
		wl.ops = append(wl.ops, rec)

		if (i+1)%10 == 0 {
			gid := in.deletes[(i+1)/10-1]
			t0 := time.Now()
			err := set.Delete(gid)
			rec := opRecord{kind: opDelete, lat: time.Since(t0)}
			if err != nil {
				fail(&rec, fmt.Errorf("delete %d: %w", gid, err))
			} else {
				wl.deleted = append(wl.deleted, gid)
			}
			wl.ops = append(wl.ops, rec)
		}
		if (i+1)%ckptEvery == 0 && i+1 < len(in.adds) {
			if err := set.Checkpoint(dir); err != nil && wl.firstErr == nil {
				wl.firstErr = fmt.Errorf("checkpoint: %w", err)
			}
			if n, err := dirBytes(dir); err == nil {
				wl.diskAmp = float64(n) / float64(set.Alive()*sp.D*8)
			}
		}
	}
	return wl
}

// runIngest measures ingest_mixed with tracing off.
func runIngest(sp spec, cfg config) (*result, error) {
	res := newResult(sp, cfg.seed, 0)
	in, err := generate(sp, cfg.seed, int(math.Ceil(float64(sp.AddRate)*cfg.seconds)))
	if err != nil {
		return nil, err
	}
	first, err := oracle(in.cost, in.corpus, nil, in.queries, 1)
	if err != nil {
		return nil, err
	}

	// Set-up: bulk load through the WAL, Build, first correct answer.
	var setups []float64
	var set *emdsearch.ShardSet
	dir := filepath.Join(cfg.tmp, "wal")
	for i := 0; i < cfg.setups; i++ {
		if i == cfg.setups-1 {
			settle()
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if set, err = sp.newSet(in, dir); err != nil {
			return nil, err
		}
		ans, err := set.KNN(context.Background(), in.queries[0], knnK)
		if err == nil {
			err = sameResults(ans.Results, first[0])
		}
		if err != nil {
			closeSet(set)
			return nil, fmt.Errorf("set-up %d: first answer: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			closeSet(set)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}

	// Measured window: the writer sets its length; the reader is one
	// closed-loop KNN client that stops when the writer is done.
	pid := os.Getpid()
	cpu0, err := procCPU(pid)
	if err != nil {
		closeSet(set)
		return nil, err
	}
	var reads []opRecord
	var readErr error
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			o := in.reads[i%len(in.reads)]
			t0 := time.Now()
			ans, err := set.KNN(context.Background(), in.queries[o.Arg], knnK)
			rec := opRecord{kind: opKNN, lat: time.Since(t0)}
			if err == nil && ans.Degraded {
				err = fmt.Errorf("read %d: degraded answer", i)
			}
			if err != nil {
				rec.failed = true
				if readErr == nil {
					readErr = err
				}
			}
			reads = append(reads, rec)
		}
	}()
	start := time.Now()
	wl := runWriter(set, in, sp, dir, start)
	close(done)
	wg.Wait()
	elapsed := time.Since(start)
	cpu1, err1 := procCPU(pid)
	peak, err2 := procPeakRSS(pid)
	closeSet(set) // the crash: no final checkpoint
	if err1 != nil {
		return nil, err1
	}
	if err2 != nil {
		return nil, err2
	}

	res.report(append(wl.ops, reads...), elapsed, cpu1-cpu0, peak, setups)
	for _, err := range []error{wl.firstErr, readErr} {
		if err != nil {
			res.fail("first failed op: %v", err)
		}
	}
	var adds []float64
	for _, o := range wl.ops {
		if o.kind == opAdd {
			adds = append(adds, ms(o.lat))
		}
	}
	res.setPercentile("add_p50_ms", adds, 50)
	res.setPercentile("add_p99_ms", adds, 99)
	res.setPercentile("gen_late_p99_ms", wl.late, 99)
	res.set("disk_amp", wl.diskAmp, 1)

	// The corpus every acknowledged mutation leaves behind, and its oracle.
	final := append(append([]emdsearch.Histogram(nil), in.corpus...), in.adds...)
	dead := make(map[int]bool, len(wl.deleted))
	for _, gid := range wl.deleted {
		dead[gid] = true
	}
	var live []emdsearch.Histogram
	var ids []int
	for gid, v := range final {
		if !dead[gid] {
			live, ids = append(live, v), append(ids, gid)
		}
	}
	want, err := oracle(in.cost, live, ids, in.queries, sp.Oracle)
	if err != nil {
		return nil, err
	}

	// Recovery, from copies: each starts from the bytes the crash left.
	eo, so := sp.options()
	var recs []float64
	var rec *emdsearch.ShardSet
	for i := 0; i < recoveries; i++ {
		if rec != nil {
			rec.Close()
		}
		cp := filepath.Join(cfg.tmp, fmt.Sprintf("recover-%d", i))
		if err := copyDir(dir, cp); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if rec, _, err = emdsearch.OpenShardSet(cp, in.cost, eo, so); err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		if err := rec.Build(); err != nil {
			rec.Close()
			return nil, fmt.Errorf("recovery %d: Build: %w", i, err)
		}
		ans, err := rec.KNN(context.Background(), in.queries[0], knnK)
		if err == nil {
			err = sameResults(ans.Results, want[0])
		}
		if err != nil {
			rec.Close()
			return nil, fmt.Errorf("recovery %d: first answer: %w", i, err)
		}
		recs = append(recs, time.Since(t0).Seconds())
	}
	defer rec.Close()
	res.set("recover_s", median(recs), len(recs))

	// Durability: every acknowledged Add is there, bit for bit, every
	// acknowledged Delete is gone, and the oracle queries are exact.
	if rec.Len() != len(final) {
		res.fail("recovered set holds %d items, want %d", rec.Len(), len(final))
	}
	for i, gid := range wl.added {
		if gid < 0 || gid >= rec.Len() {
			continue // refused Adds are already counted as failed ops
		}
		got := rec.Engine(gid % shards).Vector(gid / shards)
		if err := sameVector(got, in.adds[i]); err != nil {
			res.fail("acknowledged add %d (id %d): %v", i, gid, err)
			break
		}
	}
	for _, gid := range wl.deleted {
		if !rec.Engine(gid % shards).Deleted(gid / shards) {
			res.fail("acknowledged delete of %d is not in the recovered set", gid)
			break
		}
	}
	for i := range want {
		ans, err := rec.KNN(context.Background(), in.queries[i], knnK)
		if err == nil {
			err = sameResults(ans.Results, want[i])
		}
		if err != nil {
			res.fail("oracle query %d after recovery: %v", i, err)
		}
	}
	return res, nil
}

func sameVector(got, want emdsearch.Histogram) error {
	if len(got) != len(want) {
		return fmt.Errorf("vector of %d bins, want %d", len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return fmt.Errorf("bin %d differs", j)
		}
	}
	return nil
}
