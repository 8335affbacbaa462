package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	emdsearch "emdsearch"
)

// config is what the command line fixes for one run.
type config struct {
	seed    int64
	seconds float64 // length of the measured window
	setups  int     // how often set-up is repeated; setup_s is the median
	tmp     string  // scratch directory inside the checkout, removed at exit
	// traceDir, when set, receives the traced pass's span file.
	traceDir string
}

// serving is a started system under test.
type serving struct {
	tgt  target
	pid  int    // process whose CPU and memory are the serving cost
	stop func() // releases it; safe to call once
}

// serve starts the workload's read-only system: an emdserve child, or
// an in-process ShardSet.
func (sp spec) serve(in *inputs, serverBin string) (*serving, error) {
	if sp.HTTP {
		c, err := startServer(serverBin, sp)
		if err != nil {
			return nil, err
		}
		return &serving{newHTTPTarget(c.addr), c.cmd.Process.Pid, c.stop}, nil
	}
	set, err := sp.newSet(in, "")
	if err != nil {
		return nil, err
	}
	return &serving{setTarget{set}, os.Getpid(), set.Close}, nil
}

// settle returns memory of discarded set-ups to the system and restarts
// the peak-RSS mark, so the kept set-up is measured alone.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// opRecord is one executed op of the measured window.
type opRecord struct {
	kind   opKind
	lat    time.Duration
	failed bool
}

// window is what the closed-loop clients measured.
type window struct {
	ops     []opRecord
	elapsed time.Duration
	cpu     time.Duration
	peakRSS float64
	answers [][]emdsearch.Result // answers of ops [0,HashOps), in op order
	firstEr error                // first failure, for the report
}

// closedLoop drives tgt with `clients` clients, each sending its next
// op when the previous one returned, for dur — and beyond it until the
// first hashOps ops have run, so that answers_fnv always covers the
// same ops. warm[q] is query q's KNN answer from the warm-up: with a
// static corpus every later answer for q must equal it bit for bit,
// and a Range at its k-th distance must contain it.
func closedLoop(tgt target, pid int, in *inputs, warm [][]emdsearch.Result, dur time.Duration, hashOps int) (*window, error) {
	w := &window{answers: make([][]emdsearch.Result, hashOps)}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []opRecord
			var firstErr error
			for {
				i := int(next.Add(1) - 1)
				if i >= hashOps && time.Since(start) >= dur {
					break
				}
				o := in.reads[i%len(in.reads)]
				rec := opRecord{kind: o.Kind}
				var got []emdsearch.Result
				var opErr error
				t0 := time.Now()
				if o.Kind == opKNN {
					ans, _, err := tgt.knn(in.queries[o.Arg], knnK)
					rec.lat = time.Since(t0)
					switch {
					case err != nil:
						opErr = err
					case ans.Degraded:
						opErr = fmt.Errorf("op %d: degraded KNN answer", i)
					default:
						got = ans.Results
						if err := sameResults(got, warm[o.Arg]); err != nil {
							opErr = fmt.Errorf("op %d: KNN answer changed: %w", i, err)
						}
					}
				} else {
					ans, err := tgt.rangeQ(in.queries[o.Arg], warm[o.Arg][len(warm[o.Arg])-1].Dist)
					rec.lat = time.Since(t0)
					switch {
					case err != nil:
						opErr = err
					case ans.Degraded:
						opErr = fmt.Errorf("op %d: degraded Range answer", i)
					default:
						got = ans.Results
						if !containsAll(got, warm[o.Arg]) {
							opErr = fmt.Errorf("op %d: Range misses one of the query's k nearest", i)
						}
					}
				}
				if opErr != nil {
					rec.failed = true
					if firstErr == nil {
						firstErr = opErr
					}
				}
				if i < hashOps {
					w.answers[i] = got // distinct i per client: no race
				}
				mine = append(mine, rec)
			}
			mu.Lock()
			w.ops = append(w.ops, mine...)
			if w.firstEr == nil {
				w.firstEr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	w.cpu = cpu1 - cpu0
	if w.peakRSS, err = procPeakRSS(pid); err != nil {
		return nil, err
	}
	return w, nil
}

// report fills the end-to-end metrics every workload shares from the
// ops of a measured window.
func (res *result) report(ops []opRecord, elapsed, cpu time.Duration, peakRSS float64, setups []float64) {
	var knn, rng []float64
	for _, o := range ops {
		if o.failed {
			res.Failed++
		}
		switch o.kind {
		case opKNN:
			knn = append(knn, ms(o.lat))
		case opRange:
			rng = append(rng, ms(o.lat))
		}
	}
	res.Attempted = len(ops)
	res.set("setup_s", median(setups), len(setups))
	res.set("qps", float64(len(ops))/elapsed.Seconds(), len(ops))
	res.setPercentile("knn_p50_ms", knn, 50)
	res.setPercentile("knn_p95_ms", knn, 95)
	if len(rng) > 0 {
		res.setPercentile("range_p50_ms", rng, 50)
	}
	res.set("cpu_ms_per_op", ms(cpu)/float64(len(ops)), len(ops))
	res.set("peak_rss_mb", peakRSS, 1)
	res.set("failed_frac", float64(res.Failed)/float64(len(ops)), len(ops))
	if res.Failed > 0 {
		res.Correct = false
	}
}

// setPercentile stores the p-th percentile of v, or notes why it
// cannot be reported.
func (res *result) setPercentile(name string, v []float64, p float64) {
	x, err := percentile(v, p)
	if err != nil {
		res.Notes = append(res.Notes, name+": "+err.Error())
		return
	}
	res.set(name, x, len(v))
}

// runReadOnly measures one of the three read-only workloads with
// tracing off.
func runReadOnly(sp spec, cfg config) (*result, error) {
	res := newResult(sp, cfg.seed, 0)
	in, err := generate(sp, cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	// The oracle runs before the clock starts: its time is no part of
	// setup_s, and the first answer of every set-up is checked against it.
	want, err := oracle(in.cost, in.corpus, nil, in.queries, sp.Oracle)
	if err != nil {
		return nil, err
	}
	var serverBin string
	if sp.HTTP {
		if serverBin, err = buildServer(cfg.tmp); err != nil {
			return nil, err
		}
	}

	var setups []float64
	var sv *serving
	for i := 0; i < cfg.setups; i++ {
		if i == cfg.setups-1 {
			settle()
		}
		t0 := time.Now()
		if sv, err = sp.serve(in, serverBin); err != nil {
			return nil, err
		}
		ans, _, err := sv.tgt.knn(in.queries[0], knnK)
		if err == nil {
			err = sameResults(ans.Results, want[0])
		}
		if err != nil {
			sv.stop()
			return nil, fmt.Errorf("set-up %d: first answer: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			sv.stop()
		}
	}
	defer sv.stop()

	// Warm-up: every query once, on all clients. The k-th distance of
	// each answer is that query's range radius.
	warm := make([][]emdsearch.Result, len(in.queries))
	werrs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := c; q < len(in.queries); q += clients {
				ans, _, err := sv.tgt.knn(in.queries[q], knnK)
				if err != nil || ans.Degraded || len(ans.Results) != knnK {
					werrs[c] = fmt.Errorf("warm-up query %d: err=%v", q, err)
					return
				}
				warm[q] = ans.Results
			}
		}(c)
	}
	wg.Wait()
	for _, err := range werrs {
		if err != nil {
			return nil, err
		}
	}
	for i := range want {
		if err := sameResults(warm[i], want[i]); err != nil {
			res.fail("oracle query %d: %v", i, err)
		}
	}

	w, err := closedLoop(sv.tgt, sv.pid, in, warm, time.Duration(cfg.seconds*float64(time.Second)), sp.HashOps)
	if err != nil {
		return nil, err
	}
	res.report(w.ops, w.elapsed, w.cpu, w.peakRSS, setups)
	if w.firstEr != nil {
		res.fail("first failed op: %v", w.firstEr)
	}
	h := fnv.New64a()
	for _, a := range w.answers {
		hashResults(h, a)
	}
	res.AnswersFNV = fmt.Sprintf("%016x", h.Sum64())
	return res, nil
}
