package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	emdsearch "emdsearch"
)

// span is one timed call into a layer. The spans of one op share Op;
// Parent is the span one layer up (0 at the top). The layers of an op
// are not nested calls but replays of the same op at successive depths
// of the stack — HTTP round trip, ShardSet.KNN, Gate.KNN, Engine.KNNCtx
// — so a layer's self time is its span minus its child's span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op_id"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

// Layer depths of a KNN op's replays; a span's id is 8*op + depth + 1.
const (
	depthHTTP = iota
	depthSet
	depthGate
	depthEngine
	depthFirst // Engine.KNNCtx right after a mutation: pays the snapshot build
)

var depthName = [...]string{"emdserve.knn", "shardset.knn", "gate.knn", "engine.knn", "engine.knn.first"}

func (tr *tracer) time(name string, op, depth int, f func()) time.Duration {
	id := 8*op + depth + 1
	parent := id - 1
	if depth == 0 || depth == depthFirst {
		parent = 0
	}
	start := time.Since(tr.t0)
	f()
	end := time.Since(tr.t0)
	tr.spans = append(tr.spans, span{name, op, id, parent, start.Nanoseconds(), end.Nanoseconds()})
	return end - start
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stack is the workload's serving stack built three ways, so that each
// layer can be called from outside: the emdserve child (HTTP only),
// an identically built in-process ShardSet, and one single Engine over
// the union corpus behind its own Gate.
type stack struct {
	http *httpTarget
	set  *emdsearch.ShardSet
	eng  *emdsearch.Engine
	gate *emdsearch.Gate
}

// mutate applies a write op to the set and to the single engine alike,
// so the two stay the same corpus.
func (st *stack) mutate(in *inputs, o op) error {
	switch o.Kind {
	case opAdd:
		if _, err := st.set.Add("", in.adds[o.Arg]); err != nil {
			return err
		}
		_, err := st.eng.Add("", in.adds[o.Arg])
		return err
	case opDelete:
		if err := st.set.Delete(o.Arg); err != nil {
			return err
		}
		return st.eng.Delete(o.Arg)
	}
	return fmt.Errorf("op kind %d is no mutation", o.Kind)
}

// tracedOps is what the traced replay recorded, one entry per KNN op
// unless noted.
type tracedOps struct {
	httpMS, setMS, gateMS, engMS []float64
	respBytes                    []float64
	firstMS, steadyMS            []float64 // ops right after a mutation: first call, steady replay
	engCostMS                    []float64 // what the single engine paid for the op the set saw
	eng                          []*emdsearch.QueryStats
	shardRefinements             int
	shardAnswers, shardIndexed   int
	lagMax                       int64
	mutations, ops               int
}

// runTraced replays a prefix of the workload with one client and
// attributes time to each layer from outside.
func runTraced(sp spec, cfg config) (*result, error) {
	res := newResult(sp, cfg.seed, 1)
	nAdds := 0
	if sp.Ingest {
		nAdds = 2 * sp.TraceOps // the untraced and the traced replay add TraceOps each
	}
	in, err := generate(sp, cfg.seed, nAdds)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	eo, so := sp.options()
	st := &stack{}

	if sp.HTTP {
		bin, err := buildServer(cfg.tmp)
		if err != nil {
			return nil, err
		}
		c, err := startServer(bin, sp)
		if err != nil {
			return nil, err
		}
		defer c.stop()
		st.http = newHTTPTarget(c.addr)
	}

	// index.build_s: what the first query pays with the default index
	// kind over what it pays with the index off, on the sharded set.
	firstQuery := func(set *emdsearch.ShardSet) (time.Duration, error) {
		t0 := time.Now()
		_, err := set.KNN(ctx, in.queries[0], knnK)
		return time.Since(t0), err
	}
	offSpec := sp
	offSpec.Opts.IndexKind = emdsearch.IndexOff
	offSpec.Ingest = false
	off, err := offSpec.newSet(in, "")
	if err != nil {
		return nil, err
	}
	firstOff, err := firstQuery(off)
	off.Close()
	if err != nil {
		return nil, err
	}
	walDir := ""
	if sp.Ingest {
		walDir = filepath.Join(cfg.tmp, "trace-wal")
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
	}
	if st.set, err = sp.newSet(in, walDir); err != nil {
		return nil, err
	}
	if sp.Ingest {
		defer closeSet(st.set)
	} else {
		defer st.set.Close()
	}
	firstDefault, err := firstQuery(st.set)
	if err != nil {
		return nil, err
	}
	res.set("index.build_s", (firstDefault - firstOff).Seconds(), 1)

	if st.eng, err = emdsearch.NewEngine(in.cost, eo); err != nil {
		return nil, err
	}
	for _, v := range in.corpus {
		if _, err := st.eng.Add("", v); err != nil {
			return nil, err
		}
	}
	if err := st.eng.Build(); err != nil {
		return nil, err
	}
	st.gate = emdsearch.NewGate(st.eng, so.Gate)

	// Warm-up on the single engine: every query once. Its k-th distance
	// is the query's range radius and the bounded solver's threshold.
	kth := make([]float64, len(in.queries))
	for q, v := range in.queries {
		ans, err := st.eng.KNNCtx(ctx, v, knnK)
		if err != nil {
			return nil, fmt.Errorf("warm-up query %d: %w", q, err)
		}
		kth[q] = ans.Results[len(ans.Results)-1].Dist
	}

	// Untraced replay: the set alone, one client, no spans.
	opsA := in.traced
	opsB := in.traced
	if sp.Ingest { // writes cannot be replayed twice: the traced replay takes the second half
		opsA, opsB = in.traced[:len(in.traced)/2], in.traced[len(in.traced)/2:]
	}
	walAppends0 := walAppends(st.set)
	var plainMS []float64
	for i, o := range opsA {
		switch o.Kind {
		case opKNN:
			t0 := time.Now()
			_, err = st.set.KNN(ctx, in.queries[o.Arg], knnK)
			plainMS = append(plainMS, ms(time.Since(t0)))
		case opRange:
			_, err = st.set.Range(ctx, in.queries[o.Arg], kth[o.Arg])
		default:
			err = st.mutate(in, o)
		}
		if err != nil {
			return nil, fmt.Errorf("untraced op %d: %w", i, err)
		}
	}

	m0 := st.eng.Metrics()
	tr := &tracer{t0: time.Now()}
	to, err := st.replay(tr, in, opsB, kth)
	if err != nil {
		return nil, err
	}
	m1 := st.eng.Metrics()
	res.Attempted = to.ops

	// Allocation per query, on the single engine alone.
	const allocQueries = 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for q := 0; q < allocQueries; q++ {
		if _, err := st.eng.KNNCtx(ctx, in.queries[q%len(in.queries)], knnK); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)

	pr, err := priceKernels(sp, in, st.eng, kth, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("kernel prices: %w", err)
	}
	// Durability is priced where it is on the path; elsewhere it is 0.
	pp := &persistPrices{}
	var replicaUS float64
	if sp.Ingest {
		if pp, err = pricePersist(in, st.eng, eo, filepath.Join(cfg.tmp, "price")); err != nil {
			return nil, fmt.Errorf("persist prices: %w", err)
		}
		if replicaUS, err = priceReplica(sp, in, filepath.Join(cfg.tmp, "price")); err != nil {
			return nil, fmt.Errorf("replica price: %w", err)
		}
	}

	// A read-only replay never rebuilt a snapshot: mutate the single
	// engine a few times now, last of all, to price the rebuild.
	if len(to.firstMS) == 0 {
		for j := 0; j < 5; j++ {
			if _, err := st.eng.Add("", in.corpus[j]); err != nil {
				return nil, err
			}
			q := in.queries[j%len(in.queries)]
			first := tr.time(depthName[depthFirst], to.ops+j, depthFirst, func() { _, err = st.eng.KNNCtx(ctx, q, knnK) })
			if err != nil {
				return nil, err
			}
			steady := tr.time(depthName[depthEngine], to.ops+j, depthEngine, func() { _, err = st.eng.KNNCtx(ctx, q, knnK) })
			if err != nil {
				return nil, err
			}
			to.firstMS, to.steadyMS = append(to.firstMS, ms(first)), append(to.steadyMS, ms(steady))
		}
	}

	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.traceDir, sp.Name+".spans.jsonl")); err != nil {
			return nil, err
		}
	}

	// ---- the per-layer metrics ----
	nq := float64(len(to.eng))
	p50 := func(name string, v []float64) float64 {
		x, err := percentile(v, 50)
		if err != nil {
			res.Notes = append(res.Notes, name+": "+err.Error())
		}
		return x
	}
	setP50, engP50 := p50("shardset.knn", to.setMS), p50("engine.knn", to.engMS)

	if sp.HTTP {
		self, err := pairedMedian(to.httpMS, to.setMS)
		if err != nil {
			res.Notes = append(res.Notes, "emdserve.self_ms_p50: "+err.Error())
		}
		res.set("emdserve.self_ms_p50", self, len(to.httpMS))
		res.set("emdserve.resp_bytes_per_knn", sum(to.respBytes)/nq, len(to.respBytes))
	} else {
		res.set("emdserve.self_ms_p50", 0, 0)
		res.set("emdserve.resp_bytes_per_knn", 0, 0)
	}

	var pulled, refs, aborted, warm, rows, colsN, nodes, idxPruned, idxCalls, idxUsed float64
	var redEvals, redPruned, s0Evals, s0Pruned float64
	var total, refine, colT, coreT, idxT, predicted time.Duration
	var overhead []float64
	for _, qs := range to.eng {
		pulled += float64(qs.Pulled)
		refs += float64(qs.Refinements)
		aborted += float64(qs.RefinesAborted)
		warm += float64(qs.WarmStartHits)
		rows += float64(qs.RefineRows)
		colsN += float64(qs.RefineCols)
		total += qs.TotalTime
		refine += qs.RefineTime
		overhead = append(overhead, ms(qs.TotalTime-qs.FilterTime-qs.RefineTime))
		if qs.IndexUsed {
			idxUsed++
			nodes += float64(qs.IndexNodesVisited)
			idxPruned += float64(qs.IndexPruned)
		}
		for i, sg := range qs.Stages {
			predicted += pr.stageCost(sg.Name, sg.Evaluations)
			switch {
			case isIndexStage(sg.Name):
				idxT += sg.Duration
				idxCalls += float64(sg.Evaluations)
			case strings.HasPrefix(sg.Name, "Red-EMD"):
				coreT += sg.Duration
				redEvals += float64(sg.Evaluations)
				redPruned += float64(sg.Pruned)
			default: // Q-Red-IM, Red-IM: the columnar scans
				colT += sg.Duration
				if i == 0 {
					s0Evals += float64(sg.Evaluations)
					s0Pruned += float64(sg.Pruned)
				}
			}
		}
	}
	refineEach := ratio(float64(refine), refs) // ns, in situ
	predicted += time.Duration(refineEach * refs)

	res.set("shardset.latency_ratio", ratio(setP50, p50("engine cost", to.engCostMS)), len(to.setMS))
	res.set("shardset.refine_amp", ratio(float64(to.shardRefinements), refs), len(to.eng))
	sm := st.set.Metrics()
	res.set("shardset.retries", float64(sm.Retries), 0)
	res.set("shardset.hedges", float64(sm.Hedges), 0)
	res.set("shardset.degraded_answers", float64(sm.DegradedAnswers), 0)
	res.set("shardset.failovers", float64(sm.Failovers), 0)
	if sm.Retries+sm.Hedges+sm.DegradedAnswers+sm.Failovers != 0 {
		res.fail("healthy run saw retries=%d hedges=%d degraded=%d failovers=%d", sm.Retries, sm.Hedges, sm.DegradedAnswers, sm.Failovers)
	}

	gateSelf, err := pairedMedian(to.gateMS, to.engMS)
	if err != nil {
		res.Notes = append(res.Notes, "gate.self_us_p50: "+err.Error())
	}
	res.set("gate.self_us_p50", gateSelf*1e3, len(to.gateMS))
	var queued, shed int64
	var queueWait time.Duration
	for _, ps := range sm.PerShard {
		queued += ps.Gate.Queued
		shed += ps.Gate.Shed
		queueWait += ps.Gate.QueueWait
	}
	res.set("gate.queued", float64(queued), 0)
	res.set("gate.shed", float64(shed), 0)
	res.set("gate.queue_wait_ms", ms(queueWait), 0)

	res.set("engine.total_ms_p50", engP50, len(to.engMS))
	// A read-only workload has five rebuilds, too few for percentile's
	// ten-beyond rule: the plain median of the paired differences.
	builds, err := pairedDiffs(to.firstMS, to.steadyMS)
	if err != nil {
		res.Notes = append(res.Notes, "engine.snapshot_build_ms: "+err.Error())
	}
	res.set("engine.snapshot_build_ms", median(builds), len(builds))
	res.set("engine.snapshot_builds", float64(m1.SnapshotBuilds-m0.SnapshotBuilds), 0)
	res.set("engine.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/allocQueries, allocQueries)
	res.set("engine.bytes_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/allocQueries, allocQueries)

	res.set("search.pulled_per_query", pulled/nq, len(to.eng))
	res.set("search.refinements_per_query", refs/nq, len(to.eng))
	res.set("search.refines_aborted_frac", ratio(aborted, refs), len(to.eng))
	res.set("search.warm_start_frac", ratio(warm, refs), len(to.eng))
	res.set("search.overhead_ms_p50", p50("search.overhead", overhead), len(overhead))

	res.set("colscan.q_red_im_ns_per_item", pr.qRedIMns, priceQueries*priceScans)
	res.set("colscan.red_im_ns_per_item", pr.redIMns, priceQueries*priceScans)
	res.set("colscan.stage0_pruned_frac", ratio(s0Pruned, s0Evals), len(to.eng))
	res.set("colscan.share", ratio(float64(colT), float64(total)), len(to.eng))

	res.set("core.red_emd_us_per_eval_fine", pr.redEMDus[pr.fine], priceQueries*priceItems)
	res.set("core.red_emd_us_per_eval_coarse", pr.redEMDus[pr.coarse], priceQueries*priceItems)
	res.set("core.red_emd_evals_per_query", redEvals/nq, len(to.eng))
	res.set("core.red_emd_pruned_frac", ratio(redPruned, redEvals), len(to.eng))
	res.set("core.share", ratio(float64(coreT), float64(total)), len(to.eng))

	res.set("index.used_frac", ratio(float64(to.shardIndexed), float64(to.shardAnswers)), to.shardAnswers)
	res.set("index.nodes_per_query", nodes/nq, len(to.eng))
	res.set("index.dist_calls_per_query", idxCalls/nq, len(to.eng))
	res.set("index.pruned_frac", ratio(idxPruned, idxPruned+nodes), len(to.eng))
	res.set("index.share", ratio(float64(idxT), float64(total)), len(to.eng))
	if idxUsed != 0 && idxUsed != nq {
		res.Notes = append(res.Notes, fmt.Sprintf("single engine used its index on %g of %g queries", idxUsed, nq))
	}

	res.set("transport.exact_us_per_solve", pr.exactUS, priceQueries*priceItems)
	res.set("transport.bounded_us_per_solve", pr.boundedUS, priceQueries*priceItems)
	res.set("transport.refine_us_per_refinement", refineEach/1e3, int(refs))
	res.set("transport.avg_rows", ratio(rows, refs), int(refs))
	res.set("transport.avg_cols", ratio(colsN, refs), int(refs))
	res.set("transport.share", ratio(float64(refine), float64(total)), len(to.eng))

	res.set("persist.wal_append_us_p50", pp.walAppendUS, priceAppends)
	res.set("persist.wal_bytes_per_add", pp.walBytesPerAdd, priceAppends)
	res.set("persist.wal_appends_per_op", float64(walAppends(st.set)-walAppends0)/float64(len(opsA)+to.ops), 0)
	res.set("persist.checkpoint_ms", pp.checkpointMS, 1)
	res.set("persist.snapshot_bytes", pp.snapshotBytes, 1)
	res.set("persist.snapshot_load_ms", pp.loadMS, 1)
	res.set("persist.replay_records_per_s", pp.replayPerS, priceAppends)

	res.set("replica.add_overhead_us", replicaUS, priceAppends)
	res.set("replica.lag_records_max", float64(to.lagMax), 0)

	closure := ratio(float64(predicted), float64(total))
	res.set("trace.closure_frac", closure, len(to.eng))
	if closure < 0.7 || closure > 1.3 {
		res.Notes = append(res.Notes, fmt.Sprintf("UNATTRIBUTED: kernel prices x counts explain %.2f of engine time", closure))
	}
	res.set("trace.overhead_frac", ratio(setP50, p50("untraced shardset.knn", plainMS))-1, len(plainMS))
	return res, nil
}

// replay runs ops with one client, calling each layer of the stack
// from outside. The call order alternates, top-down on even ops and
// bottom-up on odd ones, so that no layer always runs on caches the
// one before it warmed.
func (st *stack) replay(tr *tracer, in *inputs, ops []op, kth []float64) (*tracedOps, error) {
	ctx := context.Background()
	to := &tracedOps{}
	dirty := false
	for i, o := range ops {
		to.ops++
		q := in.queries
		switch o.Kind {
		case opAdd, opDelete:
			var err error
			tr.time("mutate", i, depthSet, func() { err = st.mutate(in, o) })
			if err != nil {
				return nil, fmt.Errorf("traced op %d: %w", i, err)
			}
			to.mutations++
			dirty = true
			for s := 0; s < st.set.Shards(); s++ {
				if r, ok := st.set.Replica(s); ok && r.Lag > to.lagMax {
					to.lagMax = r.Lag
				}
			}
			continue
		case opRange:
			var err error
			tr.time("shardset.range", i, depthSet, func() { _, err = st.set.Range(ctx, q[o.Arg], kth[o.Arg]) })
			if err != nil {
				return nil, fmt.Errorf("traced op %d: %w", i, err)
			}
			continue
		}

		var err error
		var setAns *emdsearch.ShardAnswer
		var engAns *emdsearch.KNNAnswer
		var bytes int
		var dur [depthFirst + 1]time.Duration
		if dirty {
			dur[depthFirst] = tr.time(depthName[depthFirst], i, depthFirst, func() { _, err = st.eng.KNNCtx(ctx, q[o.Arg], knnK) })
			if err != nil {
				return nil, fmt.Errorf("traced op %d: %w", i, err)
			}
		}
		calls := [...]func(){
			depthHTTP:   func() { _, bytes, err = st.http.knn(q[o.Arg], knnK) },
			depthSet:    func() { setAns, err = st.set.KNN(ctx, q[o.Arg], knnK) },
			depthGate:   func() { _, err = st.gate.KNN(ctx, q[o.Arg], knnK) },
			depthEngine: func() { engAns, err = st.eng.KNNCtx(ctx, q[o.Arg], knnK) },
		}
		for n := 0; n < len(calls); n++ {
			d := n
			if i%2 == 1 {
				d = len(calls) - 1 - n
			}
			if d == depthHTTP && st.http == nil {
				continue
			}
			dur[d] = tr.time(depthName[d], i, d, calls[d])
			if err != nil {
				return nil, fmt.Errorf("traced op %d, %s: %w", i, depthName[d], err)
			}
		}
		if err := sameResults(setAns.Results, engAns.Results); err != nil {
			return nil, fmt.Errorf("traced op %d: set and single engine disagree: %w", i, err)
		}
		if st.http != nil {
			to.httpMS = append(to.httpMS, ms(dur[depthHTTP]))
			to.respBytes = append(to.respBytes, float64(bytes))
		}
		to.setMS = append(to.setMS, ms(dur[depthSet]))
		to.gateMS = append(to.gateMS, ms(dur[depthGate]))
		to.engMS = append(to.engMS, ms(dur[depthEngine]))
		cost := dur[depthEngine]
		if dirty {
			to.firstMS = append(to.firstMS, ms(dur[depthFirst]))
			to.steadyMS = append(to.steadyMS, ms(dur[depthEngine]))
			cost = dur[depthFirst]
			dirty = false
		}
		to.engCostMS = append(to.engCostMS, ms(cost))
		to.eng = append(to.eng, engAns.Stats)
		for _, ss := range setAns.ShardStats {
			if ss == nil {
				continue
			}
			to.shardAnswers++
			to.shardRefinements += ss.Refinements
			if ss.IndexUsed {
				to.shardIndexed++
			}
		}
	}
	if len(to.eng) == 0 {
		return nil, fmt.Errorf("traced replay of %d ops held no KNN op", len(ops))
	}
	return to, nil
}

// walAppends is the number of records the set's shards have logged.
func walAppends(set *emdsearch.ShardSet) int64 {
	var n int64
	for i := 0; i < set.Shards(); i++ {
		n += set.Engine(i).Metrics().WALAppends
	}
	return n
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
