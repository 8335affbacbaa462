package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	emdsearch "emdsearch"
	"emdsearch/internal/cluster"
	"emdsearch/internal/colscan"
	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/lb"
	"emdsearch/internal/persist"
)

// Sample sizes of the kernel prices: a few hundred calls per kernel is
// some tens of milliseconds each and repeats to a few percent.
const (
	priceQueries = 16 // queries each kernel is priced on
	priceItems   = 32 // items per query for the per-pair kernels
	priceScans   = 8  // full scans per query for the columnar kernels
	priceAppends = 200
)

// prices are the unit costs of the kernels under the engine, measured
// from outside by calling each on the workload's own reduced data.
type prices struct {
	qRedIMns, redIMns float64         // per item of one columnar scan
	redEMDus          map[int]float64 // per evaluation, by reduced dimensionality
	fine, coarse      int             // the finest and coarsest level
	exactUS           float64         // emd.Dist.Distance, cold
	boundedUS         float64         // DistanceBounded at the query's true k-th distance
}

// priceKernels rebuilds the filter levels of eng from its public
// Reduction() and times the kernels on them. kth[q] is query q's k-th
// nearest distance.
//
// The engine exposes only its finest reduction. For a Hierarchy the
// coarsest level is rebuilt the way Build derives it (k-medoids over
// the finer level's reduced cost, composed); it need not be the very
// partition the engine holds, only a Red-EMD of the same shape, which
// is what sets the price.
func priceKernels(sp spec, in *inputs, eng *emdsearch.Engine, kth []float64, seed int64) (*prices, error) {
	rng := rand.New(rand.NewSource(seed))
	assign := eng.Reduction()
	dims := 0
	for _, a := range assign {
		if a+1 > dims {
			dims = a + 1
		}
	}
	fine, err := core.NewReduction(assign, dims)
	if err != nil {
		return nil, fmt.Errorf("rebuild reduction: %w", err)
	}
	levels := []*core.Reduction{fine}
	if h := sp.Opts.Hierarchy; len(h) > 1 {
		fineCost, err := core.ReduceCost(in.cost, fine, fine)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.BestOfRestarts(fineCost, h[len(h)-1], 3, rng)
		if err != nil {
			return nil, err
		}
		coarse, err := core.Compose(fine, cl.Reduction)
		if err != nil {
			return nil, err
		}
		levels = append(levels, coarse)
	}
	p := &prices{redEMDus: map[int]float64{}, fine: dims, coarse: levels[len(levels)-1].ReducedDims()}

	nq := priceQueries
	if nq > len(in.queries) {
		nq = len(in.queries)
	}
	n := len(in.corpus)
	for li, lr := range levels {
		red, err := core.NewReducedEMD(in.cost, lr, lr)
		if err != nil {
			return nil, err
		}
		cols, err := colscan.Build(n, lr.ReducedDims(), sp.Opts.FilterBlockSize,
			func(i int, dst []float64) { copy(dst, lr.Apply(in.corpus[i])) })
		if err != nil {
			return nil, err
		}
		buf := make([]float64, lr.ReducedDims())
		var spent time.Duration
		for q := 0; q < nq; q++ {
			qr := lr.Apply(in.queries[q])
			for j := 0; j < priceItems; j++ {
				row := cols.Gather(rng.Intn(n), buf)
				t0 := time.Now()
				sink += red.DistanceReduced(qr, row)
				spent += time.Since(t0)
			}
		}
		p.redEMDus[lr.ReducedDims()] = us(spent) / float64(nq*priceItems)

		if li < len(levels)-1 {
			continue
		}
		// The columnar stages run on the coarsest level.
		im, err := lb.NewIM(red.Cost())
		if err != nil {
			return nil, err
		}
		var cmax float64
		for _, row := range im.Cost() {
			for _, v := range row {
				if v > cmax {
					cmax = v
				}
			}
		}
		qz, err := colscan.Quantize(cols, cmax)
		if err != nil {
			return nil, err
		}
		qsc, err := colscan.NewQuantScanner(im, qz)
		if err != nil {
			return nil, err
		}
		sc, err := colscan.NewIMScanner(im, cols)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		scan := func(all func(emd.Histogram, []float64) int) float64 {
			t0 := time.Now()
			for q := 0; q < nq; q++ {
				qr := lr.Apply(in.queries[q])
				for r := 0; r < priceScans; r++ {
					all(qr, out)
				}
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(nq*priceScans*n)
		}
		p.qRedIMns = scan(qsc.ScanAll)
		p.redIMns = scan(sc.ScanAll)
	}

	dist, err := emd.NewDist(in.cost)
	if err != nil {
		return nil, err
	}
	var exact, bounded time.Duration
	for q := 0; q < nq; q++ {
		for j := 0; j < priceItems; j++ {
			v := in.corpus[rng.Intn(n)]
			t0 := time.Now()
			sink += dist.Distance(in.queries[q], v)
			t1 := time.Now()
			sink += dist.DistanceBounded(in.queries[q], v, kth[q]).Value
			exact += t1.Sub(t0)
			bounded += time.Since(t1)
		}
	}
	p.exactUS = us(exact) / float64(nq*priceItems)
	p.boundedUS = us(bounded) / float64(nq*priceItems)
	return p, nil
}

// sink keeps the priced calls from being optimised away.
var sink float64

// stageCost prices one filter stage of a QueryStats by its name.
// Unknown names cost nothing, which shows up as a closure_frac below 1.
func (p *prices) stageCost(name string, evaluations int) time.Duration {
	var each float64 // ns
	var d int
	switch {
	case name == "Q-Red-IM":
		each = p.qRedIMns
	case name == "Red-IM":
		each = p.redIMns
	case name == "Red-EMD" || isIndexStage(name):
		each = p.redEMDus[p.fine] * 1e3
	default:
		if _, err := fmt.Sscanf(name, "Red-EMD-%d", &d); err == nil {
			each = p.redEMDus[d] * 1e3
		}
	}
	return time.Duration(each * float64(evaluations))
}

// isIndexStage reports whether a stage name is a metric index's
// ("MTree(Red-EMD)", "VPTree(Red-EMD)"): its evaluations are the
// tree's distance calls, each one Red-EMD at the finest level.
func isIndexStage(name string) bool {
	return len(name) > 9 && name[len(name)-9:] == "(Red-EMD)"
}

// persistPrices are the unit costs of durability on this workload's
// items, measured by direct calls into internal/persist and the
// engine's snapshot functions.
type persistPrices struct {
	walAppendUS, walBytesPerAdd         float64
	checkpointMS, snapshotBytes, loadMS float64
	replayPerS                          float64
}

func pricePersist(in *inputs, eng *emdsearch.Engine, eo emdsearch.Options, dir string) (*persistPrices, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &persistPrices{}
	walPath := filepath.Join(dir, "price.wal")
	w, _, err := persist.OpenWAL(walPath, persist.WALHeader{Dim: len(in.corpus[0]), CostHash: persist.CostHash(in.cost)})
	if err != nil {
		return nil, err
	}
	base := w.Size()
	var lat []float64
	for j := 0; j < priceAppends; j++ {
		rec := persist.WALRecord{Op: persist.WALAdd, ID: j, Vector: in.corpus[j%len(in.corpus)]}
		t0 := time.Now()
		if err := w.Append(rec); err != nil {
			w.Close()
			return nil, err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	p.walBytesPerAdd = float64(w.Size()-base) / priceAppends
	if err := w.Close(); err != nil {
		return nil, err
	}
	if p.walAppendUS, err = percentile(lat, 50); err != nil {
		return nil, err
	}
	// Replay: recover an engine from that log alone.
	t0 := time.Now()
	_, st, err := emdsearch.RecoverEngine(filepath.Join(dir, "absent.snap"), walPath, in.cost, eo)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	p.replayPerS = float64(st.WALRecords) / time.Since(t0).Seconds()

	snapPath := filepath.Join(dir, "price.snap")
	t0 = time.Now()
	if err := eng.Checkpoint(snapPath); err != nil {
		return nil, err
	}
	p.checkpointMS = ms(time.Since(t0))
	info, err := os.Stat(snapPath)
	if err != nil {
		return nil, err
	}
	p.snapshotBytes = float64(info.Size())
	t0 = time.Now()
	if _, err := emdsearch.LoadEngineFile(snapPath, in.cost, eo); err != nil {
		return nil, err
	}
	p.loadMS = ms(time.Since(t0))
	return p, nil
}

// priceReplica returns what a follower adds to one acknowledged Add:
// the paired median of Add latency on a WAL-backed set with
// Replicas: 1 minus the same Add on one with none.
func priceReplica(sp spec, in *inputs, dir string) (float64, error) {
	const bulk = 400
	small := *in
	if len(small.corpus) > bulk {
		small.corpus = small.corpus[:bulk]
	}
	var sets [2]*emdsearch.ShardSet
	for r := range sets {
		d := filepath.Join(dir, fmt.Sprintf("replica-%d", r))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 0, err
		}
		rs := sp
		rs.Ingest = r == 1 // options gives an Ingest set its follower
		set, err := rs.newSet(&small, d)
		if err != nil {
			return 0, err
		}
		defer closeSet(set)
		sets[r] = set
	}
	var lat [2][]float64
	for j := 0; j < priceAppends; j++ {
		v := in.corpus[j%len(in.corpus)]
		for r, set := range sets {
			t0 := time.Now()
			if _, err := set.Add("", v); err != nil {
				return 0, err
			}
			lat[r] = append(lat[r], us(time.Since(t0)))
		}
	}
	if err := sets[1].WaitReplicasCaughtUp(context.Background()); err != nil {
		return 0, err
	}
	return pairedMedian(lat[1], lat[0])
}
