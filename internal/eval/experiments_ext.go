package eval

import (
	"fmt"
	"sort"
	"time"

	"emdsearch/internal/core"
	"emdsearch/internal/data"
	"emdsearch/internal/emd"
	"emdsearch/internal/lb"
	"emdsearch/internal/search"
	"emdsearch/internal/vptree"
)

// MediumConfig sits between QuickConfig and FullConfig: large enough
// for stable shapes, small enough that the complete suite runs in
// roughly twenty minutes. EXPERIMENTS.md quotes this scale.
func MediumConfig() Config {
	return Config{
		RetinaN:     1200,
		IRMAN:       600,
		ColorN:      1500,
		Queries:     8,
		K:           10,
		SampleSize:  48,
		DPrimes:     []int{2, 4, 8, 16, 32},
		ChainDPrime: 16,
		CheckRecall: false,
		TightPairs:  100,
		Seed:        1,
	}
}

// Fig23 — extension beyond the paper: the classic metric-index
// alternative. A VP-tree over the exact (full-dimensional) EMD prunes
// by the triangle inequality; the paper's filter chain prunes by cheap
// lower bounds. Both are exact. The table reports full-dimensional
// EMD computations per query and wall-clock time for the scan, the
// VP-tree and the chained filter pipeline.
func Fig23(c Config) (*Table, error) {
	w, err := c.retina()
	if err != nil {
		return nil, err
	}
	dist, err := emd.NewDist(w.cost)
	if err != nil {
		return nil, err
	}
	builder, err := NewBuilder(w.cost, sampleOf(w.vectors, c.SampleSize, c.Seed), c.Seed)
	if err != nil {
		return nil, err
	}
	red, _, err := builder.Build(MethodFBAllKMed, c.ChainDPrime)
	if err != nil {
		return nil, err
	}
	chain, err := NewSearcher(PipelineChain, w.vectors, w.cost, red)
	if err != nil {
		return nil, err
	}
	ref, err := c.reference(w)
	if err != nil {
		return nil, err
	}

	buildStart := time.Now()
	tree, err := vptree.Build(len(w.vectors), func(i, j int) float64 {
		return dist.Distance(w.vectors[i], w.vectors[j])
	}, newRand(c.Seed+7))
	if err != nil {
		return nil, err
	}
	treeBuild := time.Since(buildStart)

	t := &Table{
		Title:   fmt.Sprintf("Fig23 (extension): metric index vs filter chain (%s, n=%d, %d-NN)", w.name, len(w.vectors), c.K),
		Columns: []string{"approach", "full_EMDs_per_query", "avg_time_ms", "build_ms"},
	}

	// Sequential scan.
	scan, err := NewSearcher(PipelineScan, w.vectors, w.cost, nil)
	if err != nil {
		return nil, err
	}
	scanRun, err := RunKNN(scan, w.queries, c.K, ref)
	if err != nil {
		return nil, err
	}
	t.AddRow("SeqScan", scanRun.AvgRefinements, elapsedMS(scanRun.AvgQueryTime), 0.0)

	// VP-tree over the exact EMD.
	var vpCalls float64
	vpStart := time.Now()
	for qi, q := range w.queries {
		results, stats, err := tree.KNN(func(i int) float64 {
			return dist.Distance(q, w.vectors[i])
		}, c.K)
		if err != nil {
			return nil, err
		}
		vpCalls += float64(stats.DistanceCalls)
		if ref != nil {
			want := map[int]bool{}
			for _, r := range ref[qi] {
				want[r.Index] = true
			}
			for _, r := range results {
				if !want[r.Index] {
					return nil, fmt.Errorf("eval: Fig23 VP-tree returned wrong neighbor %d", r.Index)
				}
			}
		}
	}
	vpTime := time.Since(vpStart) / time.Duration(len(w.queries))
	t.AddRow("VP-tree(EMD)", vpCalls/float64(len(w.queries)), elapsedMS(vpTime), elapsedMS(treeBuild))

	// Chained filter pipeline.
	chainRun, err := RunKNN(chain, w.queries, c.K, ref)
	if err != nil {
		return nil, err
	}
	t.AddRow(string(PipelineChain), chainRun.AvgRefinements, elapsedMS(chainRun.AvgQueryTime), 0.0)

	t.Notes = append(t.Notes,
		"the VP-tree reduces full EMDs versus the scan, but concentrated high-dimensional EMD distances blunt triangle-inequality pruning; the reduction filter chain needs far fewer full EMDs and no O(n log n) EMD build phase")
	return t, nil
}

// Tab3 — extension: how close do the heuristics get to the exhaustive
// Definition 6 optimum? Feasible only at toy dimensionality (the
// search space is a Stirling number); this is precisely the scale the
// paper's Section 3.2.2 deems the exhaustive search practical for.
func Tab3(c Config) (*Table, error) {
	const d = 8
	ds, err := data.MusicSpectra(60+4, d, c.Seed)
	if err != nil {
		return nil, err
	}
	vectors, queries, err := ds.Split(4)
	if err != nil {
		return nil, err
	}
	dist, err := emd.NewDist(ds.Cost)
	if err != nil {
		return nil, err
	}
	// Range workload: epsilon = exact 3-NN distance per query.
	workload := make([]core.WorkloadQuery, len(queries))
	for qi, q := range queries {
		dists := make([]float64, len(vectors))
		for i, y := range vectors {
			dists[i] = dist.Distance(q, y)
		}
		sort.Float64s(dists)
		workload[qi] = core.WorkloadQuery{Query: q, Epsilon: dists[2]}
	}

	builder, err := NewBuilder(ds.Cost, sampleOf(vectors, c.SampleSize, c.Seed), c.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Tab3 (extension): heuristics vs Definition-6 optimum (%s, d=%d, n=%d, range workload)", ds.Name, d, len(vectors)),
		Columns: []string{"d'", "optimal", "KMed", "FB-Mod-KMed", "FB-All-KMed", "Adjacent", "Random", "search_space"},
	}
	for _, dr := range []int{2, 3, 4} {
		_, optCount, err := core.OptimalReduction(vectors, workload, ds.Cost, dr, 0)
		if err != nil {
			return nil, err
		}
		row := []interface{}{dr, optCount}
		for _, m := range []Method{MethodKMed, MethodFBModKMed, MethodFBAllKMed, MethodAdjacent, MethodRandom} {
			red, _, err := builder.Build(m, dr)
			if err != nil {
				return nil, err
			}
			count, err := core.CandidateCount(vectors, workload, ds.Cost, red)
			if err != nil {
				return nil, err
			}
			if count < optCount {
				return nil, fmt.Errorf("eval: Tab3: %s beat the exhaustive optimum (%d < %d)", m, count, optCount)
			}
			row = append(row, count)
		}
		space, err := core.CountPartitions(d, dr)
		if err != nil {
			return nil, err
		}
		row = append(row, fmt.Sprintf("S(%d,%d)=%d", d, dr, space))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"the flow-based heuristics land within a small factor of the exhaustive optimum at a vanishing fraction of its cost; beyond toy dimensionality the optimum is unreachable (Section 3.2.2)")
	return t, nil
}

// Fig24 — extension: certified approximate search. Compares ApproxKNN
// (reduced-EMD lower bound + greedy-flow upper bound, no exact LP
// solves) against the exact chain: recall of the true k-NN, candidates
// examined, and latency, across d'.
func Fig24(c Config) (*Table, error) {
	w, err := c.retina()
	if err != nil {
		return nil, err
	}
	dist, err := emd.NewDist(w.cost)
	if err != nil {
		return nil, err
	}
	upper, err := lb.NewGreedyUpper(w.cost)
	if err != nil {
		return nil, err
	}
	builder, err := NewBuilder(w.cost, sampleOf(w.vectors, c.SampleSize, c.Seed), c.Seed)
	if err != nil {
		return nil, err
	}
	exactAnswers, err := ExactKNN(w.vectors, w.cost, w.queries, c.K)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Fig24 (extension): certified approximate k-NN (%s, n=%d, %d-NN)", w.name, len(w.vectors), c.K),
		Columns: []string{"d'", "recall", "avg_pulled", "approx_ms", "exact_chain_ms", "avg_cert_width"},
	}
	for _, dPrime := range c.DPrimes {
		if dPrime >= len(w.vectors[0]) {
			continue
		}
		red, _, err := builder.Build(MethodFBAllKMed, dPrime)
		if err != nil {
			return nil, err
		}
		lower, err := core.NewReducedEMD(w.cost, red, red)
		if err != nil {
			return nil, err
		}
		reducedVecs := make([]emd.Histogram, len(w.vectors))
		for i, v := range w.vectors {
			reducedVecs[i] = red.Apply(v)
		}

		var hits, total, pulled int
		var certWidth float64
		start := time.Now()
		for qi, q := range w.queries {
			qr := red.Apply(q)
			lowers := make([]float64, len(w.vectors))
			for i := range lowers {
				lowers[i] = lower.DistanceReduced(qr, reducedVecs[i])
			}
			results, cert, err := search.ApproxKNN(search.NewScanRanking(lowers), func(i int) float64 {
				return upper.Distance(q, w.vectors[i])
			}, c.K)
			if err != nil {
				return nil, err
			}
			pulled += cert.Pulled
			certWidth += cert.UpperK - cert.LowerK
			want := map[int]bool{}
			for _, r := range exactAnswers[qi] {
				want[r.Index] = true
			}
			for _, r := range results {
				total++
				if want[r.Index] {
					hits++
				}
			}
			// Sanity: certificate must bracket the true k-th distance.
			trueKth := exactAnswers[qi][len(exactAnswers[qi])-1].Dist
			if trueKth < cert.LowerK-1e-9 || trueKth > cert.UpperK+1e-9 {
				return nil, fmt.Errorf("eval: Fig24 d'=%d: certificate [%g, %g] misses true k-th %g",
					dPrime, cert.LowerK, cert.UpperK, trueKth)
			}
		}
		approxMS := elapsedMS(time.Since(start)) / float64(len(w.queries))

		chain, err := NewSearcher(PipelineChain, w.vectors, w.cost, red)
		if err != nil {
			return nil, err
		}
		chainRun, err := RunKNN(chain, w.queries, c.K, nil)
		if err != nil {
			return nil, err
		}
		_ = dist
		t.AddRow(dPrime,
			float64(hits)/float64(total),
			float64(pulled)/float64(len(w.queries)),
			approxMS,
			elapsedMS(chainRun.AvgQueryTime),
			certWidth/float64(len(w.queries)))
	}
	t.Notes = append(t.Notes,
		"d' governs how many candidates must be pulled and how narrow the certificate gets; answer quality itself is set by the greedy upper bound's fidelity. The certificate always brackets the true k-th distance and no full-dimensional LP is ever solved")
	return t, nil
}

// Fig25 — extension: hierarchical filter cascades (the generalization
// of the fixed factor-4 hierarchy of [14]). Compares the single-level
// Red-EMD chain against nested 2- and 3-level cascades built by
// composing reductions: per-level filter evaluations, refinements and
// total time.
func Fig25(c Config) (*Table, error) {
	w, err := c.retina()
	if err != nil {
		return nil, err
	}
	ref, err := c.reference(w)
	if err != nil {
		return nil, err
	}
	builder, err := NewBuilder(w.cost, sampleOf(w.vectors, c.SampleSize, c.Seed), c.Seed)
	if err != nil {
		return nil, err
	}
	finest, _, err := builder.Build(MethodFBAllKMed, c.ChainDPrime)
	if err != nil {
		return nil, err
	}

	// Nested coarser levels derived from the finest reduction by
	// clustering its reduced cost matrix.
	reducedCost, err := core.ReduceCost(w.cost, finest, finest)
	if err != nil {
		return nil, err
	}
	coarser := []*core.Reduction{}
	prev := finest
	prevCost := reducedCost
	for _, dr := range []int{c.ChainDPrime / 2, c.ChainDPrime / 4} {
		if dr < 2 {
			break
		}
		innerBuilder, err := NewBuilder(prevCost, nil, c.Seed)
		if err != nil {
			return nil, err
		}
		inner, _, err := innerBuilder.Build(MethodKMed, dr)
		if err != nil {
			return nil, err
		}
		composed, err := core.Compose(prev, inner)
		if err != nil {
			return nil, err
		}
		coarser = append(coarser, composed)
		if prevCost, err = core.ReduceCost(prevCost, inner, inner); err != nil {
			return nil, err
		}
		prev = composed
	}

	t := &Table{
		Title:   fmt.Sprintf("Fig25 (extension): hierarchical cascades (%s, n=%d, finest d'=%d, %d-NN)", w.name, len(w.vectors), c.ChainDPrime, c.K),
		Columns: []string{"levels", "stage_evals", "refinements", "avg_time_ms"},
	}
	dist, err := emd.NewDist(w.cost)
	if err != nil {
		return nil, err
	}
	for nLevels := 1; nLevels <= len(coarser)+1; nLevels++ {
		// Stages coarsest-first: coarser[nLevels-2], ..., finest.
		var levels []*core.Reduction
		for i := nLevels - 2; i >= 0; i-- {
			levels = append(levels, coarser[i])
		}
		levels = append(levels, finest)

		s := &search.Searcher{
			N:      len(w.vectors),
			Refine: search.ExactRefine(func(q emd.Histogram, i int) float64 { return dist.Distance(q, w.vectors[i]) }),
			// As in NewSearcher: the reported evaluations are computations.
			Oblivious: true,
		}
		for _, lr := range levels {
			lr := lr
			lred, err := core.NewReducedEMD(w.cost, lr, lr)
			if err != nil {
				return nil, err
			}
			lvecs := make([]emd.Histogram, len(w.vectors))
			for i, v := range w.vectors {
				lvecs[i] = lr.Apply(v)
			}
			s.Stages = append(s.Stages, search.FilterStage{
				Name:         fmt.Sprintf("Red-EMD-%d", lr.ReducedDims()),
				PrepareQuery: lr.Apply,
				Distance: search.Exact(func(qr emd.Histogram, i int) float64 {
					return lred.DistanceReduced(qr, lvecs[i])
				}),
			})
		}
		run, err := RunKNN(s, w.queries, c.K, ref)
		if err != nil {
			return nil, err
		}
		if run.Recall < 1 {
			return nil, fmt.Errorf("eval: Fig25 %d levels: recall %.3f < 1", nLevels, run.Recall)
		}
		evals := ""
		for i, e := range run.AvgStageEvals {
			if i > 0 {
				evals += "/"
			}
			evals += fmt.Sprintf("%.0f", e)
		}
		t.AddRow(nLevels, evals, run.AvgRefinements, elapsedMS(run.AvgQueryTime))
	}
	t.Notes = append(t.Notes,
		"deeper cascades keep the expensive fine-level filter off most of the database: the coarse level scans everything cheaply, finer levels run on shrinking candidate sets, refinements stay identical (nesting preserves the final filter)")
	return t, nil
}
