package eval

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/search"
)

func newRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Tab1 — preprocessing cost per reduction method: sample EMDs, flow
// collection time and optimization time (RETINA-sim, at the chain d').
func Tab1(c Config) (*Table, error) {
	w, err := c.retina()
	if err != nil {
		return nil, err
	}
	builder, err := NewBuilder(w.cost, sampleOf(w.vectors, c.SampleSize, c.Seed), c.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Tab1: preprocessing cost (%s, d'=%d, |S|=%d)", w.name, c.ChainDPrime, c.SampleSize),
		Columns: []string{"method", "sample_EMDs", "flow_ms", "optimize_ms", "total_ms"},
	}
	for _, m := range AllMethods() {
		_, bs, err := builder.Build(m, c.ChainDPrime)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(m), bs.SampleEMDs, elapsedMS(bs.FlowTime), elapsedMS(bs.OptimizeTime),
			elapsedMS(bs.FlowTime+bs.OptimizeTime))
	}
	t.Notes = append(t.Notes,
		"flow collection dominates the flow-based methods and is shared across them and across all d'; it is a one-time offline cost")
	return t, nil
}

// Tab2 — filter tightness: mean reducedEMD/EMD ratio per method and
// d' (closer to 1 is better).
func Tab2(c Config) (*Table, error) {
	w, err := c.retina()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Tab2: lower-bound tightness ratio (%s)", w.name),
		Columns: append([]string{"d'"}, methodNames()...),
	}
	results := map[int]map[Method]float64{}
	err = c.methodSweep(w, func(m Method, dPrime int, red *core.Reduction, _ *BuildStats) error {
		reduced, err := core.NewReducedEMD(w.cost, red, red)
		if err != nil {
			return err
		}
		ratio, err := TightnessRatio(reduced.Distance, w.vectors, w.cost, c.TightPairs)
		if err != nil {
			return err
		}
		if results[dPrime] == nil {
			results[dPrime] = map[Method]float64{}
		}
		results[dPrime][m] = ratio
		return nil
	})
	if err != nil {
		return nil, err
	}
	fillSweepRows(t, results, c.DPrimes)
	t.Notes = append(t.Notes, sweepWinners(results, c.DPrimes, true))
	return t, nil
}

// Fig20 — the PCA ablation: tightness and candidate counts of the
// PCA-based general linear reduction vs the combining reductions, per
// d' (reproducing the paper's Section 3.2 observation).
func Fig20(c Config) (*Table, error) {
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
	t := &Table{
		Title:   fmt.Sprintf("Fig20: PCA ablation (%s)", w.name),
		Columns: []string{"d'", "pca_tightness", "fb_tightness", "pca_refinements", "fb_refinements"},
	}
	for _, dPrime := range c.DPrimes {
		if dPrime < 2 || dPrime >= len(w.vectors[0]) {
			continue
		}
		soft, err := pcaFor(w, c, dPrime)
		if err != nil {
			return nil, err
		}
		pcaTight, err := TightnessRatio(soft.Distance, w.vectors, w.cost, c.TightPairs)
		if err != nil {
			return nil, err
		}
		fbRed, _, err := builder.Build(MethodFBAllKMed, dPrime)
		if err != nil {
			return nil, err
		}
		fb, err := core.NewReducedEMD(w.cost, fbRed, fbRed)
		if err != nil {
			return nil, err
		}
		fbTight, err := TightnessRatio(fb.Distance, w.vectors, w.cost, c.TightPairs)
		if err != nil {
			return nil, err
		}

		// Candidate counts through the searcher, PCA as a custom stage.
		pcaVecs := make([]emd.Histogram, len(w.vectors))
		for i, v := range w.vectors {
			pcaVecs[i] = soft.Apply(v)
		}
		pcaSearcher, err := NewSearcher(PipelineScan, w.vectors, w.cost, nil)
		if err != nil {
			return nil, err
		}
		pcaSearcher.Stages = append(pcaSearcher.Stages, pcaStage(soft, pcaVecs))
		pcaRun, err := RunKNN(pcaSearcher, w.queries, c.K, ref)
		if err != nil {
			return nil, err
		}
		if pcaRun.Recall < 1 {
			return nil, fmt.Errorf("eval: Fig20 PCA d'=%d: recall %.3f < 1", dPrime, pcaRun.Recall)
		}
		fbSearcher, err := NewSearcher(PipelineRedEMD, w.vectors, w.cost, fbRed)
		if err != nil {
			return nil, err
		}
		fbRun, err := RunKNN(fbSearcher, w.queries, c.K, ref)
		if err != nil {
			return nil, err
		}
		t.AddRow(dPrime, pcaTight, fbTight, pcaRun.AvgRefinements, fbRun.AvgRefinements)
	}
	t.Notes = append(t.Notes,
		"the PCA-based general linear reduction is drastically looser than the combining reduction at every d' (paper Section 3.2: 'very poor retrieval efficiency')")
	return t, nil
}

// Fig21 — asymmetric reductions: R1 = identity on the query side vs
// the symmetric R1 = R2, comparing tightness and candidates per d'.
func Fig21(c Config) (*Table, error) {
	w, err := c.retina()
	if err != nil {
		return nil, err
	}
	builder, err := NewBuilder(w.cost, sampleOf(w.vectors, c.SampleSize, c.Seed), c.Seed)
	if err != nil {
		return nil, err
	}
	d := len(w.vectors[0])
	t := &Table{
		Title:   fmt.Sprintf("Fig21: asymmetric query reduction (%s)", w.name),
		Columns: []string{"d'", "sym_tightness", "asym_tightness", "sym_refinements", "asym_refinements"},
	}
	ref, err := c.reference(w)
	if err != nil {
		return nil, err
	}
	for _, dPrime := range c.DPrimes {
		if dPrime >= d {
			continue
		}
		red, _, err := builder.Build(MethodFBAllKMed, dPrime)
		if err != nil {
			return nil, err
		}
		sym, err := core.NewReducedEMD(w.cost, red, red)
		if err != nil {
			return nil, err
		}
		asym, err := core.NewReducedEMD(w.cost, core.Identity(d), red)
		if err != nil {
			return nil, err
		}
		symTight, err := TightnessRatio(sym.Distance, w.vectors, w.cost, c.TightPairs)
		if err != nil {
			return nil, err
		}
		asymTight, err := TightnessRatio(asym.Distance, w.vectors, w.cost, c.TightPairs)
		if err != nil {
			return nil, err
		}

		reducedVecs := make([]emd.Histogram, len(w.vectors))
		for i, v := range w.vectors {
			reducedVecs[i] = red.Apply(v)
		}
		symSearcher, err := NewSearcher(PipelineRedEMD, w.vectors, w.cost, red)
		if err != nil {
			return nil, err
		}
		symRun, err := RunKNN(symSearcher, w.queries, c.K, ref)
		if err != nil {
			return nil, err
		}
		asymSearcher, err := NewSearcher(PipelineScan, w.vectors, w.cost, nil)
		if err != nil {
			return nil, err
		}
		asymSearcher.Stages = append(asymSearcher.Stages, asymStage(asym, reducedVecs))
		asymRun, err := RunKNN(asymSearcher, w.queries, c.K, ref)
		if err != nil {
			return nil, err
		}
		if symRun.Recall < 1 || asymRun.Recall < 1 {
			return nil, fmt.Errorf("eval: Fig21 d'=%d: recall below 1", dPrime)
		}
		t.AddRow(dPrime, symTight, asymTight, symRun.AvgRefinements, asymRun.AvgRefinements)
	}
	t.Notes = append(t.Notes,
		"keeping the query unreduced (R1 = identity) yields tighter bounds and fewer candidates at the same database-side d'; the filter EMD becomes rectangular (d x d') and thus costlier per evaluation")
	return t, nil
}

// Fig22 — range-query selectivity: candidates per filter across eps
// values chosen as quantiles of the exact distance distribution.
func Fig22(c Config) (*Table, error) {
	w, err := c.retina()
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
	dist, err := emd.NewDist(w.cost)
	if err != nil {
		return nil, err
	}
	// Distance distribution from the first query against the database.
	q0 := w.queries[0]
	dists := make([]float64, len(w.vectors))
	for i, v := range w.vectors {
		dists[i] = dist.Distance(q0, v)
	}
	sort.Float64s(dists)
	quantile := func(p float64) float64 {
		idx := int(p * float64(len(dists)-1))
		return dists[idx]
	}
	t := &Table{
		Title:   fmt.Sprintf("Fig22: range queries on %s (n=%d, d'=%d)", w.name, len(w.vectors), c.ChainDPrime),
		Columns: []string{"eps_quantile", "eps", "avg_results", "avg_refinements", "avg_redEMD_evals"},
	}
	for _, p := range []float64{0.001, 0.01, 0.05, 0.1, 0.25} {
		eps := quantile(p)
		var results, refinements, evals float64
		for _, q := range w.queries {
			res, stats, err := chain.Range(context.Background(), search.RangeQuery{Q: q, Eps: eps})
			if err != nil {
				return nil, err
			}
			results += float64(len(res))
			refinements += float64(stats.Refinements)
			if len(stats.StageEvaluations) == 2 {
				evals += float64(stats.StageEvaluations[1])
			}
			// Completeness check against a direct scan.
			if c.CheckRecall {
				count := 0
				for _, v := range w.vectors {
					if dist.Distance(q, v) <= eps {
						count++
					}
				}
				if count != len(res) {
					return nil, fmt.Errorf("eval: Fig22 eps=%g: %d results, scan finds %d", eps, len(res), count)
				}
			}
		}
		n := float64(len(w.queries))
		t.AddRow(fmt.Sprintf("%.3f", p), eps, results/n, refinements/n, evals/n)
	}
	t.Notes = append(t.Notes, "for selective ranges the chain refines barely more objects than it returns")
	return t, nil
}

// Experiments maps experiment identifiers to their drivers; the order
// follows DESIGN.md's experiment index.
func Experiments() []struct {
	ID  string
	Run func(Config) (*Table, error)
} {
	return []struct {
		ID  string
		Run func(Config) (*Table, error)
	}{
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"fig15", Fig15},
		{"fig16", Fig16},
		{"fig17", Fig17},
		{"fig18", Fig18},
		{"fig19", Fig19},
		{"tab1", Tab1},
		{"tab2", Tab2},
		{"fig20", Fig20},
		{"fig21", Fig21},
		{"fig22", Fig22},
		{"fig23", Fig23},
		{"tab3", Tab3},
		{"fig24", Fig24},
		{"fig25", Fig25},
	}
}
