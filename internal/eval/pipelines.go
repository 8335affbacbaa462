package eval

import (
	"context"
	"fmt"
	"time"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/lb"
	"emdsearch/internal/pca"
	"emdsearch/internal/search"
)

// Pipeline identifies one query-processing setup compared in the
// experiments (Figure 10 of the paper and its ablations).
type Pipeline string

const (
	// PipelineScan is the exhaustive sequential scan with the exact EMD.
	PipelineScan Pipeline = "SeqScan"
	// PipelineIMFull filters with LB_IM at the original dimensionality.
	PipelineIMFull Pipeline = "IM-Full"
	// PipelineRedEMD filters with the reduced EMD only.
	PipelineRedEMD Pipeline = "Red-EMD"
	// PipelineChain is the paper's full chain: Red-IM, then Red-EMD,
	// then exact EMD refinement.
	PipelineChain Pipeline = "Red-IM+Red-EMD"
)

// AllPipelines lists the pipelines in presentation order.
func AllPipelines() []Pipeline {
	return []Pipeline{PipelineScan, PipelineIMFull, PipelineRedEMD, PipelineChain}
}

// NewSearcher assembles the multistep searcher for one pipeline over
// the given database vectors and ground distance. red may be nil for
// the pipelines that use no reduction.
func NewSearcher(p Pipeline, vectors []emd.Histogram, cost emd.CostMatrix, red *core.Reduction) (*search.Searcher, error) {
	dist, err := emd.NewDist(cost)
	if err != nil {
		return nil, err
	}
	s := &search.Searcher{
		N:      len(vectors),
		Refine: search.ExactRefine(func(q emd.Histogram, i int) float64 { return dist.Distance(q, vectors[i]) }),
		// The paper's chain (Figure 12) finishes every filter evaluation,
		// so the per-stage evaluation counts the tables report are counts
		// of computed filter distances.
		Oblivious: true,
	}
	switch p {
	case PipelineScan:
		return s, nil

	case PipelineIMFull:
		im, err := lb.NewIM(cost)
		if err != nil {
			return nil, err
		}
		s.Stages = []search.FilterStage{{
			Name:         "IM-Full",
			PrepareQuery: func(q emd.Histogram) emd.Histogram { return q },
			Distance:     search.Exact(func(q emd.Histogram, i int) float64 { return im.Distance(q, vectors[i]) }),
		}}
		return s, nil

	case PipelineRedEMD, PipelineChain:
		if red == nil {
			return nil, fmt.Errorf("eval: pipeline %s needs a reduction", p)
		}
		reduced, err := core.NewReducedEMD(cost, red, red)
		if err != nil {
			return nil, err
		}
		reducedVecs := make([]emd.Histogram, len(vectors))
		for i, v := range vectors {
			reducedVecs[i] = red.Apply(v)
		}
		redEMDStage := search.FilterStage{
			Name:         "Red-EMD",
			PrepareQuery: red.Apply,
			Distance:     search.Exact(func(qr emd.Histogram, i int) float64 { return reduced.DistanceReduced(qr, reducedVecs[i]) }),
		}
		if p == PipelineRedEMD {
			s.Stages = []search.FilterStage{redEMDStage}
			return s, nil
		}
		im, err := lb.NewIM(reduced.Cost())
		if err != nil {
			return nil, err
		}
		s.Stages = []search.FilterStage{
			{
				Name:         "Red-IM",
				PrepareQuery: red.Apply,
				Distance:     search.Exact(func(qr emd.Histogram, i int) float64 { return im.Distance(qr, reducedVecs[i]) }),
			},
			redEMDStage,
		}
		return s, nil
	}
	return nil, fmt.Errorf("eval: unknown pipeline %q", p)
}

// RunResult aggregates per-query statistics over a workload.
type RunResult struct {
	Queries        int
	AvgRefinements float64
	// AvgStageEvals holds the average number of filter evaluations per
	// stage (empty for the scan pipeline).
	AvgStageEvals []float64
	// AvgQueryTime is the mean wall-clock time per query.
	AvgQueryTime time.Duration
	// Recall is the fraction of exact k-NN results the pipeline
	// returned; any value below 1 indicates a completeness bug.
	Recall float64
}

// RunKNN executes the k-NN workload on the searcher and, when
// reference is non-nil, verifies the results against it (the exact
// answer per query, index sets compared distance-insensitively).
func RunKNN(s *search.Searcher, queries []emd.Histogram, k int, reference [][]search.Result) (*RunResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("eval: empty workload")
	}
	res := &RunResult{Queries: len(queries), Recall: 1}
	var hits, total int
	start := time.Now()
	for qi, q := range queries {
		out, err := s.KNN(context.Background(), search.KNNQuery{Q: q, K: k})
		if err != nil {
			return nil, err
		}
		results, stats := out.Results, out.Stats
		res.AvgRefinements += float64(stats.Refinements)
		if len(res.AvgStageEvals) < len(stats.StageEvaluations) {
			res.AvgStageEvals = make([]float64, len(stats.StageEvaluations))
		}
		for i, e := range stats.StageEvaluations {
			res.AvgStageEvals[i] += float64(e)
		}
		if reference != nil {
			want := reference[qi]
			got := make(map[int]bool, len(results))
			for _, r := range results {
				got[r.Index] = true
			}
			for _, w := range want {
				total++
				if got[w.Index] {
					hits++
				}
			}
		}
	}
	elapsed := time.Since(start)
	n := float64(len(queries))
	res.AvgRefinements /= n
	for i := range res.AvgStageEvals {
		res.AvgStageEvals[i] /= n
	}
	res.AvgQueryTime = elapsed / time.Duration(len(queries))
	if reference != nil && total > 0 {
		res.Recall = float64(hits) / float64(total)
	}
	return res, nil
}

// ExactKNN computes the reference answers for a workload by
// exhaustive scan.
func ExactKNN(vectors []emd.Histogram, cost emd.CostMatrix, queries []emd.Histogram, k int) ([][]search.Result, error) {
	dist, err := emd.NewDist(cost)
	if err != nil {
		return nil, err
	}
	out := make([][]search.Result, len(queries))
	for qi, q := range queries {
		results, _, err := search.LinearScanKNN(len(vectors), func(i int) float64 {
			return dist.Distance(q, vectors[i])
		}, k)
		if err != nil {
			return nil, err
		}
		out[qi] = results
	}
	return out, nil
}

// TightnessRatio measures filter quality directly: the mean ratio of
// filter distance to exact distance over up to maxPairs random-ish
// pairs (deterministic stride sampling). Ratios close to 1 mean a
// tight lower bound.
func TightnessRatio(filter func(x, y emd.Histogram) float64, vectors []emd.Histogram, cost emd.CostMatrix, maxPairs int) (float64, error) {
	dist, err := emd.NewDist(cost)
	if err != nil {
		return 0, err
	}
	n := len(vectors)
	if n < 2 {
		return 0, fmt.Errorf("eval: need >= 2 vectors for tightness measurement")
	}
	var sum float64
	pairs := 0
	stride := n/2 + 1
	for i := 0; i < n && pairs < maxPairs; i++ {
		j := (i*stride + 1) % n
		if j == i {
			continue
		}
		exact := dist.Distance(vectors[i], vectors[j])
		if exact < 1e-12 {
			continue
		}
		f := filter(vectors[i], vectors[j])
		if f > exact+1e-9 {
			return 0, fmt.Errorf("eval: filter overestimates: %g > %g for pair (%d,%d)", f, exact, i, j)
		}
		sum += f / exact
		pairs++
	}
	if pairs == 0 {
		return 0, fmt.Errorf("eval: no usable pairs for tightness measurement")
	}
	return sum / float64(pairs), nil
}

// pcaStage wraps a PCA soft reduction as a filter stage over
// precomputed reduced database vectors (the Fig20 ablation).
func pcaStage(soft *pca.SoftReduction, reducedVecs []emd.Histogram) search.FilterStage {
	return search.FilterStage{
		Name:         "PCA",
		PrepareQuery: soft.Apply,
		Distance: search.Exact(func(qr emd.Histogram, i int) float64 {
			return soft.DistanceReduced(qr, reducedVecs[i])
		}),
	}
}

// asymStage wraps an asymmetric reduced EMD (R1 = identity, R2 =
// database reduction) as a filter stage (the Fig21 experiment). The
// query stays at full dimensionality; the filter EMD is rectangular.
func asymStage(asym *core.ReducedEMD, reducedVecs []emd.Histogram) search.FilterStage {
	return search.FilterStage{
		Name:         "Asym-Red-EMD",
		PrepareQuery: func(q emd.Histogram) emd.Histogram { return q },
		Distance: search.Exact(func(q emd.Histogram, i int) float64 {
			return asym.DistanceReduced(q, reducedVecs[i])
		}),
	}
}
