package emdsearch

import (
	"fmt"
	"math/rand"
	"testing"

	"emdsearch/internal/core"
	"emdsearch/internal/data"
	"emdsearch/internal/emd"
	"emdsearch/internal/eval"
	"emdsearch/internal/flowred"
	"emdsearch/internal/lb"
	"emdsearch/internal/transport"
)

// ---------------------------------------------------------------------
// Experiment benchmarks: one per table/figure of the evaluation (see
// DESIGN.md section 5). Each iteration regenerates the experiment at
// benchmark scale; run cmd/emdbench -scale full for the paper-scale
// numbers. Recall checking is off here (the test suite covers
// correctness); the experiments' own internal lower-bound assertions
// remain active.
// ---------------------------------------------------------------------

func benchConfig() eval.Config {
	c := eval.QuickConfig()
	c.CheckRecall = false
	return c
}

func benchmarkExperiment(b *testing.B, run func(eval.Config) (*eval.Table, error)) {
	c := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := run(c)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkFig13RefinementsVsDPrime(b *testing.B) { benchmarkExperiment(b, eval.Fig13) }
func BenchmarkFig14QueryTimeVsDPrime(b *testing.B)   { benchmarkExperiment(b, eval.Fig14) }
func BenchmarkFig15PipelinesRetina(b *testing.B)     { benchmarkExperiment(b, eval.Fig15) }
func BenchmarkFig16PipelinesIRMA(b *testing.B)       { benchmarkExperiment(b, eval.Fig16) }
func BenchmarkFig17SampleSize(b *testing.B)          { benchmarkExperiment(b, eval.Fig17) }
func BenchmarkFig18Scalability(b *testing.B)         { benchmarkExperiment(b, eval.Fig18) }
func BenchmarkFig19KSweep(b *testing.B)              { benchmarkExperiment(b, eval.Fig19) }
func BenchmarkTab1PreprocessingCost(b *testing.B)    { benchmarkExperiment(b, eval.Tab1) }
func BenchmarkTab2Tightness(b *testing.B)            { benchmarkExperiment(b, eval.Tab2) }
func BenchmarkFig20PCAAblation(b *testing.B)         { benchmarkExperiment(b, eval.Fig20) }
func BenchmarkFig21AsymmetricReduction(b *testing.B) { benchmarkExperiment(b, eval.Fig21) }
func BenchmarkFig22RangeQueries(b *testing.B)        { benchmarkExperiment(b, eval.Fig22) }
func BenchmarkFig23MetricIndexVsChain(b *testing.B)  { benchmarkExperiment(b, eval.Fig23) }
func BenchmarkTab3OptimalReduction(b *testing.B)     { benchmarkExperiment(b, eval.Tab3) }
func BenchmarkFig24ApproximateSearch(b *testing.B)   { benchmarkExperiment(b, eval.Fig24) }
func BenchmarkFig25HierarchicalCascade(b *testing.B) { benchmarkExperiment(b, eval.Fig25) }

// ---------------------------------------------------------------------
// Micro-benchmarks of the primitives the experiments are built from.
// ---------------------------------------------------------------------

func randomHistogramB(rng *rand.Rand, d int) emd.Histogram {
	h := make(emd.Histogram, d)
	var sum float64
	for i := range h {
		h[i] = rng.Float64()
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

// BenchmarkEMD measures the exact EMD at the dimensionalities that
// matter in the paper: the filter sizes (8, 16), the RETINA features
// (96) and the IRMA features (199). The superlinear growth visible
// here is the entire motivation for dimensionality reduction.
func BenchmarkEMD(b *testing.B) {
	for _, d := range []int{8, 16, 32, 64, 96, 199} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			dist, err := emd.NewDist(emd.LinearCost(d))
			if err != nil {
				b.Fatal(err)
			}
			x := randomHistogramB(rng, d)
			y := randomHistogramB(rng, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist.Distance(x, y)
			}
		})
	}
}

// BenchmarkEMDSolvers compares the two exact solvers.
func BenchmarkEMDSolvers(b *testing.B) {
	const d = 64
	rng := rand.New(rand.NewSource(1))
	x := randomHistogramB(rng, d)
	y := randomHistogramB(rng, d)
	p := transport.Problem{Supply: x, Demand: y, Cost: emd.LinearCost(d)}
	b.Run("simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := transport.SolveSimplex(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ssp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := transport.SolveSSP(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReducedEMD measures the filter distance at typical d'.
func BenchmarkReducedEMD(b *testing.B) {
	const d = 96
	for _, dr := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("dprime=%d", dr), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cost := emd.CostMatrix(emd.LinearCost(d))
			r, err := core.Adjacent(d, dr)
			if err != nil {
				b.Fatal(err)
			}
			red, err := core.NewReducedEMD(cost, r, r)
			if err != nil {
				b.Fatal(err)
			}
			xr := r.Apply(randomHistogramB(rng, d))
			yr := r.Apply(randomHistogramB(rng, d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				red.DistanceReduced(xr, yr)
			}
		})
	}
}

// BenchmarkLBIM measures the independent-minimization filter, the
// cheapest stage of the chain.
func BenchmarkLBIM(b *testing.B) {
	for _, d := range []int{8, 16, 96} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			im, err := lb.NewIM(emd.LinearCost(d))
			if err != nil {
				b.Fatal(err)
			}
			x := randomHistogramB(rng, d)
			y := randomHistogramB(rng, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				im.Distance(x, y)
			}
		})
	}
}

// BenchmarkFlowCollection measures the offline preprocessing step of
// the flow-based reduction (|S| full-dimensional EMDs with flows).
func BenchmarkFlowCollection(b *testing.B) {
	ds, err := data.Retina(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := emd.NewDist(ds.Cost)
	if err != nil {
		b.Fatal(err)
	}
	sample := ds.Histograms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowred.AverageFlows(sample, dist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFBOptimize measures the local search itself (flows
// precomputed), FB-Mod vs FB-All.
func BenchmarkFBOptimize(b *testing.B) {
	ds, err := data.Retina(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := emd.NewDist(ds.Cost)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := flowred.AverageFlows(ds.Histograms(), dist)
	if err != nil {
		b.Fatal(err)
	}
	const dr = 16
	b.Run("fb-mod", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := flowred.OptimizeMod(flowred.BaseAssignment(ds.Dim), dr, flows, ds.Cost, flowred.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fb-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := flowred.OptimizeAll(flowred.BaseAssignment(ds.Dim), dr, flows, ds.Cost, flowred.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineKNNParallel measures single-query latency of the
// parallel refinement pool against the sequential path on a
// refinement-heavy workload: high-dimensional spectra (d = 96, where
// one exact EMD costs milliseconds) under a deliberately coarse filter
// (d' = 6), so most of the query is spent in exact refinements — the
// regime Options.Workers targets.
func BenchmarkEngineKNNParallel(b *testing.B) {
	const d = 96
	ds, err := data.MusicSpectra(260, d, 7)
	if err != nil {
		b.Fatal(err)
	}
	vectors, queries, err := ds.Split(4)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, -1} {
		name := "sequential"
		if workers != 1 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := NewEngine(ds.Cost, Options{ReducedDims: 6, SampleSize: 24, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			for i, h := range vectors {
				if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Build(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.KNN(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefineKernel isolates the refinement kernel itself: one
// pooled solver over a stream of random d=32 histogram pairs, the
// legacy validating kernel against the trusted bounded kernel run to
// optimality (sparsity reduction active, no aborts).
func BenchmarkRefineKernel(b *testing.B) {
	const d = 32
	rng := rand.New(rand.NewSource(3))
	dist, err := emd.NewDist(emd.LinearCost(d))
	if err != nil {
		b.Fatal(err)
	}
	q := randomHistogramB(rng, d)
	cands := make([]emd.Histogram, 64)
	for i := range cands {
		cands[i] = randomHistogramB(rng, d)
	}
	b.Run("unbounded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dist.DistanceValidated(q, cands[i%len(cands)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bounded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dist.Distance(q, cands[i%len(cands)])
		}
	})
}

// BenchmarkRefineEngineKNN measures end-to-end k-NN latency of the
// threshold-aware refinement kernel against the legacy unbounded one
// on the d=32 music-spectra evaluation configuration (the quick-scale
// config of cmd/emdbench -exp refine). Results are byte-identical by
// the bit-identity contract; only the work per candidate differs.
func BenchmarkRefineEngineKNN(b *testing.B) {
	const d = 32
	ds, err := data.MusicSpectra(305, d, 9)
	if err != nil {
		b.Fatal(err)
	}
	vectors, queries, err := ds.Split(5)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		unbounded bool
	}{
		{"unbounded", true},
		{"bounded", false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opts := Options{ReducedDims: 8, SampleSize: 24, unboundedRefine: tc.unbounded}
			eng, err := NewEngine(ds.Cost, opts)
			if err != nil {
				b.Fatal(err)
			}
			for i, h := range vectors {
				if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Build(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.KNN(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineKNN measures end-to-end query latency with and
// without the filter chain on a color-histogram corpus.
func BenchmarkEngineKNN(b *testing.B) {
	ds, err := data.ColorImages(600, 2)
	if err != nil {
		b.Fatal(err)
	}
	vectors, queries, err := ds.Split(4)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		dprime    int
		positions bool
	}{
		{"scan", 0, false},
		{"filtered-dprime8", 8, false},
		{"indexed-centroid-dprime8", 8, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opts := Options{ReducedDims: tc.dprime, SampleSize: 24}
			if tc.positions {
				opts.Positions = ds.Positions
			}
			eng, err := NewEngine(ds.Cost, opts)
			if err != nil {
				b.Fatal(err)
			}
			for i, h := range vectors {
				if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Build(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.KNN(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
