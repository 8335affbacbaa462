// Phishing detection: EMD over word-frequency histograms of web pages
// (the paper's introduction cites EMD-based phishing detection). This
// example goes below the Engine facade to demonstrate the asymmetric
// reduction of Section 3.2: the database is reduced to d' dimensions
// for cheap filtering while the query stays at full dimensionality
// (R1 = identity, R2 = flow-based), which yields a tighter — though
// per-evaluation costlier — rectangular filter EMD. It exits non-zero
// if the two pipelines' answers differ or the asymmetric filter needs
// more refinements than the symmetric one.
//
//	go run ./examples/phishing
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"emdsearch/internal/core"
	"emdsearch/internal/data"
	"emdsearch/internal/emd"
	"emdsearch/internal/flowred"
	"emdsearch/internal/search"
)

func main() {
	const (
		nPages = 800
		vocab  = 64
		dprime = 8
		k      = 10
	)
	fmt.Printf("generating %d page word histograms (vocabulary %d)...\n", nPages+1, vocab)
	ds, err := data.Words(nPages+1, vocab, 21)
	if err != nil {
		log.Fatal(err)
	}
	vectors, queryVecs, err := ds.Split(1)
	if err != nil {
		log.Fatal(err)
	}
	q := queryVecs[0]
	dist, err := emd.NewDist(ds.Cost)
	if err != nil {
		log.Fatal(err)
	}

	// Flow-based reduction for the database side.
	rng := rand.New(rand.NewSource(3))
	sample := flowred.Sample(vectors, 32, rng)
	flows, err := flowred.AverageFlows(sample, dist)
	if err != nil {
		log.Fatal(err)
	}
	r2, _, err := flowred.OptimizeAll(flowred.BaseAssignment(vocab), dprime, flows, ds.Cost, flowred.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Two filters over the same database-side reduction:
	// symmetric (query also reduced) vs asymmetric (query unreduced).
	sym, err := core.NewReducedEMD(ds.Cost, r2, r2)
	if err != nil {
		log.Fatal(err)
	}
	asym, err := core.NewReducedEMD(ds.Cost, core.Identity(vocab), r2)
	if err != nil {
		log.Fatal(err)
	}
	reducedVecs := make([]emd.Histogram, len(vectors))
	for i, v := range vectors {
		reducedVecs[i] = r2.Apply(v)
	}

	run := func(name string, stage search.FilterStage) ([]search.Result, int) {
		s := &search.Searcher{
			N:      len(vectors),
			Stages: []search.FilterStage{stage},
			Refine: search.ExactRefine(func(q emd.Histogram, i int) float64 { return dist.Distance(q, vectors[i]) }),
		}
		out, err := s.KNN(context.Background(), search.KNNQuery{Q: q, K: k})
		if err != nil {
			log.Fatal(err)
		}
		results, stats := out.Results, out.Stats
		fmt.Printf("%-10s filter: %3d refinements; top match #%d (%s) EMD %.4f\n",
			name, stats.Refinements, results[0].Index, ds.Items[results[0].Index].Label, results[0].Dist)
		return results, stats.Refinements
	}

	fmt.Printf("\nsuspicious page resembles topic %q; searching %d known pages (k=%d):\n",
		ds.Items[nPages].Label, nPages, k)
	symResults, symRefined := run("symmetric", search.FilterStage{
		Name:         "Red-EMD",
		PrepareQuery: sym.Source().Apply,
		Distance:     search.Exact(func(qr emd.Histogram, i int) float64 { return sym.DistanceReduced(qr, reducedVecs[i]) }),
	})
	asymResults, asymRefined := run("asymmetric", search.FilterStage{
		Name:         "Asym-Red-EMD",
		PrepareQuery: func(x emd.Histogram) emd.Histogram { return x },
		Distance:     search.Exact(func(qf emd.Histogram, i int) float64 { return asym.DistanceReduced(qf, reducedVecs[i]) }),
	})

	// Both filters lower-bound the EMD, so both answers are the exact
	// k nearest neighbors, bit for bit. The asymmetric reduced EMD
	// dominates the symmetric one item-wise, so KNOP's refinement set
	// can only shrink.
	if len(asymResults) != len(symResults) {
		log.Fatalf("asymmetric filter returned %d neighbors, symmetric %d", len(asymResults), len(symResults))
	}
	for i, r := range symResults {
		if a := asymResults[i]; a.Index != r.Index || math.Float64bits(a.Dist) != math.Float64bits(r.Dist) {
			log.Fatalf("neighbor %d: asymmetric filter gives #%d at %v, symmetric #%d at %v", i, a.Index, a.Dist, r.Index, r.Dist)
		}
	}
	if asymRefined > symRefined {
		log.Fatalf("asymmetric filter refined %d candidates, more than the symmetric filter's %d", asymRefined, symRefined)
	}
	fmt.Println("\nboth pipelines return the exact EMD nearest neighbors; the asymmetric")
	fmt.Println("filter needs no more refinements because its lower bound is tighter.")
}
