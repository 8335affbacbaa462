// Quickstart: index a handful of 1-D histograms, build a reduced-EMD
// filter, and run an exact k-NN query.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"emdsearch"
)

func main() {
	const dim = 32 // 32 intensity bins per histogram

	// Ground distance: |i-j| between bins, as in the paper's Figure 1.
	cost := emdsearch.LinearCost(dim)

	// An engine with an 8-dimensional flow-based filter. All queries
	// remain exact; the reduction only prunes EMD computations.
	eng, err := emdsearch.NewEngine(cost, emdsearch.Options{
		ReducedDims: 8,
		SampleSize:  32,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Index 500 noisy histograms around five prototype shapes.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		proto := i % 5
		h := make(emdsearch.Histogram, dim)
		center := 4 + proto*6
		for b := range h {
			d := float64(b - center)
			h[b] = 1/(1+d*d/9) + 0.05*rng.Float64()
		}
		h, err := emdsearch.Normalize(h)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := eng.Add(fmt.Sprintf("proto-%d", proto), h); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		log.Fatal(err)
	}

	// Query with a fresh histogram near prototype 2.
	q := make(emdsearch.Histogram, dim)
	for b := range q {
		d := float64(b - 16)
		q[b] = 1 / (1 + d*d/9)
	}
	if q, err = emdsearch.Normalize(q); err != nil {
		log.Fatal(err)
	}

	results, stats, err := eng.KNN(q, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("5 nearest neighbors (exact EMD):")
	for rank, r := range results {
		fmt.Printf("  %d. object #%d (%s) at distance %.4f\n", rank+1, r.Index, eng.Label(r.Index), r.Dist)
	}
	fmt.Printf("\nThe filter chain refined only %d of %d objects", stats.Refinements, eng.Len())
	for i, e := range stats.StageEvaluations {
		fmt.Printf("; filter stage %d ran %d times", i+1, e)
	}
	fmt.Println(".")
}
