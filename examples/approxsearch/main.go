// Approximate search with certificates: answering k-NN queries
// without a single full-dimensional EMD computation. The engine's
// reduction provides a lower bound (optimal min-cost reduced EMD,
// Definition 5 of the paper) and an upper bound (its max-cost dual);
// together they bracket every exact distance, and ApproxKNN returns
// results plus a certificate of how far off they can possibly be.
//
//	go run ./examples/approxsearch
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"emdsearch"
	"emdsearch/internal/data"
)

func main() {
	const (
		nImages = 2000
		queries = 6
		k       = 10
	)
	fmt.Printf("generating %d retina-like images (96-d tiled features)...\n", nImages+queries)
	ds, err := data.Retina(nImages+queries, 5)
	if err != nil {
		log.Fatal(err)
	}
	vectors, queryVecs, err := ds.Split(queries)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := emdsearch.NewEngine(ds.Cost, emdsearch.Options{
		ReducedDims: 16,
		SampleSize:  48,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, h := range vectors {
		if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	var exactTime, approxTime time.Duration
	var overlap, total int
	for _, q := range queryVecs {
		start := time.Now()
		exact, _, err := eng.KNN(q, k)
		if err != nil {
			log.Fatal(err)
		}
		exactTime += time.Since(start)

		start = time.Now()
		approx, cert, err := eng.ApproxKNN(ctx, q, k)
		if err != nil {
			log.Fatal(err)
		}
		approxTime += time.Since(start)

		want := map[int]bool{}
		for _, r := range exact {
			want[r.Index] = true
		}
		for _, r := range approx {
			total++
			if want[r.Index] {
				overlap++
			}
		}
		_ = cert
	}

	fmt.Printf("\nexact k-NN:      %8v total (%d queries)\n", exactTime.Round(time.Millisecond), queries)
	fmt.Printf("approximate k-NN: %8v total — no full-dimensional LP solves\n", approxTime.Round(time.Millisecond))
	fmt.Printf("overlap with the exact answer: %.0f%%\n", 100*float64(overlap)/float64(total))

	// One query in detail, with its certificate.
	q := queryVecs[0]
	approx, cert, err := eng.ApproxKNN(ctx, q, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsample query: top-5 with distance intervals (certificate: true 5th NN in [%.4f, %.4f], %d of %d candidates examined)\n",
		cert.LowerK, cert.UpperK, cert.Pulled, eng.Len())
	for rank, r := range approx {
		exactD, err := eng.Distance(ctx, q, r.Index) // shown for demonstration only
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d. image #%d (%s): interval [%.4f, %.4f], exact %.4f\n",
			rank+1, r.Index, eng.Label(r.Index), r.Lower, r.Upper, exactD)
	}
}
