// Command emdquery opens an engine snapshot written by emdgen, builds
// the filter-and-refine reduction over it and answers k-NN queries,
// printing the neighbors (with class labels) and the multistep filter
// statistics.
//
// The ground-distance matrix is not serialized with the data; it is
// reconstructed from the corpus type exactly as emdgen built it, so
// -dataset (and -dim/-seed for the music/words corpora) must match the
// generation parameters. The snapshot's cost-matrix fingerprint catches
// a mismatch.
//
// Usage:
//
//	emdgen  -dataset color -n 2000 -out color.snap
//	emdquery -db color.snap -dataset color -dprime 8 -k 10 -query 17
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"emdsearch/internal/data"
	"emdsearch/internal/emd"

	emdsearch "emdsearch"
)

func costFor(dataset string, dim int, seed int64) (emd.CostMatrix, error) {
	switch dataset {
	case "retina":
		pos := emd.GridPositions(data.RetinaTileRows, data.RetinaTileCols)
		return emd.PositionCost(pos, pos, 2)
	case "irma":
		return emd.ScaleCost(emd.LinearCost(data.IRMADim), 1.0/float64(data.IRMADim-1))
	case "color":
		ds, err := data.ColorImages(1, seed)
		if err != nil {
			return nil, err
		}
		return ds.Cost, nil
	case "music":
		return emd.ScaleCost(emd.LinearCost(dim), 1.0/float64(dim-1))
	case "words":
		ds, err := data.Words(1, dim, seed)
		if err != nil {
			return nil, err
		}
		return ds.Cost, nil
	case "gaussian":
		return emd.ScaleCost(emd.LinearCost(dim), 1.0/float64(dim-1))
	}
	return nil, fmt.Errorf("unknown dataset %q", dataset)
}

func main() {
	var (
		dbPath  = flag.String("db", "", "snapshot file written by emdgen (required)")
		dataset = flag.String("dataset", "retina", "corpus type used at generation time")
		dim     = flag.Int("dim", 48, "dimensionality used at generation time (music/words)")
		seed    = flag.Int64("seed", 1, "seed used at generation time (color/words cost reconstruction)")
		dprime  = flag.Int("dprime", 8, "reduced filter dimensionality (0 = exact scan)")
		k       = flag.Int("k", 10, "number of neighbors")
		queryI  = flag.Int("query", 0, "database index used as the query object")
		method  = flag.String("method", "fb-all", "reduction method: fb-all, fb-mod, kmedoids, adjacent")
	)
	flag.Parse()
	if *dbPath == "" {
		fmt.Fprintln(os.Stderr, "emdquery: -db is required")
		os.Exit(2)
	}

	cost, err := costFor(*dataset, *dim, *seed)
	if err != nil {
		fail(err)
	}
	eng, err := emdsearch.LoadEngineFile(*dbPath, cost, emdsearch.Options{
		ReducedDims: *dprime,
		Method:      emdsearch.ReductionMethod(*method),
	})
	if errors.Is(err, emdsearch.ErrConfigMismatch) {
		fail(fmt.Errorf("%w — check -dataset/-dim/-seed", err))
	}
	if err != nil {
		fail(err)
	}
	if *queryI < 0 || *queryI >= eng.Len() {
		fail(fmt.Errorf("query index %d out of range [0, %d)", *queryI, eng.Len()))
	}
	if *dprime > 0 {
		fmt.Printf("building %s reduction to d'=%d over %d objects...\n", *method, *dprime, eng.Len())
		if err := eng.Build(); err != nil {
			fail(err)
		}
	}

	q := eng.Vector(*queryI)
	fmt.Printf("query: object %d (label %q)\n", *queryI, eng.Label(*queryI))
	results, stats, err := eng.KNN(q, *k)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\n%-6s  %-10s  %s\n", "rank", "distance", "object")
	for rank, r := range results {
		fmt.Printf("%-6d  %-10.5f  #%d (%s)\n", rank+1, r.Dist, r.Index, eng.Label(r.Index))
	}
	fmt.Printf("\nfilter statistics: %d refinements of %d objects", stats.Refinements, eng.Len())
	for i, e := range stats.StageEvaluations {
		fmt.Printf(", stage %d evaluated %d", i+1, e)
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "emdquery: %v\n", err)
	os.Exit(1)
}
