// Command emdgen generates one of the synthetic evaluation corpora and
// writes it as an unreduced engine snapshot that cmd/emdquery (and any
// code calling emdsearch.LoadEngineFile with the corpus's cost matrix)
// can open.
//
// Usage:
//
//	emdgen -dataset retina|irma|color|music|words|gaussian -n 1000 -seed 1 -out retina.snap
package main

import (
	"flag"
	"fmt"
	"os"

	"emdsearch/internal/data"

	emdsearch "emdsearch"
)

func main() {
	var (
		dataset = flag.String("dataset", "retina", "corpus: retina, irma, color, music, words, gaussian")
		n       = flag.Int("n", 1000, "number of objects")
		dim     = flag.Int("dim", 48, "dimensionality (music and words corpora only)")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "", "output file (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "emdgen: -out is required")
		os.Exit(2)
	}

	var ds *data.Dataset
	var err error
	switch *dataset {
	case "retina":
		ds, err = data.Retina(*n, *seed)
	case "irma":
		ds, err = data.IRMA(*n, *seed)
	case "color":
		ds, err = data.ColorImages(*n, *seed)
	case "music":
		ds, err = data.MusicSpectra(*n, *dim, *seed)
	case "words":
		ds, err = data.Words(*n, *dim, *seed)
	case "gaussian":
		ds, err = data.GaussianMixtures(*n, *dim, 3, *seed)
	default:
		fmt.Fprintf(os.Stderr, "emdgen: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	eng, err := emdsearch.NewEngine(ds.Cost, emdsearch.Options{})
	if err != nil {
		fail(err)
	}
	for i, item := range ds.Items {
		if _, err := eng.Add(item.Label, item.Vector); err != nil {
			fail(fmt.Errorf("item %d: %w", i, err))
		}
	}
	if err := eng.SaveFile(*out); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s: %d objects, %d dimensions (%s)\n", *out, eng.Len(), eng.Dim(), ds.Name)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "emdgen: %v\n", err)
	os.Exit(1)
}
