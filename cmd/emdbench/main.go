// Command emdbench regenerates the paper's evaluation (see DESIGN.md
// section 5 for the experiment index). It runs one or all experiments
// at full or quick scale and prints each result as an aligned ASCII
// table (or CSV).
//
// Usage:
//
//	emdbench [-exp all|fig13..fig25|tab1..tab3] [-scale full|medium|quick] [-csv] [-seed N]
//	         [-dprime D] [-check-recall]
//
// The full scale approximates the paper's corpus sizes and can take
// tens of minutes for the complete suite; quick finishes in a couple
// of minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"emdsearch/internal/eval"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiment id (fig13..fig25, tab1..tab3) or 'all'")
		scaleFlag = flag.String("scale", "quick", "experiment scale: full, medium or quick")
		csvFlag   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		seedFlag  = flag.Int64("seed", 0, "override the experiment seed (0 keeps the default)")
		dprime    = flag.Int("dprime", 0, "override the chain d' used by the pipeline experiments (0 keeps the scale default)")
		recall    = flag.Bool("check-recall", false, "verify every pipeline result against an exhaustive scan (slow)")
	)
	flag.Parse()

	var cfg eval.Config
	switch *scaleFlag {
	case "full":
		cfg = eval.FullConfig()
	case "medium":
		cfg = eval.MediumConfig()
	case "quick":
		cfg = eval.QuickConfig()
	default:
		fmt.Fprintf(os.Stderr, "emdbench: unknown scale %q (want full, medium or quick)\n", *scaleFlag)
		os.Exit(2)
	}
	if *seedFlag != 0 {
		cfg.Seed = *seedFlag
	}
	if *dprime != 0 {
		cfg.ChainDPrime = *dprime
	}
	if *recall {
		cfg.CheckRecall = true
	}

	ran := 0
	for _, exp := range eval.Experiments() {
		if *expFlag != "all" && exp.ID != *expFlag {
			continue
		}
		ran++
		start := time.Now()
		table, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "emdbench: %s: %v\n", exp.ID, err)
			os.Exit(1)
		}
		if *csvFlag {
			fmt.Printf("# %s\n%s\n", table.Title, table.CSV())
		} else {
			fmt.Println(table.String())
		}
		fmt.Printf("(%s finished in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "emdbench: unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
}
