// Command emddist computes Earth Mover's Distances between histograms
// read from files. Each input file holds one histogram per line as
// whitespace-separated numbers; all histograms must share one
// dimensionality. The ground distance is chosen with -cost, or read
// from a file of bin positions (-positions, one position per line)
// with the -p norm.
//
// Examples:
//
//	emddist -cost linear a.txt b.txt            # all pairs between files
//	emddist -cost modulo -normalize a.txt       # all pairs within one file
//	emddist -positions bins.txt -p 2 a.txt b.txt
//	emddist -cost linear -partial a.txt b.txt   # unequal-mass partial EMD
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"emdsearch/internal/data"
	"emdsearch/internal/emd"
)

func main() {
	var (
		costKind  = flag.String("cost", "linear", "ground distance: linear, modulo, or use -positions")
		positions = flag.String("positions", "", "file of bin positions (one per line) for a positional ground distance")
		p         = flag.Float64("p", 2, "Minkowski order for -positions")
		normalize = flag.Bool("normalize", false, "normalize histograms to total mass 1 before computing")
		partial   = flag.Bool("partial", false, "compute the unequal-mass partial EMD (implies no normalization check)")
		penalty   = flag.Float64("penalty", 0, "with -partial: per-unit penalty for surplus mass (EMD-hat)")
		withFlow  = flag.Bool("flow", false, "print the optimal flow matrix for each pair")
	)
	flag.Parse()
	files := flag.Args()
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintln(os.Stderr, "emddist: need one or two histogram files")
		os.Exit(2)
	}

	left, err := readHistograms(files[0])
	if err != nil {
		fail(err)
	}
	right := left
	within := true
	if len(files) == 2 {
		right, err = readHistograms(files[1])
		if err != nil {
			fail(err)
		}
		within = false
	}
	if len(left) == 0 || len(right) == 0 {
		fail(fmt.Errorf("no histograms found"))
	}
	d := len(left[0])
	for _, hs := range [][]emd.Histogram{left, right} {
		for i, h := range hs {
			if len(h) != d {
				fail(fmt.Errorf("histogram %d has %d bins, want %d", i, len(h), d))
			}
		}
	}
	if *normalize {
		if err := normalizeAll(left); err != nil {
			fail(err)
		}
		if !within {
			if err := normalizeAll(right); err != nil {
				fail(err)
			}
		}
	}

	cost, err := buildCost(*costKind, *positions, *p, d)
	if err != nil {
		fail(err)
	}
	mode := pairMode{partial: *partial, penalty: *penalty, flow: *withFlow}
	if err := printPairs(os.Stdout, left, right, within, cost, mode); err != nil {
		fail(err)
	}
}

// pairMode selects what printPairs computes for each pair.
type pairMode struct {
	partial bool    // unequal-mass partial EMD
	penalty float64 // with partial: per-unit surplus penalty (EMD-hat)
	flow    bool    // also print the optimal flow (not with partial)
}

// printPairs writes one "i<TAB>j<TAB>distance" line per pair of left
// and right (each unordered pair once when within), followed by the
// pair's flow lines in flow mode. The cost matrix is compiled once for
// the run, and each pair is solved once. An exact pair is solved for
// its flow whether or not the flow is printed: that solve skips the
// canonical polish that the one-shot emd.Distance pays, so its value is
// the float sum over the flow. It can differ from emd.Distance's in the
// last bits (around 1e-14 relative), far below the nine significant
// digits printed.
func printPairs(w io.Writer, left, right []emd.Histogram, within bool, cost emd.CostMatrix, mode pairMode) error {
	dist, err := emd.NewDist(cost)
	if err != nil {
		return err
	}
	for i, x := range left {
		for j, y := range right {
			if within && j <= i {
				continue
			}
			var value float64
			var flow [][]float64
			switch {
			case mode.partial && mode.penalty > 0:
				value, err = emd.PenalizedDistance(x, y, cost, mode.penalty)
			case mode.partial:
				value, err = emd.PartialDistance(x, y, cost)
			default:
				value, flow, err = validatedFlow(dist, x, y)
			}
			if err != nil {
				return fmt.Errorf("pair (%d, %d): %w", i, j, err)
			}
			fmt.Fprintf(w, "%d\t%d\t%.9g\n", i, j, value)
			if !mode.flow {
				continue
			}
			for fi, row := range flow {
				for fj, f := range row {
					if f > 1e-12 {
						fmt.Fprintf(w, "  flow %d -> %d: %.9g\n", fi, fj, f)
					}
				}
			}
		}
	}
	return nil
}

// validatedFlow validates both operands, as emd.Distance does, and
// solves the pair once for its distance and optimal flow.
func validatedFlow(dist *emd.Dist, x, y emd.Histogram) (float64, [][]float64, error) {
	if err := emd.Validate(x); err != nil {
		return 0, nil, fmt.Errorf("emd: source: %w", err)
	}
	if err := emd.Validate(y); err != nil {
		return 0, nil, fmt.Errorf("emd: target: %w", err)
	}
	return dist.DistanceWithFlow(x, y)
}

// normalizeAll scales each histogram of hs to total mass 1 in place. A
// histogram without positive, finite mass has no normalized form.
func normalizeAll(hs []emd.Histogram) error {
	for i, h := range hs {
		n, err := emd.Normalize(h)
		if err != nil {
			return fmt.Errorf("histogram %d: %w", i, err)
		}
		hs[i] = n
	}
	return nil
}

func buildCost(kind, positionsFile string, p float64, d int) (emd.CostMatrix, error) {
	if positionsFile != "" {
		pos, err := readHistograms(positionsFile)
		if err != nil {
			return nil, err
		}
		if len(pos) != d {
			return nil, fmt.Errorf("%d positions for %d bins", len(pos), d)
		}
		coords := make([][]float64, len(pos))
		for i := range pos {
			coords[i] = pos[i]
		}
		return emd.PositionCost(coords, coords, p)
	}
	switch kind {
	case "linear":
		return emd.LinearCost(d), nil
	case "modulo":
		return emd.ModuloCost(d), nil
	}
	return nil, fmt.Errorf("unknown cost %q (want linear, modulo, or -positions)", kind)
}

func readHistograms(path string) ([]emd.Histogram, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vectors, _, err := data.ReadVectors(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make([]emd.Histogram, len(vectors))
	for i, v := range vectors {
		out[i] = v
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "emddist: %v\n", err)
	os.Exit(1)
}
