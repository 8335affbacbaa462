package emdsearch_test

import (
	"fmt"

	"emdsearch"
)

// The paper's Figure 1: under the Manhattan ground distance, the EMD
// ranks the shifted histogram y closer to x than the unrelated z,
// matching perception where the bin-by-bin L1 distance fails.
func ExampleEMD() {
	x := emdsearch.Histogram{0.5, 0, 0.2, 0, 0.3, 0}
	y := emdsearch.Histogram{0, 0.5, 0, 0.2, 0, 0.3}
	z := emdsearch.Histogram{1, 0, 0, 0, 0, 0}
	cost := emdsearch.LinearCost(6)

	dxy, _ := emdsearch.EMD(x, y, cost)
	dxz, _ := emdsearch.EMD(x, z, cost)
	fmt.Printf("EMD(x,y) = %.1f\n", dxy)
	fmt.Printf("EMD(x,z) = %.1f\n", dxz)
	// Output:
	// EMD(x,y) = 1.0
	// EMD(x,z) = 1.6
}

// Index three histograms, build a reduced filter, and query: the
// engine returns exact EMD neighbors through the lossless filter
// chain.
func ExampleEngine() {
	cost := emdsearch.LinearCost(8)
	eng, _ := emdsearch.NewEngine(cost, emdsearch.Options{
		ReducedDims: 2,
		Method:      emdsearch.KMedoids, // data-independent: no sample needed
	})
	eng.Add("low", emdsearch.Histogram{0.7, 0.3, 0, 0, 0, 0, 0, 0})
	eng.Add("mid", emdsearch.Histogram{0, 0, 0, 0.5, 0.5, 0, 0, 0})
	eng.Add("high", emdsearch.Histogram{0, 0, 0, 0, 0, 0, 0.4, 0.6})
	eng.Build()

	q := emdsearch.Histogram{0, 0, 0.5, 0.5, 0, 0, 0, 0}
	results, _, _ := eng.KNN(q, 2)
	for _, r := range results {
		fmt.Printf("%s %.2f\n", eng.Label(r.Index), r.Dist)
	}
	// Output:
	// mid 1.00
	// low 2.20
}
