package main

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"emdsearch/internal/emd"
)

// TestNormalizeAllRejectsMasslessHistogram: -normalize on a line of
// zeros is an input error naming the histogram, not a panic.
func TestNormalizeAllRejectsMasslessHistogram(t *testing.T) {
	hs := []emd.Histogram{{1, 2, 3}, {0, 0, 0}}
	err := normalizeAll(hs)
	if want := "histogram 1: emd: histogram mass 0 is not positive and finite"; err == nil || err.Error() != want {
		t.Fatalf("normalizeAll = %v, want %s", err, want)
	}
	if hs[0][0] != 1.0/6 {
		t.Errorf("histogram 0 = %v, want it normalized before the error", hs[0])
	}
}

// TestPrintPairsMatchesOneShot: with the cost compiled once per run,
// every printed distance is the one-shot emd.Distance's, the -flow run
// prints the same value lines, and a bad histogram fails with the
// one-shot error text under the pair's name.
func TestPrintPairsMatchesOneShot(t *testing.T) {
	const d = 8
	rng := rand.New(rand.NewSource(5))
	hs := make([]emd.Histogram, 5)
	for i := range hs {
		h := make(emd.Histogram, d)
		for k := range h {
			if rng.Intn(3) > 0 {
				h[k] = rng.Float64()
			}
		}
		h[rng.Intn(d)] += 0.1
		var err error
		if hs[i], err = emd.Normalize(h); err != nil {
			t.Fatal(err)
		}
	}
	cost := emd.LinearCost(d)
	var want strings.Builder
	for i := range hs {
		for j := i + 1; j < len(hs); j++ {
			v, err := emd.Distance(hs[i], hs[j], cost)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&want, "%d\t%d\t%.9g\n", i, j, v)
		}
	}
	var plain, flow strings.Builder
	if err := printPairs(&plain, hs, hs, true, cost, pairMode{}); err != nil {
		t.Fatal(err)
	}
	if err := printPairs(&flow, hs, hs, true, cost, pairMode{flow: true}); err != nil {
		t.Fatal(err)
	}
	if plain.String() != want.String() {
		t.Errorf("plain run printed\n%s\nthe one-shot distances are\n%s", plain.String(), want.String())
	}
	var values []string
	flowLines := 0
	for _, line := range strings.SplitAfter(flow.String(), "\n") {
		if strings.HasPrefix(line, "  flow ") {
			flowLines++
		} else {
			values = append(values, line)
		}
	}
	if got := strings.Join(values, ""); got != plain.String() {
		t.Errorf("-flow run's value lines\n%s\ndiffer from the plain run's\n%s", got, plain.String())
	}
	if flowLines == 0 {
		t.Error("-flow run printed no flow")
	}

	bad := []emd.Histogram{hs[0], append(emd.Histogram{0.5}, hs[1][1:]...)}
	_, oneShot := emd.Distance(bad[0], bad[1], cost)
	if oneShot == nil {
		t.Fatal("the bad histogram passed emd.Distance")
	}
	for _, mode := range []pairMode{{}, {flow: true}} {
		err := printPairs(&strings.Builder{}, bad, bad, true, cost, mode)
		if want := "pair (0, 1): " + oneShot.Error(); err == nil || err.Error() != want {
			t.Errorf("flow=%v: err = %v, want %s", mode.flow, err, want)
		}
	}
}
