package main

import (
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
