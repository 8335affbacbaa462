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
	if err == nil || err.Error() != "histogram 1 has no mass" {
		t.Fatalf("normalizeAll = %v, want histogram 1 has no mass", err)
	}
	if hs[0][0] != 1.0/6 {
		t.Errorf("histogram 0 = %v, want it normalized before the error", hs[0])
	}
}
