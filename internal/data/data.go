// Package data generates the synthetic evaluation corpora standing in
// for the proprietary data sets of Wichterich et al. (SIGMOD 2008); see
// DESIGN.md section 4 for the substitution argument. Every generator
// renders actual procedural "images" (or spectra, or documents) and
// extracts feature histograms from them, so the full feature pipeline
// of a real deployment is exercised: raster -> tiling/quantization ->
// normalized histogram -> ground-distance matrix.
//
// All generators are deterministic in their seed.
package data

import (
	"fmt"
	"math/rand"

	"emdsearch/internal/emd"
	"emdsearch/internal/vecmath"
)

// Item is one generated object.
type Item struct {
	Label  string
	Vector emd.Histogram
}

// Dataset is a generated corpus: histograms with class labels and the
// ground-distance matrix of its feature space.
type Dataset struct {
	Name  string
	Dim   int
	Cost  emd.CostMatrix
	Items []Item
}

// Histograms returns the item vectors (shared, not copied).
func (ds *Dataset) Histograms() []emd.Histogram {
	out := make([]emd.Histogram, len(ds.Items))
	for i := range ds.Items {
		out[i] = ds.Items[i].Vector
	}
	return out
}

// Split partitions the data set into a database part and nQueries
// query histograms drawn from the tail. It fails if fewer than
// nQueries+1 items exist.
func (ds *Dataset) Split(nQueries int) (database []emd.Histogram, queries []emd.Histogram, err error) {
	if nQueries < 1 || nQueries >= len(ds.Items) {
		return nil, nil, fmt.Errorf("data: cannot split %d items into database plus %d queries", len(ds.Items), nQueries)
	}
	cut := len(ds.Items) - nQueries
	all := ds.Histograms()
	return all[:cut], all[cut:], nil
}

// raster is a minimal grayscale image used by the procedural
// renderers.
type raster struct {
	w, h int
	pix  []float64
}

func newRaster(w, h int) *raster {
	return &raster{w: w, h: h, pix: make([]float64, w*h)}
}

func (r *raster) at(x, y int) float64 { return r.pix[y*r.w+x] }

func (r *raster) add(x, y int, v float64) {
	if x < 0 || y < 0 || x >= r.w || y >= r.h {
		return
	}
	r.pix[y*r.w+x] += v
}

// addBlob paints an axis-aligned Gaussian blob.
func (r *raster) addBlob(cx, cy, sigmaX, sigmaY, amp float64) {
	x0 := int(cx - 3*sigmaX)
	x1 := int(cx + 3*sigmaX)
	y0 := int(cy - 3*sigmaY)
	y1 := int(cy + 3*sigmaY)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx := (float64(x) - cx) / sigmaX
			dy := (float64(y) - cy) / sigmaY
			r.add(x, y, amp*gauss(dx)*gauss(dy))
		}
	}
}

// addWalk paints a random-walk stroke (vessel-like structure).
func (r *raster) addWalk(rng *rand.Rand, x, y, dirX, dirY, amp float64, steps int) {
	for s := 0; s < steps; s++ {
		r.add(int(x), int(y), amp)
		r.add(int(x)+1, int(y), amp*0.5)
		r.add(int(x), int(y)+1, amp*0.5)
		dirX += rng.NormFloat64() * 0.3
		dirY += rng.NormFloat64() * 0.3
		norm := vecmath.L2([]float64{dirX, dirY}, []float64{0, 0})
		if norm == 0 {
			dirX, dirY = 1, 0
			norm = 1
		}
		x += dirX / norm
		y += dirY / norm
	}
}

func gauss(t float64) float64 {
	return 1 / (1 + t*t) // light-tailed bump, cheaper than exp
}

// tileHistogram sums raster intensity over a tileRows x tileCols grid
// (row-major) and normalizes. A tiny floor keeps every bin strictly
// positive so histograms stay valid even for dark renders.
func tileHistogram(r *raster, tileRows, tileCols int) emd.Histogram {
	h := make(emd.Histogram, tileRows*tileCols)
	for y := 0; y < r.h; y++ {
		ty := y * tileRows / r.h
		for x := 0; x < r.w; x++ {
			tx := x * tileCols / r.w
			h[ty*tileCols+tx] += r.at(x, y)
		}
	}
	for i := range h {
		h[i] += 1e-9
	}
	return vecmath.Normalize(h)
}
