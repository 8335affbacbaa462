package data

import (
	"fmt"
	"math"
	"math/rand"

	"emdsearch/internal/emd"
	"emdsearch/internal/vecmath"
)

// RetinaTileRows and RetinaTileCols give the 12x8 tiling of the
// retina-like corpus, matching the 96-dimensional tiled features of
// the paper's bioinformatics scenario.
const (
	RetinaTileRows = 12
	RetinaTileCols = 8
	// RetinaDim is the feature dimensionality (96).
	RetinaDim = RetinaTileRows * RetinaTileCols
)

// Retina generates n retina-like images and extracts 96-dimensional
// tiled intensity histograms. Classes model disease severity through
// the number of lesion blobs; vessels emanate from an optic-disc
// location that varies per class, giving the mass the spatial
// correlation structure the reduction heuristics exploit. The ground
// distance is the Euclidean distance between tile centers.
func Retina(n int, seed int64) (*Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("data: Retina needs n >= 1, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	pos := emd.GridPositions(RetinaTileRows, RetinaTileCols)
	cost, err := emd.PositionCost(pos, pos, 2)
	if err != nil {
		return nil, err
	}
	classes := []struct {
		name    string
		lesions int
		vessels int
		discX   float64
		discY   float64
		// anchors are the class-typical lesion regions (fractions of
		// width/height); lesions scatter around them, which gives
		// same-class images strongly overlapping mass distributions —
		// the cluster structure real retrieval corpora exhibit.
		anchors [][2]float64
	}{
		{"healthy", 1, 6, 0.3, 0.5, [][2]float64{{0.3, 0.3}}},
		{"mild", 3, 5, 0.5, 0.2, [][2]float64{{0.7, 0.25}, {0.6, 0.4}}},
		{"moderate", 6, 4, 0.75, 0.6, [][2]float64{{0.25, 0.7}, {0.4, 0.85}}},
		{"severe", 9, 3, 0.5, 0.8, [][2]float64{{0.8, 0.75}, {0.75, 0.5}, {0.5, 0.6}}},
	}
	const w, h = 64, 96
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		cl := classes[rng.Intn(len(classes))]
		img := newRaster(w, h)
		// Faint background vignette centered on the retina; most of
		// the mass lives in the discriminative structures.
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dx := (float64(x) - float64(w)/2) / (float64(w) / 2)
				dy := (float64(y) - float64(h)/2) / (float64(h) / 2)
				img.add(x, y, 0.06*gauss(1.4*math.Hypot(dx, dy)))
			}
		}
		// Vessels from the class's optic-disc location.
		discX := cl.discX*float64(w) + rng.NormFloat64()*2
		discY := cl.discY*float64(h) + rng.NormFloat64()*3
		for v := 0; v < cl.vessels; v++ {
			angle := rng.Float64() * 2 * math.Pi
			img.addWalk(rng, discX, discY, math.Cos(angle), math.Sin(angle), 0.8, 40+rng.Intn(40))
		}
		// Lesions: bright blobs around the class anchor regions.
		nl := cl.lesions + rng.Intn(2)
		for l := 0; l < nl; l++ {
			a := cl.anchors[rng.Intn(len(cl.anchors))]
			cx := a[0]*float64(w) + rng.NormFloat64()*4
			cy := a[1]*float64(h) + rng.NormFloat64()*5
			img.addBlob(cx, cy, 1.5+rng.Float64()*2, 1.5+rng.Float64()*2, 1.4)
		}
		items[i] = Item{Label: cl.name, Vector: tileHistogram(img, RetinaTileRows, RetinaTileCols)}
	}
	return &Dataset{
		Name:  "retina-sim",
		Dim:   RetinaDim,
		Cost:  cost,
		Items: items,
	}, nil
}

// IRMADim is the dimensionality of the radiography-like corpus: a
// 199-level gray-value histogram.
const IRMADim = 199

// IRMA generates n radiography-like images and extracts 199-bin
// gray-level histograms under the linear |i-j| ground distance (scaled
// to [0,1] per level step). Classes model body regions through the
// number, brightness and extent of anatomical structures over a soft
// tissue background.
func IRMA(n int, seed int64) (*Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("data: IRMA needs n >= 1, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	cost, err := emd.ScaleCost(emd.LinearCost(IRMADim), 1.0/float64(IRMADim-1))
	if err != nil {
		return nil, err
	}
	classes := []struct {
		name   string
		bones  int
		level  float64 // bone gray level (bright on radiographs)
		tissue float64 // soft-tissue gray level
	}{
		{"chest", 8, 0.85, 0.35},
		{"skull", 3, 0.95, 0.45},
		{"hand", 12, 0.75, 0.2},
		{"pelvis", 5, 0.9, 0.4},
		{"spine", 10, 0.8, 0.3},
	}
	const w, h = 48, 48
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		cl := classes[rng.Intn(len(classes))]
		img := newRaster(w, h)
		// Soft tissue background with smooth variation.
		tissue := cl.tissue + rng.NormFloat64()*0.03
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				img.add(x, y, tissue*(0.8+0.4*gauss(3*(float64(x)/w-0.5))))
			}
		}
		// Bone structures: bright elongated blobs.
		for b := 0; b < cl.bones; b++ {
			img.addBlob(rng.Float64()*w, rng.Float64()*h,
				1+rng.Float64()*2, 3+rng.Float64()*6, cl.level+rng.NormFloat64()*0.05)
		}
		// Gray-level histogram over 199 bins.
		hist := make(emd.Histogram, IRMADim)
		for _, p := range img.pix {
			level := int(p * float64(IRMADim) / 2.5)
			if level < 0 {
				level = 0
			}
			if level >= IRMADim {
				level = IRMADim - 1
			}
			hist[level]++
		}
		for k := range hist {
			hist[k] += 1e-9
		}
		items[i] = Item{Label: cl.name, Vector: vecmath.Normalize(hist)}
	}
	return &Dataset{
		Name:  "irma-sim",
		Dim:   IRMADim,
		Cost:  cost,
		Items: items,
	}, nil
}

// ColorDim is the dimensionality of the color-histogram corpus: a
// 4x4x4 RGB quantization.
const ColorDim = 64

// ColorImages generates n procedural RGB images and extracts 64-bin
// color histograms (4x4x4 RGB grid) under the Euclidean ground
// distance between bin-center colors — the classic image-retrieval
// setting from the paper's introduction. Classes are scene palettes.
func ColorImages(n int, seed int64) (*Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("data: ColorImages needs n >= 1, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	// Bin centers of the 4x4x4 RGB quantization, coordinates in [0,1].
	pos := make([][]float64, 0, ColorDim)
	for r := 0; r < 4; r++ {
		for g := 0; g < 4; g++ {
			for b := 0; b < 4; b++ {
				pos = append(pos, []float64{(float64(r) + 0.5) / 4, (float64(g) + 0.5) / 4, (float64(b) + 0.5) / 4})
			}
		}
	}
	cost, err := emd.PositionCost(pos, pos, 2)
	if err != nil {
		return nil, err
	}
	classes := []struct {
		name    string
		palette [][3]float64
	}{
		{"sunset", [][3]float64{{0.9, 0.4, 0.1}, {0.95, 0.7, 0.3}, {0.5, 0.2, 0.4}}},
		{"forest", [][3]float64{{0.1, 0.5, 0.15}, {0.3, 0.6, 0.2}, {0.35, 0.25, 0.1}}},
		{"sea", [][3]float64{{0.1, 0.3, 0.7}, {0.2, 0.5, 0.8}, {0.8, 0.85, 0.9}}},
		{"urban", [][3]float64{{0.5, 0.5, 0.55}, {0.3, 0.3, 0.35}, {0.8, 0.75, 0.7}}},
	}
	const w, h = 32, 32
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		cl := classes[rng.Intn(len(classes))]
		hist := make(emd.Histogram, ColorDim)
		// Vertical gradient between two palette colors plus blobs of a
		// third; quantize each pixel into the RGB grid.
		top := cl.palette[rng.Intn(len(cl.palette))]
		bottom := cl.palette[rng.Intn(len(cl.palette))]
		accent := cl.palette[rng.Intn(len(cl.palette))]
		blobX, blobY := rng.Float64()*w, rng.Float64()*h
		blobR := 4 + rng.Float64()*8
		for y := 0; y < h; y++ {
			t := float64(y) / float64(h-1)
			for x := 0; x < w; x++ {
				var c [3]float64
				for k := 0; k < 3; k++ {
					c[k] = top[k]*(1-t) + bottom[k]*t + rng.NormFloat64()*0.04
				}
				if dx, dy := float64(x)-blobX, float64(y)-blobY; dx*dx+dy*dy < blobR*blobR {
					c = accent
				}
				bin := 0
				for k := 0; k < 3; k++ {
					q := int(clamp01(c[k]) * 4)
					if q > 3 {
						q = 3
					}
					bin = bin*4 + q
				}
				hist[bin]++
			}
		}
		for k := range hist {
			hist[k] += 1e-9
		}
		items[i] = Item{Label: cl.name, Vector: vecmath.Normalize(hist)}
	}
	return &Dataset{
		Name:  "color-sim",
		Dim:   ColorDim,
		Cost:  cost,
		Items: items,
	}, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// MusicSpectra generates n spectral-band histograms of dimension d
// (default use: 48) under the linear ground distance. Classes are
// "instruments": harmonic series over a class fundamental with
// overtone decay, plus a noise floor — the music-retrieval setting the
// paper's introduction cites.
func MusicSpectra(n, d int, seed int64) (*Dataset, error) {
	if n < 1 || d < 8 {
		return nil, fmt.Errorf("data: MusicSpectra needs n >= 1 and d >= 8, got n=%d d=%d", n, d)
	}
	rng := rand.New(rand.NewSource(seed))
	cost, err := emd.ScaleCost(emd.LinearCost(d), 1.0/float64(d-1))
	if err != nil {
		return nil, err
	}
	classes := []struct {
		name        string
		fundamental float64 // as fraction of the band range
		decay       float64 // overtone amplitude decay
		noise       float64
	}{
		{"flute", 0.08, 0.35, 0.02},
		{"violin", 0.12, 0.65, 0.04},
		{"trumpet", 0.1, 0.8, 0.05},
		{"drums", 0.05, 0.95, 0.3},
	}
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		cl := classes[rng.Intn(len(classes))]
		h := make(emd.Histogram, d)
		f0 := cl.fundamental * float64(d) * (1 + rng.NormFloat64()*0.08)
		amp := 1.0
		for harmonic := 1; harmonic <= 12; harmonic++ {
			center := f0 * float64(harmonic)
			if center >= float64(d) {
				break
			}
			width := 0.5 + 0.08*center
			lo := int(center - 3*width)
			hi := int(center + 3*width)
			for b := lo; b <= hi; b++ {
				if b < 0 || b >= d {
					continue
				}
				t := (float64(b) - center) / width
				h[b] += amp * gauss(t)
			}
			amp *= cl.decay
		}
		for b := 0; b < d; b++ {
			h[b] += cl.noise * rng.Float64() / float64(d) * 10
			h[b] += 1e-9
		}
		items[i] = Item{Label: cl.name, Vector: vecmath.Normalize(h)}
	}
	return &Dataset{
		Name:  "music-sim",
		Dim:   d,
		Cost:  cost,
		Items: items,
	}, nil
}

// Words generates n word-frequency histograms over a vocabulary of the
// given size, the phishing-detection setting cited in the paper's
// introduction (EMD over token distributions of web pages). Tokens get
// stable 2-D "semantic" embeddings clustered by latent topic (derived
// from the seed); the ground distance is the Euclidean embedding
// distance. Classes mix a dominant topic with Zipf-weighted background
// vocabulary.
func Words(n, vocab int, seed int64) (*Dataset, error) {
	if n < 1 || vocab < 8 {
		return nil, fmt.Errorf("data: Words needs n >= 1 and vocab >= 8, got n=%d vocab=%d", n, vocab)
	}
	rng := rand.New(rand.NewSource(seed))
	const topics = 4
	names := []string{"banking", "shopping", "social", "news"}
	// Stable token embeddings: each token belongs to a latent topic and
	// sits near that topic's anchor.
	anchors := [][]float64{{0, 0}, {4, 0}, {0, 4}, {4, 4}}
	pos := make([][]float64, vocab)
	tokenTopic := make([]int, vocab)
	for tkn := 0; tkn < vocab; tkn++ {
		tp := tkn % topics
		tokenTopic[tkn] = tp
		pos[tkn] = []float64{
			anchors[tp][0] + rng.NormFloat64()*0.6,
			anchors[tp][1] + rng.NormFloat64()*0.6,
		}
	}
	cost, err := emd.PositionCost(pos, pos, 2)
	if err != nil {
		return nil, err
	}
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		tp := rng.Intn(topics)
		h := make(emd.Histogram, vocab)
		// Zipf-weighted draws: dominant topic with 70% probability,
		// any token otherwise.
		const draws = 400
		for dI := 0; dI < draws; dI++ {
			var tkn int
			if rng.Float64() < 0.7 {
				// Random token of the dominant topic, Zipf-ranked.
				r := zipfRank(rng, vocab/topics)
				tkn = r*topics + tp
			} else {
				tkn = zipfRank(rng, vocab)
			}
			if tkn >= vocab {
				tkn = vocab - 1
			}
			h[tkn]++
		}
		for k := range h {
			h[k] += 1e-9
		}
		items[i] = Item{Label: names[tp], Vector: vecmath.Normalize(h)}
	}
	return &Dataset{
		Name:  "words-sim",
		Dim:   vocab,
		Cost:  cost,
		Items: items,
	}, nil
}

// zipfRank draws a rank in [0, n) with probability proportional to
// 1/(rank+1).
func zipfRank(rng *rand.Rand, n int) int {
	// Inverse-CDF over harmonic weights; n is small, a linear walk is
	// fine and allocation free.
	var hn float64
	for i := 1; i <= n; i++ {
		hn += 1 / float64(i)
	}
	u := rng.Float64() * hn
	var acc float64
	for i := 1; i <= n; i++ {
		acc += 1 / float64(i)
		if u <= acc {
			return i - 1
		}
	}
	return n - 1
}

// GaussianMixtures generates n histograms over d 1-D bins, each a
// mixture of `modes` Gaussian bumps whose centers are class-specific.
// It is the fully controllable synthetic corpus for method studies:
// class structure, dimensionality and smoothness are all explicit
// parameters, unlike the procedural image corpora. Ground distance is
// the scaled linear |i-j| cost.
func GaussianMixtures(n, d, modes int, seed int64) (*Dataset, error) {
	if n < 1 || d < 4 || modes < 1 || modes > d/2 {
		return nil, fmt.Errorf("data: GaussianMixtures(%d, %d, %d): invalid arguments", n, d, modes)
	}
	rng := rand.New(rand.NewSource(seed))
	cost, err := emd.ScaleCost(emd.LinearCost(d), 1.0/float64(d-1))
	if err != nil {
		return nil, err
	}
	const classes = 5
	// Class prototypes: mode centers and widths drawn once per class.
	type proto struct {
		centers []float64
		widths  []float64
	}
	protos := make([]proto, classes)
	for c := range protos {
		protos[c].centers = make([]float64, modes)
		protos[c].widths = make([]float64, modes)
		for m := 0; m < modes; m++ {
			protos[c].centers[m] = rng.Float64() * float64(d-1)
			protos[c].widths[m] = 1 + rng.Float64()*float64(d)/10
		}
	}
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		h := make(emd.Histogram, d)
		for m := 0; m < modes; m++ {
			center := protos[c].centers[m] + rng.NormFloat64()*protos[c].widths[m]*0.2
			width := protos[c].widths[m] * (0.8 + 0.4*rng.Float64())
			amp := 0.5 + rng.Float64()
			for b := 0; b < d; b++ {
				t := (float64(b) - center) / width
				h[b] += amp * gauss(t)
			}
		}
		for b := range h {
			h[b] += 1e-9
		}
		items[i] = Item{Label: fmt.Sprintf("class-%d", c), Vector: vecmath.Normalize(h)}
	}
	return &Dataset{
		Name:  "gaussian-sim",
		Dim:   d,
		Cost:  cost,
		Items: items,
	}, nil
}
