package colscan

import (
	"fmt"
	"math"

	"emdsearch/internal/emd"
	"emdsearch/internal/lb"
)

// quantLevels is the largest quantum index the int16 columns use. One
// step below MaxInt16 leaves headroom so the clamp after the float
// division can never overflow the representation.
const quantLevels = 32766

// Quantized is the int16-quantized form of a Columns layout plus the
// per-block metadata that keeps the quantized Red-IM bound *certified*:
// every value the QuantScanner emits is guaranteed <= the true Red-IM
// bound of the item, hence a true EMD lower bound, hence safe as a
// first filter stage without ever losing a result.
//
// Quantization is per block: scale[b] is the dequantization step of
// block b (value ≈ q * scale), chosen from the block's maximum entry
// so that small-valued blocks keep fine resolution. Every entry is
// rounded *down* (floor, with a post-check against float rounding), so
// each dequantized value is <= its true value and the per-item mass
// deficit is at most Δ_b = max_i Σ_j (v_ij - q_ij*scale_b).
//
// margin[b] is the certified error budget of the scanner's tangent
// evaluation (see QuantScanner and DESIGN.md §12):
//
//	margin[b] >= Cmax * (d'+1) * Δ_b
//
// plus a small Cmax-relative slack for float arithmetic. ref[b] is the
// block's normalized mean histogram — the tangent point — derived from
// the quantized data itself.
type Quantized struct {
	n, dims, block int
	costMax        float64
	cols           [][]int16
	scales         []float64
	margins        []float64
	refs           [][]float64
}

// Quantize derives the int16 filter from float columns. costMax must
// be the maximum entry of the reduced cost matrix the bound will be
// evaluated under (it calibrates the error margins). The input
// columns must be non-negative and finite (reduced histograms are).
func Quantize(c *Columns, costMax float64) (*Quantized, error) {
	if math.IsNaN(costMax) || math.IsInf(costMax, 0) || costMax < 0 {
		return nil, fmt.Errorf("colscan: invalid cost maximum %g", costMax)
	}
	nb := c.Blocks()
	q := &Quantized{
		n:       c.n,
		dims:    c.dims,
		block:   c.block,
		costMax: costMax,
		cols:    make([][]int16, c.dims),
		scales:  make([]float64, nb),
		margins: make([]float64, nb),
	}
	backing := make([]int16, c.n*c.dims)
	for j := range q.cols {
		q.cols[j] = backing[j*c.n : (j+1)*c.n : (j+1)*c.n]
	}
	resid := make([]float64, c.block)
	for b := 0; b < nb; b++ {
		lo, hi := c.BlockBounds(b)
		var maxv float64
		for _, col := range c.cols {
			for _, v := range col[lo:hi] {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return nil, fmt.Errorf("colscan: column value %g at block %d, want finite >= 0", v, b)
				}
				if v > maxv {
					maxv = v
				}
			}
		}
		var scale float64
		if maxv > 0 {
			scale = maxv / quantLevels
		}
		q.scales[b] = scale
		rs := resid[:hi-lo]
		for k := range rs {
			rs[k] = 0
		}
		for j, col := range c.cols {
			qcol := q.cols[j][lo:hi]
			for k, v := range col[lo:hi] {
				var t int
				if scale > 0 && v > 0 {
					t = int(v / scale)
					if t > quantLevels {
						t = quantLevels
					}
					// Float division can round up; walk down until the
					// dequantized value provably does not exceed v.
					for t > 0 && float64(t)*scale > v {
						t--
					}
				}
				qcol[k] = int16(t)
				rs[k] += v - float64(t)*scale
			}
		}
		var maxResid float64
		for _, r := range rs {
			if r > maxResid {
				maxResid = r
			}
		}
		q.margins[b] = certifiedMargin(costMax, c.dims, maxResid)
	}
	q.refs = deriveRefs(q)
	return q, nil
}

// certifiedMargin is the per-block error budget of the tangent
// evaluation (derivation in DESIGN.md §12): the tangent planes'
// coefficients are bounded by Cmax, the forward plane sums one
// coefficient per query bin (d' of them) and the backward plane one,
// and the evaluation point is off the true histogram by at most Δ in
// l1. The (1+1e-9) factor and Cmax-relative absolute term absorb the
// float arithmetic of quantization, tangent compilation and kernel
// evaluation, matching the guard conventions used elsewhere in the
// repo.
func certifiedMargin(costMax float64, dims int, maxResid float64) float64 {
	return costMax*float64(dims+1)*maxResid*(1+1e-9) + 1e-9*costMax
}

// deriveRefs computes each block's tangent point: the block's mean
// dequantized histogram, normalized onto the unit simplex (the
// forward bound is only convex there; see compileTangent). Derived
// deterministically from the quantized data.
func deriveRefs(q *Quantized) [][]float64 {
	nb := blocksFor(q.n, q.block)
	refs := make([][]float64, nb)
	for b := 0; b < nb; b++ {
		lo := b * q.block
		hi := lo + q.block
		if hi > q.n {
			hi = q.n
		}
		ref := make([]float64, q.dims)
		refs[b] = ref
		scale := q.scales[b]
		if scale == 0 || hi == lo {
			continue
		}
		var sum float64
		for j, col := range q.cols {
			var cj float64
			for _, qv := range col[lo:hi] {
				cj += float64(qv)
			}
			ref[j] = cj * scale
			sum += ref[j]
		}
		if sum <= 0 {
			for j := range ref {
				ref[j] = 0
			}
			continue
		}
		for j := range ref {
			ref[j] /= sum
		}
	}
	return refs
}

// Len returns the number of items.
func (q *Quantized) Len() int { return q.n }

// Dims returns the number of reduced dimensions.
func (q *Quantized) Dims() int { return q.dims }

// blocksFor returns the block count for n items at the given block
// length.
func blocksFor(n, block int) int {
	if n == 0 {
		return 0
	}
	return (n + block - 1) / block
}

// QuantScanner evaluates the certified quantized Red-IM bound over a
// Quantized layout. Unlike IMScanner it has no bit-identity contract
// with the scalar bound — only the soundness contract that every
// emitted value is <= the true Red-IM bound of the item.
//
// The kernel is two dot products per item. Both directions of the IM
// relaxation are convex functions of the item histogram on the unit
// simplex (each is the value function of a small transportation LP
// with the histogram on the right-hand side), so the tangent plane at
// any simplex point under-estimates them everywhere on the simplex.
// Per query and per block the scanner compiles the tangent planes of
// both directions at the block's reference point (its normalized mean
// histogram) — a few hundred scalar operations amortized over the
// whole block — and then evaluates each item with a branch-free
// linear pass over the int16 columns:
//
//	value = max(A + u·ŷ, B + w·ŷ) - margin   (clamped at 0)
//
// where ŷ is the dequantized item. The margin covers the l1 gap
// between ŷ and the true histogram (floor quantization) times the
// tangent coefficients' bound Cmax; the tangent gap itself only makes
// the bound smaller, never invalid.
//
// Soundness requires normalized histograms on both sides (unit total
// mass): that is what places items on the simplex where the forward
// value function is convex. The engine validates normalization at
// ingest, so the contract holds for every stored item and query.
type QuantScanner struct {
	q        *Quantized
	cost     [][]float64
	rowOrder [][]int32
	colOrder [][]int32
	rowCost  [][]float64
}

// NewQuantScanner compiles the scanner for one bound/layout pair; the
// bound must be the same Red-IM instance (same reduced cost matrix)
// the layout's margins were calibrated for.
func NewQuantScanner(im *lb.IM, q *Quantized) (*QuantScanner, error) {
	rows, cs := im.Dims()
	if rows != cs {
		return nil, fmt.Errorf("colscan: IM cost is %dx%d, want square", rows, cs)
	}
	if rows != q.dims {
		return nil, fmt.Errorf("colscan: IM dimensionality %d != quantized columns %d", rows, q.dims)
	}
	s := &QuantScanner{
		q:        q,
		cost:     im.Cost(),
		rowOrder: im.RowOrders(),
		colOrder: im.ColOrders(),
		rowCost:  make([][]float64, rows),
	}
	for i, order := range s.rowOrder {
		rc := make([]float64, len(order))
		for t, j := range order {
			rc[t] = s.cost[i][j]
		}
		s.rowCost[i] = rc
	}
	return s, nil
}

// compileTangent builds the two tangent planes of the IM bound at
// reference point ref (a simplex histogram): the forward plane
// A + u·y and the backward plane B + w·y, each a certified
// under-estimate of its direction for any simplex histogram y. u and
// w are written in place (len dims); bins and tabs are the compiled
// query (compileQuery / compileBwd).
//
// Forward: per query bin, the greedy fill against caps ref is the LP
// optimum; its dual prices the capacity of each saturated bin at
// (c_end - c_j) — the saving of routing one unit there instead of at
// the walk's final marginal cost c_end. Those duals are exactly a
// subgradient of the (convex) value function at ref.
//
// Backward: per column, the walk value is a convex piecewise-linear
// function of the item's bin mass; the tangent at ref[j] has slope
// equal to the segment cost at ref[j].
func (s *QuantScanner) compileTangent(bins []qbin, tabs [][]bwdEntry, ref []float64, u, w []float64) (A, B float64) {
	for j := range u {
		u[j] = 0
		w[j] = 0
	}
	for bi := range bins {
		qb := &bins[bi]
		remaining := qb.mass
		var gi, cEnd float64
		for t, j := range qb.order {
			cap := ref[j]
			if cap == 0 {
				continue
			}
			cEnd = qb.cost[t]
			if cap >= remaining {
				gi += remaining * cEnd
				remaining = 0
				break
			}
			gi += cap * cEnd
			remaining -= cap
		}
		A += gi
		// Dual prices: lambda_j = max(0, cEnd - c_j) for EVERY target
		// bin, including the ones the walk skipped for zero capacity —
		// those are trivially saturated (flow = cap = 0), and pricing
		// them is what keeps the plane below the bound for items that
		// do have mass there. Costs are ascending, so stop at cEnd.
		for t, j := range qb.order {
			c := qb.cost[t]
			if c >= cEnd {
				break
			}
			u[j] -= cEnd - c
		}
	}
	for j := range tabs {
		tab := tabs[j]
		if len(tab) == 0 {
			continue
		}
		slope := tab[0].cost
		var val float64
		remaining := ref[j]
		for _, e := range tab {
			slope = e.cost
			if e.cap >= remaining {
				val += remaining * e.cost
				remaining = 0
				break
			}
			val += e.cap * e.cost
			remaining -= e.cap
		}
		w[j] = slope
		B += val
	}
	// Shift the constants so the planes evaluate directly at an item
	// histogram: A' = A - u·ref, B' = B - w·ref.
	for j, r := range ref {
		A -= u[j] * r
		B -= w[j] * r
	}
	return A, B
}

// ScanAll computes the certified quantized bound of query x (already
// reduced) against every item, writing item i's value to out[i] and
// returning the number of items evaluated (always Len).
func (s *QuantScanner) ScanAll(x emd.Histogram, out []float64) int {
	q := s.q
	if len(x) != q.dims {
		panic(fmt.Sprintf("colscan: query has %d dims, quantized columns %d", len(x), q.dims))
	}
	if len(out) < q.n {
		panic(fmt.Sprintf("colscan: out has %d slots for %d items", len(out), q.n))
	}
	bins := compileQuery(x, s.rowOrder, s.rowCost)
	tabs := makeBwdTabs(q.dims)
	compileBwd(x, s.cost, s.colOrder, tabs)
	u := make([]float64, q.dims)
	w := make([]float64, q.dims)
	acc1 := make([]float64, q.block)
	acc2 := make([]float64, q.block)
	for b := 0; b < blocksFor(q.n, q.block); b++ {
		lo := b * q.block
		hi := lo + q.block
		if hi > q.n {
			hi = q.n
		}
		m := hi - lo
		outb := out[lo:hi]
		scale := q.scales[b]
		if scale == 0 {
			// All-zero block: both relaxations are 0, margin-free.
			for k := range outb {
				outb[k] = 0
			}
			continue
		}
		A, B := s.compileTangent(bins, tabs, q.refs[b], u, w)
		margin := q.margins[b]
		a1 := acc1[:m]
		a2 := acc2[:m]
		for k := range a1 {
			a1[k] = A
			a2[k] = B
		}
		for j, col := range q.cols {
			// Evaluate at the dequantized item: coefficient * scale
			// folds the dequantization into the dot product.
			uj := u[j] * scale
			wj := w[j] * scale
			seg := col[lo:hi]
			for k, qv := range seg {
				f := float64(qv)
				a1[k] += uj * f
				a2[k] += wj * f
			}
		}
		for k := range outb {
			v := a1[k]
			if a2[k] > v {
				v = a2[k]
			}
			v -= margin
			if v < 0 {
				v = 0
			}
			outb[k] = v
		}
	}
	return q.n
}
