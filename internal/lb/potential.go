package lb

import (
	"fmt"

	"emdsearch/internal/core"
	"emdsearch/internal/emd"
	"emdsearch/internal/transport"
)

// Potentials is the dual-potential lower bound of the EMD. By LP
// duality any potential f with f_i − f_j <= c_ij for all bins i, j is
// feasible for the dual of the transportation problem (u = f, v = −f),
// so EMD_c(x, y) >= ⟨f, x⟩ − ⟨f, y⟩ for histograms of equal mass. With
// S the metric closure of c (core.MetricClosure), every column
// f^a = S[·][a] is such a potential, and so is its negation: the
// triangle inequality gives S_ia − S_ja <= S_ij <= c_ij, and S is
// symmetric. Potentials keeps m of them, at pivot bins a chosen
// farthest-first on S.
//
// A histogram's m projections ⟨f^a, x⟩ are computed once (Project); the
// bound of a pair is then max_a |⟨f^a, q⟩ − ⟨f^a, x⟩| less a rounding
// and mass-imbalance margin (Key): O(m) per item, no solve, no
// reduction and no per-query compile. DESIGN.md §17 derives the margin.
type Potentials struct {
	dim    int
	f      [][]float64 // f[t][i] = S[i][pivot t]
	margin float64
}

// unitRoundoff is 2^-53, the relative rounding error of one float64
// operation.
const unitRoundoff = 0x1p-53

// NewPotentials compiles up to m potentials for the square cost matrix
// c. Pivots are picked farthest-first on the metric closure S, starting
// from the bin of largest eccentricity; a bin whose potential would
// repeat one already kept — at S-distance 0 from a pivot, or antipodal
// to one (S_ia + S_ib == S_ab for every i, which makes f^b a negated
// f^a plus a constant) — adds nothing to the key and is never picked,
// so fewer than m survive on small or degenerate spaces.
func NewPotentials(c emd.CostMatrix, m int) (*Potentials, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	d := c.Rows()
	if c.Cols() != d {
		return nil, fmt.Errorf("lb: potentials need a square cost matrix, got %dx%d", d, c.Cols())
	}
	if m < 1 {
		return nil, fmt.Errorf("lb: %d potentials, want >= 1", m)
	}
	s, _ := core.MetricClosure(c)
	var smax float64
	first := 0
	for a := 0; a < d; a++ {
		var ecc float64
		for _, v := range s[a] {
			ecc = max(ecc, v)
		}
		if ecc > smax {
			smax, first = ecc, a
		}
	}
	p := &Potentials{dim: d}
	// near[i] is the S-distance from bin i to the closest pivot so far.
	near := make([]float64, d)
	for i := range near {
		near[i] = s[i][first]
	}
	pivots := []int{first}
	for len(pivots) < m {
		next := -1
		for b := 0; b < d; b++ {
			if near[b] > 0 && (next < 0 || near[b] > near[next]) && !antipodal(s, pivots, b) {
				next = b
			}
		}
		if next < 0 {
			break
		}
		pivots = append(pivots, next)
		for i := range near {
			near[i] = min(near[i], s[i][next])
		}
	}
	for _, a := range pivots {
		f := make([]float64, d)
		for i := range f {
			f[i] = s[i][a]
		}
		p.f = append(p.f, f)
	}
	p.margin = roundingMargin(d, smax) + imbalanceMargin(smax)
	return p, nil
}

// roundingMargin bounds the float error of a key against the exact
// EMD the solver reports, for d-bin histograms of mass up to 1+τ under
// potentials in [0, smax] (DESIGN.md §17): the rounding of the two
// d-term dot products of non-negative terms (γ_d each), of their
// difference and of the margin subtraction (ε each), and the solver's
// final rounding of its double-double value (2ε). Second-order terms
// are orders below the imbalance part it is added to.
func roundingMargin(d int, smax float64) float64 {
	n := float64(d)
	gamma := n * unitRoundoff / (1 - n*unitRoundoff)
	return smax * (1 + emd.NormalizationTolerance) * (2*gamma + 4*unitRoundoff)
}

// imbalanceMargin bounds the mass imbalance δ = Σx − Σy the solver
// absorbs at its anchor bin at no cost, which shifts ⟨f, x − y⟩ by up
// to |δ|·max|f|: 2τ for two histograms emd.Validate accepts, plus the
// relative imbalance transport.Validate accepts, for any caller of the
// transport layer.
func imbalanceMargin(smax float64) float64 {
	mass := 1 + emd.NormalizationTolerance
	return smax * (2*emd.NormalizationTolerance + transport.MassTolerance*mass)
}

// antipodal reports whether bin b lies opposite some pivot a: every
// bin sits on an S-geodesic between a and b, so f^a + f^b is constant
// and f^b's key equals f^a's. The comparison is relative to S_ab and
// only steers the pivot choice; every potential is sound.
func antipodal(s emd.CostMatrix, pivots []int, b int) bool {
	for _, a := range pivots {
		sab := s[a][b]
		tol := 1e-12 * sab
		on := true
		for i := range s {
			if d := s[i][a] + s[i][b] - sab; d > tol || d < -tol {
				on = false
				break
			}
		}
		if on {
			return true
		}
	}
	return false
}

// Len returns the number of potentials, the length of a projection.
func (p *Potentials) Len() int { return len(p.f) }

// Project appends h's projections ⟨f^t, h⟩, one per potential, to dst
// and returns the extended slice. h must have the cost matrix's
// dimensionality.
func (p *Potentials) Project(dst []float64, h emd.Histogram) []float64 {
	h = h[:p.dim]
	for _, f := range p.f {
		var v float64
		for i, x := range h {
			v += f[i] * x
		}
		dst = append(dst, v)
	}
	return dst
}

// Key returns the lower bound of EMD(q, x) from their projections qp
// and xp: max_t |qp[t] − xp[t]| less the margin, and never below 0.
// For valid operands (emd.Validate) it never exceeds the exact EMD the
// engine's solver reports.
func (p *Potentials) Key(qp, xp []float64) float64 {
	xp = xp[:len(qp)]
	var best float64
	for t, a := range qp {
		d := a - xp[t]
		if d < 0 {
			d = -d
		}
		if d > best {
			best = d
		}
	}
	if best <= p.margin {
		return 0
	}
	return best - p.margin
}

// Scan evaluates Key(qp, ·) for every projection of the column col —
// item i's m projections at col[i·m:(i+1)·m] — into out[i], and
// returns the number of items, len(col)/m. Each value is bit-identical
// to Key's for the same item.
func (p *Potentials) Scan(qp, col, out []float64) int {
	m := len(qp)
	n := len(col) / m
	for i := range out[:n] {
		out[i] = p.Key(qp, col[i*m:(i+1)*m])
	}
	return n
}
