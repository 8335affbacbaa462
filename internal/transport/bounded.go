package transport

import (
	"math"
	"sync/atomic"
)

// boundGuard is the relative safety margin subtracted from the
// certified dual bound before it is compared against abortAbove: the
// repaired dual objective is computed in ordinary float64 arithmetic,
// and the guard ensures its rounding error can never certify a
// candidate whose true optimum ties the threshold (sequential KNOP
// accepts ties on the k-th distance, so an abort there would change
// results).
const boundGuard = 1e-9

// lowerGuard is the relative margin the lower-bound exit subtracts from
// the repaired dual objective of its optimal potentials. It covers the
// float rounding of that objective: at optimality every potential is
// bounded by the cost scale, so for unit mass the summation error is
// below (m+n)·2^-52·scale — 3e-14·scale at m+n = 128 — well inside the
// guard.
const lowerGuard = 1e-12

// polishTol is the reduced-cost threshold of the post-optimality
// polish phase, relative to the cost scale. The float pivot loop stops
// at tolerance 1e-10·scale, so alternate terminal bases can differ in
// exact objective by up to that much; polish pivots on double-double
// reduced costs until every cell prices out above -polishTol·scale,
// which pins all reachable terminal bases to within ~1e-26·scale·mass
// of one another — far below one ulp of the objective. That is what
// makes the canonical objective value independent of the solve path
// (dense vs. reduced shape, Vogel vs. any other start).
const polishTol = 1e-26

// BoundedResult is the outcome of a threshold-aware solve.
type BoundedResult struct {
	// Value is the exact optimal objective when the solve ran to
	// optimality, or a certified lower bound on it when Aborted or
	// Interrupted (possibly 0, the trivial bound, when the interrupt
	// landed before any duals existed). A completed lower-bound solve
	// (Solver.SolveLowerBound) reports a certified lower bound too: the
	// repaired dual objective of its optimal potentials minus
	// lowerGuard·scale.
	Value float64
	// Aborted reports that the solve stopped early because the
	// certified lower bound exceeded the caller's threshold.
	Aborted bool
	// Interrupted reports that the solve was cancelled cooperatively
	// (the caller's interrupt flag was observed inside the pivot loop).
	// Value is then still a certified lower bound on the optimum by
	// weak duality — just not one that certifies anything about the
	// caller's threshold.
	Interrupted bool
	// Rows and Cols are the reduced shape actually solved after
	// stripping zero-mass rows and columns.
	Rows, Cols int
}

// solveBounded runs the threshold-aware kernel: sparsity reduction,
// a pre-simplex abort on the cached duals of the previous optimal
// solve, a Vogel start, early abandon against abortAbove inside the
// pivot loop, and — on optimal completion — the canonical
// double-double objective when report is set, or else the certified
// lower bound of the optimal potentials. Inputs are trusted (not
// validated).
//
// A caller that only needs a lower bound on the optimum (a filter, an
// index metric) passes report = false: the solve then skips polish and
// the canonical value — a quarter of a completed solve at 8 and 16
// dimensions, an eighth at 32 — and returns feasibleDualBound of the
// float-optimal potentials minus lowerGuard·scale. By weak duality that
// never exceeds the optimum; it sits below it by at most the pivot
// tolerance times the mass plus the guard, and in practice by the guard
// alone.
//
// intr, when non-nil, is a cooperative cancellation flag polled at
// solve entry and once per pivot iteration: setting it makes the solve
// return within one pivot's worth of work, carrying Interrupted=true
// and a certified (possibly trivial) lower bound on the optimum as
// Value. An interrupted solve never touches the cached duals.
func (st *simplexState) solveBounded(cc *compiledCost, supply, demand []float64, abortAbove float64, intr *atomic.Bool, report bool) (BoundedResult, error) {
	supply, demand = st.reduceProblem(cc, supply, demand)
	res := BoundedResult{Rows: st.m, Cols: st.n}
	if st.m == 0 || st.n == 0 {
		// No mass on one side: every feasible flow is empty.
		return res, nil
	}
	if intr != nil && intr.Load() {
		// Cancelled before any work: 0 is the trivial certified bound
		// (costs are non-negative).
		res.Interrupted = true
		return res, nil
	}
	if !math.IsInf(abortAbove, 1) && st.warmV != nil {
		// Pre-simplex abort: price the candidate with the cached duals
		// of the last optimal solve. In refinement workloads the supply
		// side (the query) is fixed, so those duals transfer well and
		// most over-threshold candidates die here for O(m·n) flops
		// instead of a near-full solve.
		if b := st.cachedDualBound(supply, demand) - boundGuard*st.scale; b > abortAbove {
			res.Aborted = true
			res.Value = b
			return res, nil
		}
	}
	st.initVogel(supply, demand)
	st.patchBasis()
	_, stop, bound, err := st.pivotLoop(supply, demand, abortAbove, intr)
	if err != nil {
		return BoundedResult{}, err
	}
	switch stop {
	case stopAborted:
		res.Aborted = true
		res.Value = bound
		return res, nil
	case stopInterrupted:
		res.Interrupted = true
		res.Value = bound
		return res, nil
	}
	st.saveWarmDuals()
	if !report {
		res.Value = max(st.feasibleDualBound(supply, demand)-lowerGuard*st.scale, 0)
		return res, nil
	}
	ddFresh := st.polish(supply, demand)
	res.Value = st.canonicalValue(supply, demand, ddFresh)
	return res, nil
}

// reduceProblem prepares the state for the given marginals over cc with
// zero-mass rows and columns stripped. Zero-mass rows and columns carry
// zero flow in every feasible solution, so removing them leaves the
// optimum unchanged exactly. The dense fast path reads cc.cost in
// place. Returns the (possibly reduced) supply and demand slices.
func (st *simplexState) reduceProblem(cc *compiledCost, supply, demand []float64) ([]float64, []float64) {
	mr, nr := 0, 0
	for _, s := range supply {
		if s != 0 {
			mr++
		}
	}
	for _, d := range demand {
		if d != 0 {
			nr++
		}
	}
	if mr == cc.m && nr == cc.n {
		st.prepareDense(cc)
		return supply, demand
	}

	st.prepare(mr, nr)
	st.cc = cc
	if st.costBacking == nil {
		st.costBacking = make([]float64, st.capM*st.capN)
		st.costRows = make([][]float64, st.capM)
	}
	ri := 0
	for i, s := range supply {
		if s != 0 {
			st.rowMap[ri] = int32(i)
			st.rowInv[i] = int32(ri)
			st.rsBuf[ri] = s
			ri++
		} else {
			st.rowInv[i] = -1
		}
	}
	ci := 0
	for j, d := range demand {
		if d != 0 {
			st.colMap[ci] = int32(j)
			st.colInv[j] = int32(ci)
			st.rdBuf[ci] = d
			ci++
		} else {
			st.colInv[j] = -1
		}
	}
	// The pivoting tolerances are relative to the largest cost of the
	// matrix actually solved, found while copying it.
	st.scale = 0
	for i := 0; i < mr; i++ {
		row := st.costBacking[i*nr : (i+1)*nr : (i+1)*nr]
		src := cc.cost[st.rowMap[i]]
		for j := 0; j < nr; j++ {
			c := src[st.colMap[j]]
			row[j] = c
			if c > st.scale {
				st.scale = c
			}
		}
		st.costRows[i] = row
	}
	if st.scale == 0 {
		st.scale = 1
	}
	st.cost = st.costRows[:mr]
	return st.rsBuf[:mr], st.rdBuf[:nr]
}

// cachedDualBound prices the current (reduced) problem with the column
// potentials cached from the last optimal solve of this state and
// returns the resulting dual objective. Like feasibleDualBound, the
// rows are repaired to u_i = min_j (c_ij - v_j), so the pair is dual
// feasible by construction and the value is a certified lower bound on
// the optimum by weak duality — for any v whatsoever; the cache only
// controls how tight the bound is.
func (st *simplexState) cachedDualBound(supply, demand []float64) float64 {
	// Gather the cached potentials into reduced coordinates (the Vogel
	// scratch vd is free before initialization) to keep the pricing
	// loops free of indirection.
	vloc := st.vd[:st.n]
	for j := 0; j < st.n; j++ {
		vloc[j] = st.warmV[st.colMap[j]]
	}
	var total float64
	for j, d := range demand {
		total += d * vloc[j]
	}
	for i := 0; i < st.m; i++ {
		row := st.cost[i]
		min := math.Inf(1)
		for j, v := range vloc {
			if s := row[j] - v; s < min {
				min = s
			}
		}
		total += supply[i] * min
	}
	return total
}

// saveWarmDuals records the terminal column potentials in original
// coordinates for cachedDualBound. Entries of columns stripped from
// this solve keep whatever older value they carried — staleness cannot
// invalidate the bound, only loosen it. Called only when the pivot loop
// reached optimality, so aborted solves keep pricing against the duals
// of the last finished solve.
func (st *simplexState) saveWarmDuals() {
	if st.warmV == nil {
		st.warmV = make([]float64, st.capN)
	}
	for j := 0; j < st.n; j++ {
		st.warmV[st.colMap[j]] = st.v[j]
	}
}

// feasibleDualBound returns the dual objective of a feasibility-
// repaired copy of the current potentials: keeping the column
// potentials v fixed, each row potential is replaced by the largest
// dual-feasible value u_i = min_j (c_ij - v_j). The pair is dual
// feasible by construction, so by weak duality the returned value
// never exceeds the true optimum — a certified lower bound available
// at every simplex iteration, not just at optimality. It is an O(m·n)
// pass of its own, so the pivot loop calls it once, when a solve is
// interrupted; its abort check uses the bound entering's full scans
// produce on the way.
func (st *simplexState) feasibleDualBound(supply, demand []float64) float64 {
	var total float64
	for j := 0; j < st.n; j++ {
		total += demand[j] * st.v[j]
	}
	for i := 0; i < st.m; i++ {
		row := st.cost[i]
		min := math.Inf(1)
		for j := 0; j < st.n; j++ {
			if s := row[j] - st.v[j]; s < min {
				min = s
			}
		}
		total += supply[i] * min
	}
	return total
}

// polish drives the terminal basis to a state whose exact objective is
// pinned to within ~polishTol·scale of the true optimum, making the
// canonical objective path-independent. Two defects of a float-optimal
// basis can move its exact objective by more than one ulp, and polish
// repairs both:
//
//  1. Dual infeasibility: the float pivot loop certifies reduced costs
//     only to 1e-10·scale. Bland's-rule pivots on double-double reduced
//     costs continue until every non-basic cell prices out above
//     -polishTol·scale.
//  2. Exact primal infeasibility: on degenerate instances the float
//     flow updates can leave basic cells whose *exact* tree flow (the
//     unique solution implied by the basis and the marginals) is
//     negative at the ~1e-17 level while the float value looks like
//     harmless noise. Such a basis undercuts the true optimum by
//     flow·(reduced cost of the repair cycle), which alternates in the
//     last ulps between otherwise-equivalent terminal bases — exactly
//     the path-dependence the canonical value must exclude. A
//     double-double leaf peel (exactFlowDeficit) detects these cells
//     and a dual-simplex swap (feasSwap) removes them.
//
// A basis passing both checks is exact-primal-feasible and
// polishTol-dual-feasible, so its exact objective lies in
// [opt, opt + polishTol·scale·mass] — far inside one ulp — for every
// solve path (dense or reduced shape, whatever the start). Bland's rule
// guarantees termination of phase 1; the overall cap bounds the
// alternation with phase 2.
//
// polish reports whether the double-double duals it leaves behind —
// anchored at row 0 — are those of the final basis, which lets
// canonicalValue skip recomputing them.
func (st *simplexState) polish(supply, demand []float64) (ddFresh bool) {
	eta := polishTol * st.scale
	// Float pre-screen: a plain-float reduced cost built from the
	// double-double duals' high parts differs from the exact value by at
	// most a few ulps of the operand magnitudes (~1e-13·scale), so any
	// cell whose float reduced cost clears 1e-7·scale is provably
	// positive in double-double and needs no exact evaluation. The float
	// pivot loop already drove all reduced costs above -1e-10·scale, so
	// only near-degenerate cells — typically a handful — survive the
	// screen.
	screen := 1e-7 * st.scale
	maxPivots := 4*(st.m+st.n) + 16
	for p := 0; p < maxPivots; p++ {
		st.computeDDDuals(0)
		ei, ej := -1, -1
	scan:
		for i := 0; i < st.m; i++ {
			row := st.cost[i]
			base := i * st.n
			uh, ul := st.duHi[i], st.duLo[i]
			for j := 0; j < st.n; j++ {
				if st.basic[base+j] || row[j]-uh-st.dvHi[j] > screen {
					continue
				}
				if rh, _ := ddReducedCost(row[j], uh, ul, st.dvHi[j], st.dvLo[j]); rh < -eta {
					ei, ej = i, j
					break scan
				}
			}
		}
		if ei < 0 {
			fi, fj := st.exactFlowDeficit(supply, demand)
			if fi < 0 {
				return true
			}
			if !st.feasSwap(fi, fj) {
				return false
			}
			continue
		}
		st.pivot(ei, ej)
	}
	return false
}

// feasTol is the exact-flow negativity threshold of the polish phase,
// relative to 1+mass: deficits below it are double-double arithmetic
// noise (~2^-100), anything above is a real infeasibility of the basis.
const feasTol = 1e-25

// exactFlowDeficit peels the tree flows in double-double arithmetic and
// returns the basic cell with the most negative exact flow, or (-1,-1)
// when the basis is exact-primal-feasible. The float peel cannot see
// these cells: their float flow is ordinary rounding noise around zero,
// but the exact flow implied by the basis and the marginals is a real
// negative quantity that skews the exact objective.
//
// The peel is rooted at the canonical anchor node (the first row with
// nonzero supply — the same node canonicalValue anchors the duals at).
// Float-normalized marginals carry a tiny imbalance δ = Σs - Σd ≠ 0
// that some node of the tree must absorb, and the dual-objective
// identity charges that absorption to the node where u = 0: the anchor.
// Rooting the peel anywhere else would validate the flows of a
// different δ-routing than the one the canonical value prices, leaving
// a basis-dependent δ·u_root wobble in the last ulps.
func (st *simplexState) exactFlowDeficit(supply, demand []float64) (int, int) {
	m, n := st.m, st.n
	total := m + n
	deg := st.peelDeg[:total]
	done := st.peelDone[:total]
	resHi := st.peelResHi[:total]
	resLo := st.peelResLo[:total]
	anchor := 0
	var mass float64
	for i := 0; i < m; i++ {
		resHi[i], resLo[i] = supply[i], 0
		mass += supply[i]
	}
	for i, s := range supply {
		if s != 0 {
			anchor = i
			break
		}
	}
	for j := 0; j < n; j++ {
		resHi[m+j], resLo[m+j] = demand[j], 0
	}
	for x := 0; x < total; x++ {
		deg[x] = int32(len(st.adj[x]))
		done[x] = false
	}
	st.queue = st.queue[:0]
	for x := 0; x < total; x++ {
		if deg[x] == 1 && x != anchor {
			st.queue = append(st.queue, int32(x))
		}
	}
	worst := -feasTol * (1 + mass)
	wi, wj := -1, -1
	for head := 0; head < len(st.queue); head++ {
		x := st.queue[head]
		if done[x] {
			continue
		}
		var nb int32 = -1
		for _, y := range st.adj[x] {
			if !done[y] {
				nb = y
				break
			}
		}
		if nb < 0 {
			continue
		}
		if resHi[x] < worst {
			worst = resHi[x]
			if int(x) < m {
				wi, wj = int(x), int(nb)-m
			} else {
				wi, wj = int(nb), int(x)-m
			}
		}
		resHi[nb], resLo[nb] = ddSub(resHi[nb], resLo[nb], resHi[x], resLo[x])
		done[x] = true
		deg[nb]--
		if deg[nb] == 1 && int(nb) != anchor {
			st.queue = append(st.queue, nb)
		}
	}
	return wi, wj
}

// feasSwap removes the exact-negative-flow basic cell (i,j) with a
// dual-simplex swap: the tree splits into the component S containing
// row i and its complement, and the cut is reconnected by the
// minimum-reduced-cost cell oriented to route mass back into S (row
// outside S, column inside S). Choosing the minimum double-double
// reduced cost keeps the basis polishTol-dual-feasible. Returns false
// when no reconnecting cell exists (the negativity then cannot be
// repaired; the caller gives up on it).
func (st *simplexState) feasSwap(i, j int) bool {
	m, n := st.m, st.n
	st.removeBasic(i, j)
	st.flow[i][j] = 0
	inS := st.peelDone[:m+n]
	for x := range inS {
		inS[x] = false
	}
	st.queue = st.queue[:0]
	st.queue = append(st.queue, int32(i))
	inS[i] = true
	for head := 0; head < len(st.queue); head++ {
		for _, y := range st.adj[st.queue[head]] {
			if !inS[y] {
				inS[y] = true
				st.queue = append(st.queue, y)
			}
		}
	}
	ei, ej := -1, -1
	var bestHi, bestLo float64
	first := true
	for p := 0; p < m; p++ {
		if inS[p] {
			continue
		}
		row := st.cost[p]
		base := p * n
		uh, ul := st.duHi[p], st.duLo[p]
		for q := 0; q < n; q++ {
			if !inS[m+q] || st.basic[base+q] {
				continue
			}
			rh, rl := ddReducedCost(row[q], uh, ul, st.dvHi[q], st.dvLo[q])
			if first || rh < bestHi || (rh == bestHi && rl < bestLo) {
				first = false
				bestHi, bestLo = rh, rl
				ei, ej = p, q
			}
		}
	}
	if ei < 0 {
		st.addBasic(i, j)
		return false
	}
	st.addBasic(ei, ej)
	st.computeDuals() // re-root the tree for polish's next pivot
	return true
}

// ddSub returns (ah+al) - (bh+bl) as a double-double.
func ddSub(ah, al, bh, bl float64) (hi, lo float64) {
	sh, sl := twoSum(ah, -bh)
	sl += al - bl
	return twoSum(sh, sl)
}

// computeDDDuals solves u_i + v_j = c_ij over the basis tree with
// u_anchor = 0 in double-double arithmetic (same traversal as
// computeDuals, ~2^-104 relative error per step instead of 2^-53).
//
// The anchor matters for the canonical value: supplies and demands are
// float-normalized, so their totals differ by some tiny δ ≠ 0, and the
// dual objective shifts by anchorDual·δ under re-anchoring. Callers
// must therefore anchor at a row that identifies the same original
// node in every solve path — canonicalValue uses the first row with
// nonzero supply, which the sparsity reduction preserves as row 0.
// Reduced costs are anchor-invariant, so polish may pass any row.
func (st *simplexState) computeDDDuals(anchor int) {
	m := st.m
	for i := 0; i < m; i++ {
		st.uSet[i] = false
	}
	for j := 0; j < st.n; j++ {
		st.vSet[j] = false
	}
	st.queue = st.queue[:0]
	st.duHi[anchor], st.duLo[anchor] = 0, 0
	st.uSet[anchor] = true
	st.queue = append(st.queue, int32(anchor))
	for head := 0; head < len(st.queue); head++ {
		node := st.queue[head]
		if int(node) < m {
			i := int(node)
			for _, nb := range st.adj[node] {
				j := int(nb) - m
				if !st.vSet[j] {
					st.dvHi[j], st.dvLo[j] = ddSubFrom(st.cost[i][j], st.duHi[i], st.duLo[i])
					st.vSet[j] = true
					st.queue = append(st.queue, nb)
				}
			}
		} else {
			j := int(node) - m
			for _, nb := range st.adj[node] {
				i := int(nb)
				if !st.uSet[i] {
					st.duHi[i], st.duLo[i] = ddSubFrom(st.cost[i][j], st.dvHi[j], st.dvLo[j])
					st.uSet[i] = true
					st.queue = append(st.queue, nb)
				}
			}
		}
	}
}

// canonicalValue returns the objective of the current basis as the
// double-double dual objective sum_i s_i·u_i + sum_j d_j·v_j. For any
// basis this equals, algebraically, the primal objective of the
// basis's exact basic solution — so unlike a float summation over the
// (rounded) flow matrix it does not depend on the pivoting history,
// and after polish every reachable terminal basis yields the same
// float64. The ~2^-90 absolute error of the double-double evaluation
// is far below one ulp of any representable objective.
//
// ddAtRow0 says the double-double duals anchored at row 0 are already
// those of the current basis (see polish); they are recomputed unless
// row 0 is also the canonical anchor.
func (st *simplexState) canonicalValue(supply, demand []float64, ddAtRow0 bool) float64 {
	anchor := 0
	for i, s := range supply {
		if s != 0 {
			anchor = i
			break
		}
	}
	if !ddAtRow0 || anchor != 0 {
		st.computeDDDuals(anchor)
	}
	var hi, lo float64
	for i := 0; i < st.m; i++ {
		hi, lo = ddMulAcc(hi, lo, supply[i], st.duHi[i], st.duLo[i])
	}
	for j := 0; j < st.n; j++ {
		hi, lo = ddMulAcc(hi, lo, demand[j], st.dvHi[j], st.dvLo[j])
	}
	v := hi + lo
	if v < 0 {
		// Non-negative costs bound the optimum below by zero; sub-ulp
		// noise can land barely negative.
		return 0
	}
	return v
}

// Double-double helpers: a value is represented as an unevaluated sum
// hi+lo with |lo| <= ulp(hi)/2. twoSum is Knuth's branch-free exact
// addition; products use math.FMA for the exact low part.

// twoSum returns hi+lo = a+b exactly.
func twoSum(a, b float64) (hi, lo float64) {
	hi = a + b
	t := hi - a
	lo = (a - (hi - t)) + (b - t)
	return hi, lo
}

// ddSubFrom returns c - (bh+bl) as a double-double.
func ddSubFrom(c, bh, bl float64) (hi, lo float64) {
	sh, sl := twoSum(c, -bh)
	sl -= bl
	return twoSum(sh, sl)
}

// ddReducedCost returns c - (uh+ul) - (vh+vl) as a double-double.
func ddReducedCost(c, uh, ul, vh, vl float64) (hi, lo float64) {
	sh, sl := twoSum(c, -uh)
	sl -= ul
	th, tl := twoSum(sh, -vh)
	tl += sl - vl
	return twoSum(th, tl)
}

// ddMulAcc returns (ah+al) + x·(bh+bl) as a double-double.
func ddMulAcc(ah, al, x, bh, bl float64) (hi, lo float64) {
	ph := x * bh
	pl := math.FMA(x, bh, -ph)
	pl = math.FMA(x, bl, pl)
	sh, sl := twoSum(ah, ph)
	sl += al + pl
	return twoSum(sh, sl)
}
