package transport

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// simplexState holds the mutable state of one transportation simplex
// run. Rows are nodes 0..m-1 and columns are nodes m..m+n-1 of the
// basis spanning tree.
//
// Buffers are sized for a capacity shape capM x capN fixed at
// allocation; the logical shape m x n of the current solve may be
// smaller (sparsity-reduced solves strip zero-mass rows and columns).
type simplexState struct {
	capM, capN int
	m, n       int
	// cc is the compiled cost matrix of the current solve, shared
	// read-only with every other state of the same Solver. cost is the
	// matrix the pivoting machinery reads: cc.cost itself on the dense
	// path, the stripped copy in costRows otherwise.
	cc    *compiledCost
	cost  [][]float64
	flow  [][]float64 // flowRows[:m], resliced over flowBacking by prepare
	basic []bool      // m*n cell -> in basis
	adj   [][]int32
	u, v  []float64
	uSet  []bool
	vSet  []bool
	// parent and depth root the basis tree at node 0 (row 0). They are
	// set together with the duals — by computeDuals from scratch, by
	// pivot for the subtree it re-hangs — so that a pivot finds its
	// cycle by walking to the common ancestor and recomputes duals only
	// below the entering cell.
	parent []int32
	depth  []int32
	queue  []int32
	scale  float64 // magnitude of the largest cost, for tolerances
	// maxIter, when positive, replaces pivotLoop's default budget.
	maxIter int

	flowBacking []float64
	flowRows    [][]float64
	// cand is the candidate list for partial pricing: cells that had a
	// negative reduced cost at the last full scan. Pivots price only
	// this list; a full O(m*n) scan happens only when the list runs
	// dry, which also certifies optimality.
	cand []candCell
	// cycle is the reusable pivot-cycle buffer.
	cycle []cycleCell
	// Reusable Vogel initializer buffers. rowList holds the active rows
	// in ascending order; rowMin1/rowMin2 the two cheapest active
	// columns of each row (reduced indices, -1 for none), rowPos1/rowPos2
	// their positions in the row's compiled order and rowPen the cost
	// gap between them. The col* fields mirror them.
	vs, vd               []float64
	rowActive, colActive []bool
	rowList, colList     []int32
	rowMin1, rowMin2     []int32
	colMin1, colMin2     []int32
	rowPos1, rowPos2     []int32
	colPos1, colPos2     []int32
	rowPen, colPen       []float64
	// uf is the reusable union-find buffer of patchBasis.
	uf []int32

	// Sparsity-reduction maps between original (capM x capN) and
	// reduced (m x n) coordinates, rebuilt per bounded solve. rowInv
	// and colInv hold -1 for stripped zero-mass rows/columns.
	rowMap, colMap []int32
	rowInv, colInv []int32
	rsBuf, rdBuf   []float64
	costBacking    []float64 // lazily allocated reduced cost storage
	costRows       [][]float64
	// warmV holds the column dual potentials of the most recent optimal
	// solve in original coordinates. Any dual vector v yields a certified
	// lower bound on a later solve's optimum after the row repair
	// u_i = min_j (c_ij - v_j), so these cached potentials let a bounded
	// solve abort before any simplex work when the previous optimum's
	// geometry already prices the new candidate above the threshold.
	warmV []float64
	// Leaf-peeling scratch of the polish phase's exact-feasibility
	// peel: node degrees, done marks and double-double residuals.
	peelDeg              []int32
	peelDone             []bool
	peelResHi, peelResLo []float64
	// Double-double dual potentials for the canonical objective.
	duHi, duLo []float64
	dvHi, dvLo []float64
}

// candCell is one entry of the pricing candidate list.
type candCell struct{ i, j int32 }

// cycleCell is one cell of a pivot cycle with its +/- role.
type cycleCell struct {
	i, j int32
	plus bool
}

// compiledCost is a cost matrix together with everything the solver
// derives from it alone: per-row and per-column index orders sorted by
// (cost, index) and the cost scale. It is built once per Solver and
// shared read-only by all pooled states, so the Vogel initializer can
// advance a pointer through a sorted row or column instead of
// rescanning it, and the dense path never recomputes the scale.
type compiledCost struct {
	m, n int
	cost [][]float64
	// rowOrder[i*n:(i+1)*n] lists the columns of row i by ascending
	// (cost, column); colOrder[j*m:(j+1)*m] lists the rows of column j
	// by ascending (cost, row). Both are in original coordinates.
	rowOrder, colOrder []int32
	// scale is the magnitude of the largest cost (1 for an all-zero
	// matrix), the reference of every pivoting tolerance.
	scale float64
}

// compileCost builds the compiled form of cost, which must be a
// non-empty rectangular matrix without NaNs.
func compileCost(cost [][]float64) *compiledCost {
	m, n := len(cost), len(cost[0])
	cc := &compiledCost{
		m: m, n: n,
		cost:     cost,
		rowOrder: make([]int32, m*n),
		colOrder: make([]int32, m*n),
	}
	// byCost fills order with 0..len-1 sorted by (at(k), k).
	byCost := func(order []int32, at func(k int32) float64) {
		for k := range order {
			order[k] = int32(k)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(at(a), at(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	for i, row := range cost {
		byCost(cc.rowOrder[i*n:(i+1)*n], func(j int32) float64 { return row[j] })
		cc.scale = max(cc.scale, slices.Max(row))
	}
	for j := 0; j < n; j++ {
		byCost(cc.colOrder[j*m:(j+1)*m], func(i int32) float64 { return cost[i][j] })
	}
	if cc.scale == 0 {
		cc.scale = 1
	}
	return cc
}

// SolveSimplex solves p with the transportation simplex from a Vogel
// start. The returned solution carries optimal dual potentials;
// CheckOptimal can verify it independently. If the pivot count exceeds
// the iteration budget, an error wrapping ErrIterationLimit is
// returned.
//
// Every call compiles p.Cost afresh, which costs about as much as the
// solve itself: callers that solve many problems over one cost matrix
// use a Solver.
func SolveSimplex(p Problem) (*Solution, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	st := newSimplexState(len(p.Supply), len(p.Demand))
	iter, err := st.run(compileCost(p.Cost), p.Supply, p.Demand)
	if err != nil {
		return nil, err
	}
	return st.solution(iter), nil
}

// solution packages the flow and duals a finished pivot loop left
// behind into a Solution that shares no memory with the (possibly
// pooled) state.
func (st *simplexState) solution(iter int) *Solution {
	flow := newMatrix(st.m, st.n)
	for i, row := range st.flow {
		copy(flow[i], row)
	}
	return &Solution{
		Objective:  objective(st.cost, flow),
		Flow:       flow,
		DualU:      append([]float64(nil), st.u[:st.m]...),
		DualV:      append([]float64(nil), st.v[:st.n]...),
		Iterations: iter,
		Method:     "simplex",
	}
}

// newSimplexState allocates all buffers for solves of capacity shape
// m x n (the logical shape of later solves may be smaller).
func newSimplexState(m, n int) *simplexState {
	st := &simplexState{
		capM: m, capN: n,
		m: m, n: n,
		flowBacking: make([]float64, m*n),
		flowRows:    make([][]float64, m),
		basic:       make([]bool, m*n),
		adj:         make([][]int32, m+n),
		u:           make([]float64, m),
		v:           make([]float64, n),
		uSet:        make([]bool, m),
		vSet:        make([]bool, n),
		parent:      make([]int32, m+n),
		depth:       make([]int32, m+n),
		queue:       make([]int32, 0, m+n),
		vs:          make([]float64, m),
		vd:          make([]float64, n),
		rowActive:   make([]bool, m),
		colActive:   make([]bool, n),
		rowMin1:     make([]int32, m),
		rowMin2:     make([]int32, m),
		colMin1:     make([]int32, n),
		colMin2:     make([]int32, n),
		rowPos1:     make([]int32, m),
		rowPos2:     make([]int32, m),
		colPos1:     make([]int32, n),
		colPos2:     make([]int32, n),
		rowList:     make([]int32, m),
		colList:     make([]int32, n),
		rowPen:      make([]float64, m),
		colPen:      make([]float64, n),
		uf:          make([]int32, m+n),
		rowMap:      make([]int32, m),
		colMap:      make([]int32, n),
		rowInv:      make([]int32, m),
		colInv:      make([]int32, n),
		rsBuf:       make([]float64, m),
		rdBuf:       make([]float64, n),
		peelDeg:     make([]int32, m+n),
		peelDone:    make([]bool, m+n),
		peelResHi:   make([]float64, m+n),
		peelResLo:   make([]float64, m+n),
		duHi:        make([]float64, m),
		duLo:        make([]float64, m),
		dvHi:        make([]float64, n),
		dvLo:        make([]float64, n),
	}
	st.flow = st.flowRows[:m]
	for i := 0; i < m; i++ {
		st.flow[i] = st.flowBacking[i*n : (i+1)*n : (i+1)*n]
	}
	return st
}

// prepare clears the previous solve's state (at its own, possibly
// different, logical shape) and adopts the new logical shape m x n,
// reslicing the flow matrix over the shared backing array.
func (st *simplexState) prepare(m, n int) {
	old := st.m * st.n
	for i := 0; i < old; i++ {
		st.basic[i] = false
		st.flowBacking[i] = 0
	}
	for x := 0; x < st.m+st.n; x++ {
		st.adj[x] = st.adj[x][:0]
	}
	st.cand = st.cand[:0]
	st.m, st.n = m, n
	st.flow = st.flowRows[:m]
	for i := 0; i < m; i++ {
		st.flow[i] = st.flowBacking[i*n : (i+1)*n : (i+1)*n]
	}
}

// prepareDense adopts the full shape of cc: the solve reads cc.cost in
// place, the coordinate maps are the identity and the scale is the
// compiled one.
func (st *simplexState) prepareDense(cc *compiledCost) {
	st.prepare(cc.m, cc.n)
	st.cc = cc
	st.cost = cc.cost
	st.scale = cc.scale
	for i := 0; i < cc.m; i++ {
		st.rowMap[i] = int32(i)
		st.rowInv[i] = int32(i)
	}
	for j := 0; j < cc.n; j++ {
		st.colMap[j] = int32(j)
		st.colInv[j] = int32(j)
	}
}

// run executes one full dense-shape solve on the (possibly reused)
// state and returns the pivot count. On return st.flow holds the
// optimal flow.
func (st *simplexState) run(cc *compiledCost, supply, demand []float64) (int, error) {
	st.prepareDense(cc)
	st.initVogel(supply, demand)
	st.patchBasis()
	iter, _, _, err := st.pivotLoop(supply, demand, math.Inf(1), nil)
	return iter, err
}

// stopCause says why pivotLoop returned before the iteration budget.
type stopCause int

const (
	stopOptimal stopCause = iota
	stopAborted
	stopInterrupted
)

// pivotLoop pivots until optimality, the iteration budget, or — when
// abortAbove is finite — until a certified dual lower bound on the
// optimum exceeds abortAbove. The certificate costs no pass of its own:
// every full pricing scan of entering (the one before the first pivot
// and the final, optimality-certifying one included) returns the dual
// objective of a feasibility-repaired copy of the current potentials;
// by weak duality that value never exceeds the true optimum, so once it
// clears abortAbove the caller may discard the candidate without
// finishing the solve. Pivots priced off the candidate list carry no
// certificate and are not checked. The bound is reported minus a small
// guard so that float error in the repair can never certify past a true
// optimum that ties abortAbove.
//
// intr, when non-nil, is polled once per iteration: an observed
// interrupt stops the loop within one pivot's worth of work (O(m·n))
// and returns stopInterrupted with a one-shot feasibility-repaired dual
// bound (feasibleDualBound) as a certified lower bound on the optimum —
// this is what makes a query deadline take effect inside a single large
// solve instead of only between solves.
func (st *simplexState) pivotLoop(supply, demand []float64, abortAbove float64, intr *atomic.Bool) (iter int, stop stopCause, bound float64, err error) {
	// The budget is generous: well-behaved instances pivot O(m+n) times.
	maxIter := 200 * (st.m + st.n + 10)
	if st.maxIter > 0 {
		maxIter = st.maxIter
	}
	tol := 1e-10 * st.scale
	guard := boundGuard * st.scale
	st.computeDuals()
	for iter = 0; iter < maxIter; iter++ {
		if intr != nil && intr.Load() {
			b := st.feasibleDualBound(supply, demand) - guard
			if b < 0 {
				b = 0
			}
			return iter, stopInterrupted, b, nil
		}
		ei, ej, scanBound, ok := st.entering(tol, supply, demand)
		if b := scanBound - guard; b > abortAbove {
			return iter, stopAborted, b, nil
		}
		if !ok {
			return iter, stopOptimal, 0, nil
		}
		st.pivot(ei, ej)
	}
	return maxIter, stopOptimal, 0, fmt.Errorf("transport: simplex on %dx%d problem: %w", st.m, st.n, ErrIterationLimit)
}

func newMatrix(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// addBasic inserts cell (i,j) into the basis and adjacency lists.
func (st *simplexState) addBasic(i, j int) {
	cell := i*st.n + j
	if st.basic[cell] {
		return
	}
	st.basic[cell] = true
	st.adj[i] = append(st.adj[i], int32(st.m+j))
	st.adj[st.m+j] = append(st.adj[st.m+j], int32(i))
}

// removeBasic removes cell (i,j) from the basis and adjacency lists.
func (st *simplexState) removeBasic(i, j int) {
	cell := i*st.n + j
	st.basic[cell] = false
	st.adj[i] = removeNode(st.adj[i], int32(st.m+j))
	st.adj[st.m+j] = removeNode(st.adj[st.m+j], int32(i))
}

func removeNode(list []int32, node int32) []int32 {
	for k, x := range list {
		if x == node {
			list[k] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// nextLive returns the first position p >= from of order whose entry,
// mapped to reduced coordinates by inv, is a live index, together with
// that index; (len(order), -1) when there is none. Entries stripped by
// the sparsity reduction map to -1 and are skipped like inactive ones.
func nextLive(order []int32, from int32, inv []int32, live []bool) (int32, int32) {
	for p := int(from); p < len(order); p++ {
		if x := inv[order[p]]; x >= 0 && live[x] {
			return int32(p), x
		}
	}
	return int32(len(order)), -1
}

// refreshRow recomputes the two cheapest active columns of reduced row
// i and the row's regret, the cost gap between them. Columns only ever
// deactivate during one initialization, so both positions advance
// monotonically through the row's compiled order and the result equals
// that of a full rescan: the cheapest active column with the lowest
// index among ties, then the next one.
func (st *simplexState) refreshRow(i int32) {
	n := st.cc.n
	oi := int(st.rowMap[i])
	order := st.cc.rowOrder[oi*n : (oi+1)*n]
	p1, m1 := nextLive(order, st.rowPos1[i], st.colInv, st.colActive)
	p2, m2 := nextLive(order, max(st.rowPos2[i], p1+1), st.colInv, st.colActive)
	st.rowPos1[i], st.rowMin1[i], st.rowPos2[i], st.rowMin2[i] = p1, m1, p2, m2
	st.rowPen[i] = st.regret(i, m1, i, m2)
}

// refreshCol is refreshRow for reduced column j.
func (st *simplexState) refreshCol(j int32) {
	m := st.cc.m
	oj := int(st.colMap[j])
	order := st.cc.colOrder[oj*m : (oj+1)*m]
	p1, m1 := nextLive(order, st.colPos1[j], st.rowInv, st.rowActive)
	p2, m2 := nextLive(order, max(st.colPos2[j], p1+1), st.rowInv, st.rowActive)
	st.colPos1[j], st.colMin1[j], st.colPos2[j], st.colMin2[j] = p1, m1, p2, m2
	st.colPen[j] = st.regret(m1, j, m2, j)
}

// noRegret is the regret of a row or column with no active entry left;
// it sorts below every real regret (which are non-negative), so such a
// line is never selected.
const noRegret = -2

// regret returns the Vogel penalty of a row or column whose two
// cheapest active cells are (i1,j1) and (i2,j2): their cost gap, +Inf
// when only the first is left (the allocation is forced), noRegret when
// none is. A missing cell has a negative index.
func (st *simplexState) regret(i1, j1, i2, j2 int32) float64 {
	switch {
	case i1 < 0 || j1 < 0:
		return noRegret
	case i2 < 0 || j2 < 0:
		return math.Inf(1)
	}
	return st.cost[i2][j2] - st.cost[i1][j1]
}

// dropActive removes x from the ascending list of active indices.
func dropActive(list []int32, x int32) []int32 {
	k := 0
	for list[k] != x {
		k++
	}
	return append(list[:k], list[k+1:]...)
}

// initVogel builds the initial solution with Vogel's approximation
// method: repeatedly allocate at the cheapest cell of the active row or
// column with the largest regret (lowest row, then lowest column, among
// equals). Each allocation deactivates exactly one row or column, which
// keeps the allocated cells acyclic; patchBasis completes the spanning
// tree afterwards if fewer than m+n-1 cells were created.
func (st *simplexState) initVogel(supply, demand []float64) {
	m, n := st.m, st.n
	s := st.vs[:m]
	d := st.vd[:n]
	copy(s, supply)
	copy(d, demand)
	rows, cols := st.rowList[:m], st.colList[:n]
	for i := range rows {
		rows[i] = int32(i)
		st.rowActive[i] = true
	}
	for j := range cols {
		cols[j] = int32(j)
		st.colActive[j] = true
	}
	for _, i := range rows {
		st.rowPos1[i], st.rowPos2[i] = 0, 0
		st.refreshRow(i)
	}
	for _, j := range cols {
		st.colPos1[j], st.colPos2[j] = 0, 0
		st.refreshCol(j)
	}

	for len(rows) > 0 && len(cols) > 0 {
		bestPenalty := -1.0
		bestIsRow := true
		bestIdx := int32(-1)
		for _, i := range rows {
			if p := st.rowPen[i]; p > bestPenalty {
				bestPenalty, bestIsRow, bestIdx = p, true, i
			}
		}
		for _, j := range cols {
			if p := st.colPen[j]; p > bestPenalty {
				bestPenalty, bestIsRow, bestIdx = p, false, j
			}
		}
		if bestIdx < 0 {
			break
		}

		var i, j int32
		if bestIsRow {
			i, j = bestIdx, st.rowMin1[bestIdx]
		} else {
			i, j = st.colMin1[bestIdx], bestIdx
		}
		q := math.Min(s[i], d[j])
		st.flow[i][j] += q
		st.addBasic(int(i), int(j))
		s[i] -= q
		d[j] -= q
		// Deactivate exactly one side so the allocation graph stays
		// acyclic; the surviving zero-mass side absorbs a degenerate
		// allocation later. Every line that had the deactivated one
		// among its two cheapest entries is refreshed right away, so the
		// regrets read above are always current.
		if s[i] <= d[j] && len(rows) > 1 || len(cols) == 1 {
			st.rowActive[i] = false
			rows = dropActive(rows, i)
			for _, c := range cols {
				if st.colMin1[c] == i || st.colMin2[c] == i {
					st.refreshCol(c)
				}
			}
		} else {
			st.colActive[j] = false
			cols = dropActive(cols, j)
			for _, r := range rows {
				if st.rowMin1[r] == j || st.rowMin2[r] == j {
					st.refreshRow(r)
				}
			}
		}
	}
}

// patchBasis extends the current basic cells to a spanning tree of the
// m+n nodes by adding zero-flow cells that connect distinct components,
// preferring cheap cells so the first dual solution is informative.
func (st *simplexState) patchBasis() {
	total := st.m + st.n
	parent := st.uf
	for i := 0; i < total; i++ {
		parent[i] = int32(i)
	}
	find := func(x int) int {
		for parent[x] != int32(x) {
			parent[x] = parent[parent[x]]
			x = int(parent[x])
		}
		return x
	}
	count := 0
	for i := 0; i < st.m; i++ {
		for _, nb := range st.adj[i] {
			count++
			ri, rj := find(i), find(int(nb))
			if ri != rj {
				parent[ri] = int32(rj)
			}
		}
	}
	for count < total-1 {
		// Find the cheapest non-basic cell joining two components.
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < st.m; i++ {
			for j := 0; j < st.n; j++ {
				if st.basic[i*st.n+j] {
					continue
				}
				if find(i) != find(st.m+j) && st.cost[i][j] < best {
					best = st.cost[i][j]
					bi, bj = i, j
				}
			}
		}
		if bi < 0 {
			// Should be impossible: a bipartite graph with all cells
			// available is connected.
			panic("transport: patchBasis found no connecting cell")
		}
		st.addBasic(bi, bj)
		parent[find(bi)] = int32(find(st.m + bj))
		count++
	}
}

// computeDuals solves u_i + v_j = c_ij over the basis tree with
// u_0 = 0 and roots the tree at node 0, from scratch.
func (st *simplexState) computeDuals() {
	st.u[0] = 0
	st.parent[0] = -1
	st.depth[0] = 0
	st.hang(0)
}

// hang walks the part of the basis tree below node root — whose parent,
// depth and dual must be set — and sets parent, depth and dual of every
// node in it. A node's dual is computed from its parent's, so it is the
// same alternating sum along the unique tree path from node 0 whether
// the walk starts at node 0 or at a subtree: re-hanging a subtree gives
// bitwise the duals of a full recomputation.
func (st *simplexState) hang(root int32) {
	m := int32(st.m)
	st.queue = append(st.queue[:0], root)
	for head := 0; head < len(st.queue); head++ {
		node := st.queue[head]
		up, below := st.parent[node], st.depth[node]+1
		if node < m {
			row, ui := st.cost[node], st.u[node]
			for _, nb := range st.adj[node] {
				if nb != up {
					st.v[nb-m] = row[nb-m] - ui
					st.parent[nb], st.depth[nb] = node, below
					st.queue = append(st.queue, nb)
				}
			}
		} else {
			j := node - m
			vj := st.v[j]
			for _, nb := range st.adj[node] {
				if nb != up {
					st.u[nb] = st.cost[nb][j] - vj
					st.parent[nb], st.depth[nb] = node, below
					st.queue = append(st.queue, nb)
				}
			}
		}
	}
}

// entering returns a non-basic cell with negative reduced cost, or
// ok=false when the current basis is optimal. It first prices the
// candidate list (cells negative at the last full scan) and picks the
// most negative still-valid entry; only when the list is exhausted
// does it rescan the whole matrix, refilling the list. Optimality is
// still certified by a clean full scan, so the result is exact.
//
// A full scan also yields the abort certificate of pivotLoop as
// bound; a pivot priced off the candidate list has none (-Inf). The
// scan sees rc_ij = c_ij - u_i - v_j of every non-basic cell, so it
// knows how far row i's potential has to drop to become dual feasible
// against the current v: by rowMin_i = min(-tol, min_j rc_ij), the
// floor -tol standing in for the cells (basic ones among them, whose
// reduced cost is rounding noise around 0) that price out above -tol
// and are not compared one by one. (u + rowMin, v) is dual feasible,
// so bound = Σ_j d_j·v_j + Σ_i s_i·(u_i + rowMin_i) never exceeds the
// optimum — at most tol·Σs below feasibleDualBound's value for the same
// potentials, for one compare per *negative* cell and O(m+n) flops per
// scan instead of a second O(m·n) pass.
func (st *simplexState) entering(tol float64, supply, demand []float64) (ei, ej int, bound float64, ok bool) {
	// Price the surviving candidates.
	if len(st.cand) > 0 {
		bi, bj := -1, -1
		best := -tol
		kept := st.cand[:0]
		for _, cell := range st.cand {
			i, j := int(cell.i), int(cell.j)
			if st.basic[i*st.n+j] {
				continue
			}
			rc := st.cost[i][j] - st.u[i] - st.v[j]
			if rc < -tol {
				kept = append(kept, cell)
				if rc < best {
					best = rc
					bi, bj = i, j
				}
			}
		}
		st.cand = kept
		if bi >= 0 {
			return bi, bj, math.Inf(-1), true
		}
	}

	// Full scan: find the most negative cell and refill the list.
	maxCand := 4 * (st.m + st.n)
	st.cand = st.cand[:0]
	bi, bj := -1, -1
	best := -tol
	n := st.n
	v := st.v[:n]
	for i := 0; i < st.m; i++ {
		ui := st.u[i]
		row := st.cost[i][:n]
		base := i * n
		basic := st.basic[base : base+n]
		rowMin, rowJ := -tol, -1
		for j, c := range row {
			if basic[j] {
				continue
			}
			rc := c - ui - v[j]
			if rc < -tol {
				if len(st.cand) < maxCand {
					st.cand = append(st.cand, candCell{int32(i), int32(j)})
				}
				if rc < rowMin {
					rowMin, rowJ = rc, j
				}
			}
		}
		if rowMin < best {
			best = rowMin
			bi, bj = i, rowJ
		}
		bound += supply[i] * (ui + rowMin)
	}
	for j, d := range demand {
		bound += d * v[j]
	}
	return bi, bj, bound, bi >= 0
}

// appendPath appends to st.cycle the cells of the tree path from node x
// up to its ancestor top, with alternating signs starting at minus.
func (st *simplexState) appendPath(x, top int32) {
	m := int32(st.m)
	for plus := false; x != top; plus = !plus {
		up := st.parent[x]
		if x < m {
			st.cycle = append(st.cycle, cycleCell{x, up - m, plus})
		} else {
			st.cycle = append(st.cycle, cycleCell{up, x - m, plus})
		}
		x = up
	}
}

// pivot brings cell (ei,ej) into the basis: it finds the unique cycle
// the cell closes in the basis tree, shifts the maximal flow theta
// around it, removes the blocking cell and re-hangs the subtree that
// cell cut off below the entering one. The tree must be rooted (parent,
// depth and duals current), which pivot maintains.
func (st *simplexState) pivot(ei, ej int) {
	// Find the common ancestor of the entering cell's two ends, then
	// record the tree path from either end up to it. The entering cell
	// has sign +; path cells alternate starting with - next to the end.
	m := int32(st.m)
	a, b := int32(ei), m+int32(ej)
	for a != b {
		if st.depth[a] >= st.depth[b] {
			a = st.parent[a]
		} else {
			b = st.parent[b]
		}
	}
	st.cycle = append(st.cycle[:0], cycleCell{int32(ei), int32(ej), true})
	st.appendPath(int32(ei), a)
	rowSide := len(st.cycle) // cycle[1:rowSide] is the row end's path
	st.appendPath(m+int32(ej), a)

	// theta is the minimal flow on a minus cell; ties break toward the
	// lexicographically smallest cell for deterministic pivoting.
	theta := math.Inf(1)
	li, lj, lk := -1, -1, -1
	for k, c := range st.cycle {
		if c.plus {
			continue
		}
		f := st.flow[c.i][c.j]
		if f < theta || (f == theta && (int(c.i) < li || int(c.i) == li && int(c.j) < lj)) {
			theta = f
			li, lj, lk = int(c.i), int(c.j), k
		}
	}
	for _, c := range st.cycle {
		if c.plus {
			st.flow[c.i][c.j] += theta
		} else {
			st.flow[c.i][c.j] -= theta
		}
	}
	// Clamp tiny negatives introduced by floating-point cancellation.
	st.flow[li][lj] = 0
	st.removeBasic(li, lj)
	st.addBasic(ei, ej)

	// The leaving cell cut off the subtree holding one end of the
	// entering cell; that end now hangs below the other.
	top, sub := m+int32(ej), int32(ei)
	if lk >= rowSide {
		top, sub = sub, top
	}
	st.parent[sub], st.depth[sub] = top, st.depth[top]+1
	if sub < m {
		st.u[sub] = st.cost[ei][ej] - st.v[ej]
	} else {
		st.v[ej] = st.cost[ei][ej] - st.u[ei]
	}
	st.hang(sub)
}
