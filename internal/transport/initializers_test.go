package transport

import (
	"fmt"
	"math"
)

// Initializer selects the rule used to construct the initial basic
// feasible solution of the transportation simplex. Production code has
// one initializer, Vogel; the others live here as independent witnesses
// that the pivoting machinery reaches the same optimum from a poor
// start.
type Initializer int

const (
	// Vogel is the production start (initVogel).
	Vogel Initializer = iota
	// Northwest uses the northwest-corner rule, which ignores costs.
	Northwest
	// Russell uses Russell's approximation method: allocation at the
	// cell with the most negative c_ij - max-row-cost - max-column-cost.
	Russell
)

// solveFrom is Solve starting from the given initializer.
func solveFrom(p Problem, init Initializer) (*Solution, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	st := newSimplexState(len(p.Supply), len(p.Demand))
	st.prepareDense(compileCost(p.Cost))
	switch init {
	case Vogel:
		st.initVogel(p.Supply, p.Demand)
	case Northwest:
		st.initNorthwest(p.Supply, p.Demand)
	case Russell:
		st.initRussell(p.Supply, p.Demand)
	default:
		return nil, fmt.Errorf("transport: unknown initializer %d", init)
	}
	st.patchBasis()
	iter, _, _, err := st.pivotLoop(p.Supply, p.Demand, math.Inf(1), nil)
	if err != nil {
		return nil, err
	}
	return st.solution(iter), nil
}

// initNorthwest builds the initial solution with the northwest-corner
// rule, producing exactly m+n-1 basic cells (degenerate zeros
// included).
func (st *simplexState) initNorthwest(supply, demand []float64) {
	s := append([]float64(nil), supply...)
	d := append([]float64(nil), demand...)
	i, j := 0, 0
	for i < st.m && j < st.n {
		q := math.Min(s[i], d[j])
		st.flow[i][j] = q
		st.addBasic(i, j)
		s[i] -= q
		d[j] -= q
		if i == st.m-1 && j == st.n-1 {
			break
		}
		// Advance in exactly one direction to keep the basis a tree;
		// on ties prefer the row unless it is the last row.
		if s[i] <= d[j] && i < st.m-1 {
			i++
		} else {
			j++
		}
	}
}

// initRussell builds the initial solution with Russell's approximation
// method: with row potentials ubar_i = max over active j of c_ij and
// column potentials vbar_j = max over active i, it repeatedly allocates
// at the active cell with the most negative c_ij - ubar_i - vbar_j.
// Start quality typically sits between Northwest and Vogel; the method
// is provided for experimentation and as a third independent witness
// in the initializer-equivalence tests.
func (st *simplexState) initRussell(supply, demand []float64) {
	m, n := st.m, st.n
	s := st.vs[:m]
	d := st.vd[:n]
	copy(s, supply)
	copy(d, demand)
	rowActive := st.rowActive[:m]
	colActive := st.colActive[:n]
	for i := range rowActive {
		rowActive[i] = true
	}
	for j := range colActive {
		colActive[j] = true
	}
	activeRows, activeCols := m, n

	ubar := make([]float64, m)
	vbar := make([]float64, n)
	refresh := func() {
		for i := 0; i < m; i++ {
			if !rowActive[i] {
				continue
			}
			ubar[i] = math.Inf(-1)
			for j := 0; j < n; j++ {
				if colActive[j] && st.cost[i][j] > ubar[i] {
					ubar[i] = st.cost[i][j]
				}
			}
		}
		for j := 0; j < n; j++ {
			if !colActive[j] {
				continue
			}
			vbar[j] = math.Inf(-1)
			for i := 0; i < m; i++ {
				if rowActive[i] && st.cost[i][j] > vbar[j] {
					vbar[j] = st.cost[i][j]
				}
			}
		}
	}
	refresh()

	for activeRows > 0 && activeCols > 0 {
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if !rowActive[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if !colActive[j] {
					continue
				}
				if delta := st.cost[i][j] - ubar[i] - vbar[j]; delta < best {
					best = delta
					bi, bj = i, j
				}
			}
		}
		if bi < 0 {
			break
		}
		q := math.Min(s[bi], d[bj])
		st.flow[bi][bj] += q
		st.addBasic(bi, bj)
		s[bi] -= q
		d[bj] -= q
		if s[bi] <= d[bj] && activeRows > 1 || activeCols == 1 {
			rowActive[bi] = false
			activeRows--
		} else {
			colActive[bj] = false
			activeCols--
		}
		refresh()
	}
}
