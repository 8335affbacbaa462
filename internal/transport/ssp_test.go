package transport

import (
	"fmt"
	"math"
)

// solveSSP solves p with a successive-shortest-path min-cost-flow
// algorithm over the bipartite residual graph, using Johnson potentials
// so every Dijkstra run sees non-negative reduced costs. It is slower
// than the simplex on large instances but entirely independent of it,
// which makes it the tests' cross-check oracle for the simplex.
func solveSSP(p Problem) (*Solution, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	m, n := len(p.Supply), len(p.Demand)
	total := m + n
	flow := newMatrix(m, n)

	remS := append([]float64(nil), p.Supply...)
	remD := append([]float64(nil), p.Demand...)
	var remaining float64
	for _, s := range remS {
		remaining += s
	}
	var scale float64
	for _, row := range p.Cost {
		for _, c := range row {
			if c > scale {
				scale = c
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	massTol := 1e-12 * math.Max(1, remaining)

	// Potentials: pi[0..m-1] rows, pi[m..m+n-1] columns. Initializing
	// column potentials to the cheapest incoming cost makes all forward
	// reduced costs non-negative before any flow exists.
	pi := make([]float64, total)
	for j := 0; j < n; j++ {
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if p.Cost[i][j] < best {
				best = p.Cost[i][j]
			}
		}
		pi[m+j] = best
	}

	dist := make([]float64, total)
	done := make([]bool, total)
	prev := make([]int32, total)

	// Each augmentation exhausts a row, a column, or a residual arc;
	// the budget below is far beyond what balanced instances need.
	maxIter := 50 * (m*n + total + 10)
	iter := 0
	for remaining > massTol {
		if iter++; iter > maxIter {
			return nil, fmt.Errorf("transport: ssp on %dx%d problem: %w", m, n, ErrIterationLimit)
		}
		// Dense Dijkstra from a virtual source connected to every row
		// with remaining supply.
		for v := 0; v < total; v++ {
			dist[v] = math.Inf(1)
			done[v] = false
			prev[v] = -1
		}
		for i := 0; i < m; i++ {
			if remS[i] > massTol {
				dist[i] = 0
				prev[i] = int32(i)
			}
		}
		target := -1
		for {
			u := -1
			best := math.Inf(1)
			for v := 0; v < total; v++ {
				if !done[v] && dist[v] < best {
					best = dist[v]
					u = v
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			if u >= m && remD[u-m] > massTol {
				target = u
				break
			}
			if u < m {
				// Forward arcs row u -> every column.
				row := p.Cost[u]
				for j := 0; j < n; j++ {
					rc := row[j] + pi[u] - pi[m+j]
					if rc < 0 {
						rc = 0 // guard against rounding drift
					}
					if d := dist[u] + rc; d < dist[m+j] {
						dist[m+j] = d
						prev[m+j] = int32(u)
					}
				}
			} else {
				// Backward arcs column -> rows with positive flow.
				j := u - m
				for i := 0; i < m; i++ {
					if flow[i][j] <= massTol {
						continue
					}
					rc := -p.Cost[i][j] + pi[u] - pi[i]
					if rc < 0 {
						rc = 0
					}
					if d := dist[u] + rc; d < dist[i] {
						dist[i] = d
						prev[i] = int32(u)
					}
				}
			}
		}
		if target < 0 {
			return nil, fmt.Errorf("transport: ssp found no augmenting path with %g mass remaining", remaining)
		}

		// Determine the bottleneck along source-row .. target-column.
		amount := remD[target-m]
		for v := int32(target); int(v) != int(prev[v]); v = prev[v] {
			u := prev[v]
			if u < int32(m) && v >= int32(m) {
				// forward arc: unconstrained
			} else {
				// backward arc column u -> row v
				if f := flow[v][int(u)-m]; f < amount {
					amount = f
				}
			}
			if int(u) == int(prev[u]) {
				if remS[u] < amount {
					amount = remS[u]
				}
			}
		}
		// Apply the augmentation.
		for v := int32(target); int(v) != int(prev[v]); v = prev[v] {
			u := prev[v]
			if u < int32(m) && v >= int32(m) {
				flow[u][int(v)-m] += amount
			} else {
				flow[v][int(u)-m] -= amount
				if flow[v][int(u)-m] < 0 {
					flow[v][int(u)-m] = 0
				}
			}
		}
		var srcRow int32
		for v := int32(target); ; v = prev[v] {
			if int(v) == int(prev[v]) {
				srcRow = v
				break
			}
		}
		remS[srcRow] -= amount
		if remS[srcRow] < 0 {
			remS[srcRow] = 0
		}
		remD[target-m] -= amount
		if remD[target-m] < 0 {
			remD[target-m] = 0
		}
		remaining -= amount

		// Johnson potential update keeps reduced costs non-negative.
		// Tentative labels beyond the target are clamped to the target
		// distance: only settled labels are valid shortest distances.
		dt := dist[target]
		for v := 0; v < total; v++ {
			d := dist[v]
			if d > dt {
				d = dt
			}
			pi[v] += d
		}
		if amount <= massTol {
			// A zero-size augmentation cannot make progress; only
			// numerically empty residues remain.
			break
		}
	}

	return &Solution{
		Objective:  objective(p.Cost, flow),
		Flow:       flow,
		Iterations: iter,
	}, nil
}
