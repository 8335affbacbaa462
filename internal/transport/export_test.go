package transport

import "math"

// PivotStats is what one solve's pivot loop did.
type PivotStats struct {
	Pivots        int // pivots to optimality
	BlandSwitches int // degenerate streaks that reached the switch to Bland's rule
}

// SolveWithStats solves one problem over the cost matrix of s on a fresh
// state and returns its canonical value with the pivot loop's stats.
// dense selects the full shape (the path of SolveValue, SolveFlow and
// the engine's flow sample) over the stripped one (the path of
// SolveValueBoundedIntr); forceBland prices every pivot by Bland's rule,
// and a positive maxIter replaces the pivot cap.
// It lets the black-box tests, which need the corpus generators and so
// cannot live in this package, reach the test seams.
func (s *Solver) SolveWithStats(supply, demand []float64, dense, forceBland bool, maxIter int) (float64, PivotStats, error) {
	st := newSimplexState(s.cc.m, s.cc.n)
	st.forceBland, st.maxIter = forceBland, maxIter
	var (
		value float64
		err   error
	)
	if dense {
		if _, err = st.run(s.cc, supply, demand); err == nil {
			value = st.canonicalValue(supply, demand, st.polish(supply, demand))
		}
	} else {
		var res BoundedResult
		res, err = st.solveBounded(s.cc, supply, demand, math.Inf(1), nil, true)
		value = res.Value
	}
	return value, PivotStats{Pivots: st.pivots, BlandSwitches: st.blandSwitches}, err
}
