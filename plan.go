package emdsearch

import (
	"fmt"
	"sort"

	"emdsearch/internal/core"
)

// levelKind names the lower bound one level of the filter chain
// evaluates.
type levelKind uint8

const (
	kindPotential levelKind = iota // dual-potential projections, at full dimensionality
	kindRedEMD                     // reduced EMD at d'
)

// planLevel is one chained lower bound: what it evaluates, the reduced
// dimensionality it works at and the reduction itself, nil until Build
// or a snapshot load binds it. The potential level works on the
// original histograms: its dims is 0 and it has no reduction.
type planLevel struct {
	kind levelKind
	dims int
	red  *core.Reduction
}

// plan is the engine's filter chain (paper Section 4): the ordered
// lower bounds a candidate passes, cheapest first, before exact
// refinement. It is the only representation of the chain — the engine
// and each snapshot hold one, and the per-level dimensionalities and
// the stage names are derived from it. A plan is immutable: Build and a
// snapshot load each make a new one.
type plan struct {
	levels []planLevel
}

// compilePlan validates opts (after withDefaults) for dim-dimensional
// histograms and lays out the chain they configure, reductions unbound.
// Every rule that involves more than one Options field lives here.
func compilePlan(o Options, dim int) (*plan, error) {
	if o.ReducedDims < 0 || o.ReducedDims > dim {
		return nil, fmt.Errorf("emdsearch: ReducedDims %d out of range [0, %d]", o.ReducedDims, dim)
	}
	switch o.IndexKind {
	case IndexAuto, IndexOff:
	case "vptree":
		return nil, fmt.Errorf("emdsearch: IndexKind %q: the VP-tree candidate generator was removed; every query is served by the filter chain", o.IndexKind)
	default:
		return nil, fmt.Errorf("emdsearch: IndexKind %q, want %q or %q", o.IndexKind, IndexAuto, IndexOff)
	}
	if o.SampleSize < 0 {
		return nil, fmt.Errorf("emdsearch: SampleSize %d, want >= 0", o.SampleSize)
	}
	switch o.Method {
	case FBAll, FBMod, KMedoids, Adjacent:
	default:
		return nil, fmt.Errorf("emdsearch: unknown reduction method %q", o.Method)
	}
	var dims []int // the chain's reduced dimensionalities, coarse→fine
	if o.ReducedDims > 0 {
		dims = []int{o.ReducedDims}
	}
	if len(o.Hierarchy) > 0 {
		dims = append([]int(nil), o.Hierarchy...)
		sort.Ints(dims)
		for i, dr := range dims {
			if dr < 1 || dr > dim {
				return nil, fmt.Errorf("emdsearch: Hierarchy level %d out of range [1, %d]", dr, dim)
			}
			if i > 0 && dr == dims[i-1] {
				return nil, fmt.Errorf("emdsearch: Hierarchy levels must be distinct (got %v)", o.Hierarchy)
			}
		}
		if finest := dims[len(dims)-1]; o.ReducedDims != 0 && o.ReducedDims != finest {
			return nil, fmt.Errorf("emdsearch: ReducedDims %d conflicts with Hierarchy maximum %d", o.ReducedDims, finest)
		}
	}
	chain := make([]planLevel, len(dims))
	for i, d := range dims {
		chain[i].dims = d
	}
	return newPlan(chain), nil
}

// newPlan lays out the levels over a chain of reductions (coarse→fine;
// each entry gives dims and, when bound, red): the potential level,
// then one reduced EMD per entry. An empty chain is the exact scan and
// has no level at all.
func newPlan(chain []planLevel) *plan {
	p := &plan{}
	if len(chain) > 0 {
		p.levels = append(p.levels, planLevel{kind: kindPotential})
	}
	for _, lv := range chain {
		lv.kind = kindRedEMD
		p.levels = append(p.levels, lv)
	}
	return p
}

// boundPlan lays out the plan over a chain of built reductions,
// coarse→fine.
func boundPlan(chain []*core.Reduction) *plan {
	levels := make([]planLevel, len(chain))
	for i, r := range chain {
		levels[i] = planLevel{dims: r.ReducedDims(), red: r}
	}
	return newPlan(levels)
}

// chainDims lists a chain's reduced dimensionalities.
func chainDims(chain []*core.Reduction) []int {
	dims := make([]int, len(chain))
	for i, r := range chain {
		dims[i] = r.ReducedDims()
	}
	return dims
}

// reductions returns the chain's bound reductions, coarse→fine: one
// per reduced-EMD level, none before Build.
func (p *plan) reductions() []*core.Reduction {
	var out []*core.Reduction
	for _, lv := range p.levels {
		if lv.kind == kindRedEMD && lv.red != nil {
			out = append(out, lv.red)
		}
	}
	return out
}

// dims returns the per-level reduced dimensionalities, coarse→fine.
func (p *plan) dims() []int {
	var out []int
	for _, lv := range p.levels {
		if lv.kind == kindRedEMD {
			out = append(out, lv.dims)
		}
	}
	return out
}

// finest returns the finest level's reduction, nil while the engine
// runs unreduced (ReducedDims 0, or Build has not run).
func (p *plan) finest() *core.Reduction {
	if n := len(p.levels); n > 0 {
		return p.levels[n-1].red
	}
	return nil
}

// stageName is the level's label in QueryStats and Metrics.
func (p *plan) stageName(lv planLevel) string {
	if lv.kind == kindPotential {
		return "Potentials"
	}
	if len(p.dims()) > 1 {
		return fmt.Sprintf("Red-EMD-%d", lv.dims)
	}
	return "Red-EMD"
}
