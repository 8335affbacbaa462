package emdsearch

import (
	"fmt"
	"sort"

	"emdsearch/internal/cascadeplan"
	"emdsearch/internal/core"
)

// levelKind names the lower bound one level of the filter chain
// evaluates.
type levelKind uint8

const (
	kindCentroid   levelKind = iota // lazy k-d tree stream over Rubner centroids (Options.Positions)
	kindQuantIM                     // int16-quantized under-estimator of Red-IM
	kindIM                          // Red-IM
	kindRedEMD                      // symmetric reduced EMD at d'
	kindAsymRedEMD                  // full-dimensional query against d'-reduced data
)

// planLevel is one chained lower bound: what it evaluates, the reduced
// dimensionality it works at (0 for the centroid stream) and the
// reduction itself, nil until Build or a snapshot load binds it.
type planLevel struct {
	kind levelKind
	dims int
	red  *core.Reduction
}

// plan is the engine's filter chain (paper Section 4): the ordered
// lower bounds a candidate passes, cheapest first, before exact
// refinement. It is the only representation of the chain — the engine
// and each snapshot hold one, and the per-level dimensionalities, the
// planner fingerprint and the stage names are all derived from it. A
// plan is immutable: Build, a re-plan and a snapshot load each make a
// new one.
type plan struct {
	levels []planLevel
	auto   bool // the cascade planner may replace the chain (Options.AutoCascade)
}

// compilePlan validates opts (after withDefaults) for dim-dimensional
// histograms and lays out the chain they configure, reductions unbound.
// Every rule that involves more than one Options field lives here.
func compilePlan(o Options, dim int) (*plan, error) {
	if o.ReducedDims < 0 || o.ReducedDims > dim {
		return nil, fmt.Errorf("emdsearch: ReducedDims %d out of range [0, %d]", o.ReducedDims, dim)
	}
	switch o.IndexKind {
	case IndexAuto, IndexMTree, IndexVPTree, IndexOff:
	default:
		return nil, fmt.Errorf("emdsearch: IndexKind %q, want one of %q, %q, %q, %q",
			o.IndexKind, IndexAuto, IndexMTree, IndexVPTree, IndexOff)
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
	switch {
	case o.AutoCascade && len(o.Hierarchy) > 0:
		return nil, fmt.Errorf("emdsearch: AutoCascade conflicts with a fixed Hierarchy")
	case o.AutoCascade && o.ReducedDims == 0:
		return nil, fmt.Errorf("emdsearch: AutoCascade requires ReducedDims > 0")
	case o.AutoCascade && o.AsymmetricQuery:
		return nil, fmt.Errorf("emdsearch: AutoCascade conflicts with AsymmetricQuery")
	case o.AsymmetricQuery && len(o.Hierarchy) > 0:
		return nil, fmt.Errorf("emdsearch: AsymmetricQuery conflicts with a Hierarchy")
	}
	chain := make([]planLevel, len(dims))
	for i, d := range dims {
		chain[i].dims = d
	}
	return newPlan(chain, o.Positions != nil, o.AsymmetricQuery, o.AutoCascade), nil
}

// newPlan lays out the levels over a chain of reductions (coarse→fine;
// each entry gives dims and, when bound, red): the IM prefix on the
// coarsest reduction, then one reduced EMD per entry.
func newPlan(chain []planLevel, centroid, asym, auto bool) *plan {
	p := &plan{auto: auto}
	if centroid {
		p.levels = append(p.levels, planLevel{kind: kindCentroid})
	}
	for i, lv := range chain {
		add := func(kind levelKind) {
			lv.kind = kind
			p.levels = append(p.levels, lv)
		}
		if i == 0 {
			// The quantized scan accelerates an eager first pass over all
			// items; above a lazy centroid stream there is none, and its
			// per-item tangent recompilation would cost more than it prunes.
			if !centroid {
				add(kindQuantIM)
			}
			add(kindIM)
		}
		if asym {
			add(kindAsymRedEMD)
		} else {
			add(kindRedEMD)
		}
	}
	return p
}

// withChain returns p's layout (base ranking, query symmetry, auto)
// over a chain of built reductions, coarse→fine.
func (p *plan) withChain(chain []*core.Reduction) *plan {
	levels := make([]planLevel, len(chain))
	for i, r := range chain {
		levels[i] = planLevel{dims: r.ReducedDims(), red: r}
	}
	return newPlan(levels, p.has(kindCentroid), p.has(kindAsymRedEMD), p.auto)
}

// chainDims lists a chain's reduced dimensionalities.
func chainDims(chain []*core.Reduction) []int {
	dims := make([]int, len(chain))
	for i, r := range chain {
		dims[i] = r.ReducedDims()
	}
	return dims
}

func (p *plan) has(kind levelKind) bool {
	for _, lv := range p.levels {
		if lv.kind == kind {
			return true
		}
	}
	return false
}

// reductions returns the chain's bound reductions, coarse→fine: one
// per reduced-EMD level, none before Build.
func (p *plan) reductions() []*core.Reduction {
	var out []*core.Reduction
	for _, lv := range p.levels {
		if (lv.kind == kindRedEMD || lv.kind == kindAsymRedEMD) && lv.red != nil {
			out = append(out, lv.red)
		}
	}
	return out
}

// dims returns the per-level reduced dimensionalities, coarse→fine —
// the form the cascade planner and the persisted plan use.
func (p *plan) dims() []int {
	var out []int
	for _, lv := range p.levels {
		if lv.kind == kindRedEMD || lv.kind == kindAsymRedEMD {
			out = append(out, lv.dims)
		}
	}
	return out
}

// id is the planner's fingerprint of the chain.
func (p *plan) id() uint64 { return cascadeplan.PlanID(p.dims()) }

// finest returns the finest level's reduction, nil while the engine
// runs unreduced (ReducedDims 0, or Build has not run).
func (p *plan) finest() *core.Reduction {
	if n := len(p.levels); n > 0 {
		return p.levels[n-1].red
	}
	return nil
}

// indexEligible reports whether a metric tree over the reduced EMD can
// stand in for the chain: exactly one symmetric level and no base
// ranking with an order of its own.
func (p *plan) indexEligible() bool {
	return !p.has(kindCentroid) && !p.has(kindAsymRedEMD) && len(p.dims()) == 1
}

// stageName is the level's label in QueryStats and Metrics.
func (p *plan) stageName(lv planLevel) string {
	switch lv.kind {
	case kindQuantIM:
		return "Q-Red-IM"
	case kindIM:
		return "Red-IM"
	case kindAsymRedEMD:
		return "Asym-Red-EMD"
	case kindRedEMD:
		if len(p.dims()) > 1 {
			return fmt.Sprintf("Red-EMD-%d", lv.dims)
		}
		return "Red-EMD"
	}
	return "Centroid"
}
