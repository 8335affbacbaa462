package emdsearch

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"emdsearch/internal/cascadeplan"
	"emdsearch/internal/core"
)

// Cascade-planner tuning. The check cadence keeps the query-path cost
// of auto-cascading to one atomic increment; everything heavier runs
// on a background goroutine, and a pipeline rebuild happens only when
// a strictly cheaper plan is found.
const (
	// cascadeCheckEvery queries, the query path considers a drift
	// check (and hands it to a background goroutine).
	cascadeCheckEvery = 32
	// cascadeMinQueries a window must cover before its counters are
	// trusted for planning.
	cascadeMinQueries = 16
	// cascadeDriftHigh/Low bound the accepted ratio of observed to
	// expected finest-level survivors per query; outside the band the
	// engine re-plans.
	cascadeDriftHigh = 1.5
	cascadeDriftLow  = 1.0 / cascadeDriftHigh
	// cascadePeriodicEvery queries, a planning pass runs even without
	// drift (it costs a model fit, not a rebuild).
	cascadePeriodicEvery = 256
	// cascadeGain: a proposal replaces the incumbent only when the
	// model prices it at least this factor cheaper — hysteresis
	// against plan flapping on noisy windows.
	cascadeGain = 0.95
)

// Replan forces one synchronous cascade-planning pass: fit the cost
// model to the counters observed since the last plan adoption,
// propose the cheapest chain, and — if it is materially cheaper than
// the incumbent — derive the new reductions and hot-swap a freshly
// built pipeline. It reports whether a new chain was adopted. Queries
// keep running throughout; answers are byte-identical across plans.
// Returns (false, nil) when a background re-plan is already in
// flight, and an error when no queries have been observed yet (the
// model needs at least one window of counters).
//
// Replan exists for benchmarks and for callers who know the workload
// just shifted; in normal operation the engine re-plans by itself
// when the observed selectivity drifts (see Options.AutoCascade).
func (e *Engine) Replan() (bool, error) {
	if !e.opts.AutoCascade {
		return false, fmt.Errorf("emdsearch: Replan requires Options.AutoCascade")
	}
	return e.replanIfNeeded(true)
}

// maybeReplan is the query-path hook: count the query and, every
// cascadeCheckEvery-th one, kick a background drift check.
func (e *Engine) maybeReplan() {
	if !e.opts.AutoCascade {
		return
	}
	if e.planTick.Add(1)%cascadeCheckEvery != 0 {
		return
	}
	go func() {
		_, _ = e.replanIfNeeded(false)
	}()
}

// resetPlanLocked installs the freshly built single-level chain as
// the active plan (Build just derived e.red at Options.ReducedDims)
// and re-anchors the drift window. Caller holds e.mu.
func (e *Engine) resetPlanLocked() {
	levels := []int{e.red.ReducedDims()}
	e.plan = &cascadeplan.Plan{Levels: levels, ID: cascadeplan.PlanID(levels)}
	e.planBase = e.Metrics()
	e.planExpPulled = 0
	e.metrics.planActive(levels, e.plan.ID)
}

// replanIfNeeded runs one planning pass; force (Engine.Replan) skips
// the window-size and drift gates but not the is-it-cheaper gate.
// At most one pass runs at a time (e.replanning); the model fit and
// reduction derivation run without e.mu, and the final install
// re-validates that no Build or competing adoption raced us.
func (e *Engine) replanIfNeeded(force bool) (changed bool, err error) {
	e.mu.Lock()
	if !e.opts.AutoCascade || e.red == nil || e.replanning {
		e.mu.Unlock()
		return false, nil
	}
	e.replanning = true
	red := e.red
	flows := e.buildFlows
	vectors := e.store.Vectors()
	base := e.planBase
	expPulled := e.planExpPulled
	var curLevels []int
	if e.plan != nil {
		curLevels = append([]int(nil), e.plan.Levels...)
	} else {
		curLevels = []int{red.ReducedDims()}
	}
	e.mu.Unlock()
	defer func() {
		// A planner or derivation invariant failure must not leak the
		// latch (or the panic into the caller's goroutine — this runs
		// detached from maybeReplan).
		if r := recover(); r != nil {
			changed, err = false, fmt.Errorf("emdsearch: replan panic: %v", r)
		}
		e.mu.Lock()
		e.replanning = false
		e.mu.Unlock()
	}()

	cur := e.Metrics()
	finestDims := curLevels[len(curLevels)-1]
	w := cascadeWindow(base, cur, finestDims, e.Dim())
	if w.Queries < 1 || len(w.Levels) == 0 {
		if force {
			return false, fmt.Errorf("emdsearch: Replan needs at least one observed query with filter counters")
		}
		return false, nil
	}
	if !force {
		if w.Queries < cascadeMinQueries {
			return false, nil
		}
		obs := finestSurvivorsPerQuery(w)
		drifted := expPulled <= 0 || obs < 0 ||
			obs > expPulled*cascadeDriftHigh || obs < expPulled*cascadeDriftLow
		if !drifted && w.Queries < cascadePeriodicEvery {
			return false, nil
		}
	}

	model, ferr := cascadeplan.Fit(w, cascadeplan.Config{})
	if ferr != nil {
		if force {
			return false, ferr
		}
		return false, nil
	}
	proposal, perr := model.Propose(curLevels...)
	if perr != nil {
		if force {
			return false, perr
		}
		return false, nil
	}
	keep := equalLevels(proposal.Levels, curLevels)
	if !keep {
		if incumbent, cerr := model.ChainCost(curLevels); cerr == nil && proposal.Cost > cascadeGain*incumbent {
			keep = true
		}
	}
	if keep {
		// Re-anchor the drift window on what this pass observed, so
		// the next check measures fresh drift instead of re-litigating
		// the same counters.
		e.mu.Lock()
		if e.red == red {
			e.planBase = cur
			e.planExpPulled = model.Survivors(finestDims)
		}
		e.mu.Unlock()
		return false, nil
	}

	newRed, cascade, newFlows, derr := e.deriveChain(proposal.Levels, red, flows, vectors)
	if derr != nil {
		return false, fmt.Errorf("emdsearch: replan: %w", derr)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.red != red {
		// Build (or a competing adoption) replaced the reduction while
		// we planned against the old one; drop the stale proposal.
		return false, nil
	}
	if newFlows != nil {
		e.buildFlows = newFlows
	}
	exp := model.Survivors(proposal.Levels[len(proposal.Levels)-1])
	if ierr := e.installPlanLocked(newRed, cascade, proposal, exp); ierr != nil {
		return false, ierr
	}
	return true, nil
}

// installPlanLocked swaps a derived chain in as the active pipeline:
// reduction, cascade, plan, and an eagerly rebuilt snapshot, so the
// next query never pays the rebuild on its own latency (the PR-1 swap
// discipline). Caller holds e.mu.
func (e *Engine) installPlanLocked(red *core.Reduction, cascade []*core.Reduction, plan *cascadeplan.Plan, expPulled float64) error {
	e.red = red
	if len(cascade) > 1 {
		e.cascade = cascade
	} else {
		e.cascade = nil
	}
	e.plan = plan
	e.snap = nil
	snap, err := e.buildSnapshotLocked()
	if err != nil {
		return err
	}
	e.snap = snap
	e.metrics.snapshotBuilt(snap)
	e.metrics.planReplanned(plan.Levels, plan.ID)
	e.planBase = e.Metrics()
	e.planExpPulled = expPulled
	return nil
}

// deriveChain materializes a planned chain off-lock: the finest
// reduction (reusing the current one when its dimensionality is
// unchanged, so a depth-only change never perturbs the finest filter)
// and the composed coarser levels. The rng is seeded from (Seed, plan
// fingerprint), so a given plan always derives the same chain.
func (e *Engine) deriveChain(levels []int, cur *core.Reduction, flows [][]float64, vectors []Histogram) (*core.Reduction, []*core.Reduction, [][]float64, error) {
	finest := levels[len(levels)-1]
	rng := rand.New(rand.NewSource(e.opts.Seed ^ int64(cascadeplan.PlanID(levels))))
	needFlows := e.opts.Method == FBMod || e.opts.Method == FBAll
	if needFlows && flows == nil {
		// Engine restored from a snapshot: Build never ran in this
		// process, so collect the sample flows the derivation needs.
		var err error
		if flows, err = e.collectFlows(vectors, rng); err != nil {
			return nil, nil, nil, err
		}
	}
	red := cur
	if cur == nil || cur.ReducedDims() != finest {
		var err error
		if red, err = e.deriveReduction(finest, flows, rng); err != nil {
			return nil, nil, nil, err
		}
	}
	if len(levels) == 1 {
		return red, nil, flows, nil
	}
	coarser := make([]int, 0, len(levels)-1)
	for i := len(levels) - 2; i >= 0; i-- {
		coarser = append(coarser, levels[i])
	}
	cascade, err := e.buildCascadeFrom(red, flows, coarser, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	return red, cascade, flows, nil
}

// adoptChain derives and installs the given cascade levels (ascending
// coarse→fine) as if the planner had proposed them, bypassing the
// cost model. In-package tests use it to pin a chain.
func (e *Engine) adoptChain(levels []int) error {
	if err := cascadeplan.ValidateLevels(levels, e.Dim()); err != nil {
		return err
	}
	e.mu.Lock()
	if !e.opts.AutoCascade {
		e.mu.Unlock()
		return fmt.Errorf("emdsearch: adoptChain requires AutoCascade")
	}
	if e.red == nil {
		e.mu.Unlock()
		return fmt.Errorf("emdsearch: adoptChain before Build")
	}
	if e.replanning {
		e.mu.Unlock()
		return fmt.Errorf("emdsearch: a re-plan is in flight")
	}
	e.replanning = true
	red := e.red
	flows := e.buildFlows
	vectors := e.store.Vectors()
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.replanning = false
		e.mu.Unlock()
	}()
	newRed, cascade, newFlows, err := e.deriveChain(levels, red, flows, vectors)
	if err != nil {
		return err
	}
	plan := &cascadeplan.Plan{Levels: append([]int(nil), levels...), ID: cascadeplan.PlanID(levels)}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.red != red {
		return fmt.Errorf("emdsearch: adoptChain raced a Build")
	}
	if newFlows != nil {
		e.buildFlows = newFlows
	}
	return e.installPlanLocked(newRed, cascade, plan, 0)
}

// cascadeWindow converts the metrics delta since the last plan
// adoption into a planner workload. finestDims resolves the bare
// "Red-EMD" stage name of single-level chains.
func cascadeWindow(base, cur Metrics, finestDims, dim int) cascadeplan.Workload {
	w := cascadeplan.Workload{
		Queries:     (cur.KNNQueries - base.KNNQueries) + (cur.RangeQueries - base.RangeQueries),
		Dim:         dim,
		Refinements: cur.Refinements - base.Refinements,
		RefineTime:  cur.RefineTime - base.RefineTime,
		Results:     cur.ResultsReturned - base.ResultsReturned,
	}
	for name, st := range cur.Stages {
		dims := stageLevelDims(name, finestDims)
		if dims == 0 {
			continue
		}
		prev := base.Stages[name]
		evals := st.Evaluations - prev.Evaluations
		if evals <= 0 {
			continue
		}
		w.Levels = append(w.Levels, cascadeplan.Observation{
			Dims:        dims,
			Evaluations: evals,
			Survivors:   evals - (st.Pruned - prev.Pruned),
			Time:        st.Time - prev.Time,
		})
	}
	return w
}

// stageLevelDims maps an observed stage name to its cascade level
// dimensionality: "Red-EMD-<m>" → m, bare "Red-EMD" → the active
// finest d'. Non-cascade stages (the IM prefix, index traversals, the
// asymmetric filter) return 0 and are not modeled as levels.
func stageLevelDims(name string, finest int) int {
	if name == "Red-EMD" {
		return finest
	}
	if rest, ok := strings.CutPrefix(name, "Red-EMD-"); ok {
		if m, err := strconv.Atoi(rest); err == nil && m > 0 {
			return m
		}
	}
	return 0
}

// finestSurvivorsPerQuery returns the drift quantity — survivors per
// query of the finest observed cascade level — or -1 when the window
// observed none.
func finestSurvivorsPerQuery(w cascadeplan.Workload) float64 {
	best := -1
	var surv int64
	for _, o := range w.Levels {
		if o.Dims > best {
			best, surv = o.Dims, o.Survivors
		}
	}
	if best < 0 {
		return -1
	}
	return float64(surv) / float64(w.Queries)
}

func equalLevels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CascadePlan returns the active auto-cascade chain (per-level
// reduced dimensionalities, ascending coarse→fine) or nil when no
// auto plan is active (AutoCascade off, or Build not yet called).
func (e *Engine) CascadePlan() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.plan == nil {
		return nil
	}
	return append([]int(nil), e.plan.Levels...)
}
