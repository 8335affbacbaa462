package emdsearch

import (
	"fmt"
	"math/rand"
	"slices"

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

// replan forces one synchronous cascade-planning pass: fit the cost
// model to the counters observed since the last plan adoption,
// propose the cheapest chain, and — if it is materially cheaper than
// the incumbent — derive the new reductions and hot-swap a freshly
// built pipeline. It reports whether a new chain was adopted. Queries
// keep running throughout; answers are byte-identical across plans.
// Returns (false, nil) when a background re-plan is already in
// flight, and an error when no queries have been observed yet (the
// model needs at least one window of counters).
//
// Only the in-package tests call it, to adopt a plan at a known point;
// the engine re-plans by itself when the observed selectivity drifts
// (see Options.AutoCascade).
func (e *Engine) replan() (bool, error) {
	if !e.opts.AutoCascade {
		return false, fmt.Errorf("emdsearch: replan requires Options.AutoCascade")
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

// anchorPlanLocked publishes the just-installed e.plan and anchors the
// drift window on it: the metrics baseline is now, and expPulled is the
// finest-level survivors per query the planner expects (0 after Build,
// which starts over from the configured single level). Caller holds
// e.mu.
func (e *Engine) anchorPlanLocked(expPulled float64, replanned bool) {
	e.metrics.planActive(e.plan, replanned)
	e.planBase = e.Metrics()
	e.planExpPulled = expPulled
}

// replanIfNeeded runs one planning pass; force (Engine.replan) skips
// the window-size and drift gates but not the is-it-cheaper gate.
// At most one pass runs at a time (e.replanning); the model fit and
// reduction derivation run without e.mu, and the final install
// re-validates that no Build or competing adoption raced us.
func (e *Engine) replanIfNeeded(force bool) (changed bool, err error) {
	e.mu.Lock()
	cur := e.plan
	if !cur.auto || cur.finest() == nil || e.replanning {
		e.mu.Unlock()
		return false, nil
	}
	e.replanning = true
	flows := e.buildFlows
	vectors := e.store.Vectors()
	base := e.planBase
	expPulled := e.planExpPulled
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

	now := e.Metrics()
	curLevels := cur.dims()
	finestDims := curLevels[len(curLevels)-1]
	w := cascadeWindow(base, now, cur, e.Dim())
	if w.Queries < 1 || len(w.Levels) == 0 {
		if force {
			return false, fmt.Errorf("emdsearch: replan needs at least one observed query with filter counters")
		}
		return false, nil
	}
	if !force {
		if w.Queries < cascadeMinQueries {
			return false, nil
		}
		// The drift quantity: survivors per query of the finest level
		// the window observed (w.Levels runs coarse→fine).
		obs := float64(w.Levels[len(w.Levels)-1].Survivors) / float64(w.Queries)
		drifted := expPulled <= 0 ||
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
	keep := slices.Equal(proposal.Levels, curLevels)
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
		if e.plan == cur {
			e.planBase = now
			e.planExpPulled = model.Survivors(finestDims)
		}
		e.mu.Unlock()
		return false, nil
	}
	exp := model.Survivors(proposal.Levels[len(proposal.Levels)-1])
	return e.adoptLevels(cur, proposal.Levels, flows, vectors, exp)
}

// adoptLevels derives the chain for levels (ascending coarse→fine)
// off-lock and installs it in place of cur: build the new plan's
// snapshot, then swap plan and snapshot together — so the next query
// never pays the rebuild on its own latency (the PR-1 swap discipline)
// and a failed build leaves the engine on cur. It reports false when
// Build replaced cur meanwhile (the proposal is stale). The rng is
// seeded from (Seed, plan fingerprint), so a given plan always derives
// the same chain. Caller holds the e.replanning latch, not e.mu.
func (e *Engine) adoptLevels(cur *plan, levels []int, flows [][]float64, vectors []Histogram, expPulled float64) (bool, error) {
	rng := rand.New(rand.NewSource(e.opts.Seed ^ int64(cascadeplan.PlanID(levels))))
	chain, flows, err := e.deriveChain(levels, cur.finest(), flows, vectors, rng)
	if err != nil {
		return false, fmt.Errorf("emdsearch: replan: %w", err)
	}
	p := cur.withChain(chain)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plan != cur {
		return false, nil
	}
	snap, err := e.buildSnapshotLocked(p)
	if err != nil {
		return false, err
	}
	e.plan, e.snap, e.buildFlows = p, snap, flows
	e.metrics.snapshotBuilt()
	e.anchorPlanLocked(expPulled, true)
	return true, nil
}

// deriveChain materializes the chain for levels (ascending coarse→fine)
// and returns it in the same order, with the sample flows it used: the
// finest reduction (reusing cur when its dimensionality is unchanged,
// so a depth-only change never perturbs the finest filter) and the
// composed coarser levels. It reads only immutable engine state, so
// the cascade planner may call it without holding e.mu.
func (e *Engine) deriveChain(levels []int, cur *core.Reduction, flows [][]float64, vectors []Histogram, rng *rand.Rand) ([]*core.Reduction, [][]float64, error) {
	var err error
	if flows == nil {
		// Build, or an engine restored from a snapshot (Build never ran
		// in this process): collect the sample flows the derivation needs.
		if flows, err = e.collectFlows(vectors, rng); err != nil {
			return nil, nil, err
		}
	}
	n := len(levels)
	chain := make([]*core.Reduction, n)
	chain[n-1] = cur
	if cur == nil || cur.ReducedDims() != levels[n-1] {
		if chain[n-1], err = e.deriveReduction(e.cost, levels[n-1], flows, rng); err != nil {
			return nil, nil, err
		}
	}
	if err := e.coarsen(chain, levels, flows, rng); err != nil {
		return nil, nil, err
	}
	return chain, flows, nil
}

// adoptChain derives and installs the given cascade levels (ascending
// coarse→fine) as if the planner had proposed them, bypassing the
// cost model. In-package tests use it to pin a chain.
func (e *Engine) adoptChain(levels []int) error {
	if err := cascadeplan.ValidateLevels(levels, e.Dim()); err != nil {
		return err
	}
	e.mu.Lock()
	cur := e.plan
	if !cur.auto || cur.finest() == nil || e.replanning {
		e.mu.Unlock()
		return fmt.Errorf("emdsearch: adoptChain needs a built AutoCascade engine with no re-plan in flight")
	}
	e.replanning = true
	flows := e.buildFlows
	vectors := e.store.Vectors()
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.replanning = false
		e.mu.Unlock()
	}()
	ok, err := e.adoptLevels(cur, levels, flows, vectors, 0)
	if err == nil && !ok {
		err = fmt.Errorf("emdsearch: adoptChain raced a Build")
	}
	return err
}

// cascadeWindow converts the metrics delta since plan p's adoption into
// a planner workload: one observation per reduced-EMD level of p that
// the window saw evaluate anything.
func cascadeWindow(base, cur Metrics, p *plan, dim int) cascadeplan.Workload {
	w := cascadeplan.Workload{
		Queries:     (cur.KNNQueries - base.KNNQueries) + (cur.RangeQueries - base.RangeQueries),
		Dim:         dim,
		Refinements: cur.Refinements - base.Refinements,
		RefineTime:  cur.RefineTime - base.RefineTime,
		Results:     cur.ResultsReturned - base.ResultsReturned,
	}
	for _, lv := range p.levels {
		if lv.kind != kindRedEMD {
			continue
		}
		name := p.stageName(lv)
		st, prev := cur.Stages[name], base.Stages[name]
		evals := st.Evaluations - prev.Evaluations
		if evals <= 0 {
			continue
		}
		w.Levels = append(w.Levels, cascadeplan.Observation{
			Dims:        lv.dims,
			Evaluations: evals,
			Survivors:   evals - (st.Pruned - prev.Pruned),
			Time:        st.Time - prev.Time,
		})
	}
	return w
}
