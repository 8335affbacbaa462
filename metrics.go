package emdsearch

import (
	"sync"
	"time"
)

// StageMetrics aggregates one named filter stage's work across all
// queries served since the engine was created.
type StageMetrics struct {
	// Evaluations is the total number of filter-distance computations.
	Evaluations int64 `json:"evaluations"`
	// Pruned is the total number of candidates this stage ruled out.
	Pruned int64 `json:"pruned"`
	// Aborted is how many of the evaluations were answered by a
	// certified bound above the query's live pruning threshold instead
	// of a finished computation (see QueryStats.Stages).
	Aborted int64 `json:"aborted"`
	// Time is the cumulative wall time spent in this stage.
	Time time.Duration `json:"time_ns"`
}

// Metrics is a point-in-time aggregate of the work an Engine has
// performed: query counts by kind, candidate/refinement totals,
// cumulative per-stage filter effort and stage-level wall times. All
// fields are totals since engine creation. The struct is plain data
// and JSON-marshalable; Engine.PublishExpvar exports it live on the
// process's expvar page (Gate.PublishExpvar and
// ShardSet.PublishExpvar do the same for their layers).
type Metrics struct {
	// KNNQueries, RangeQueries and RankQueries count successfully
	// served queries by kind (a Search with a predicate counts under
	// its verb; an ids-only query is a range query).
	KNNQueries   int64 `json:"knn_queries"`
	RangeQueries int64 `json:"range_queries"`
	RankQueries  int64 `json:"rank_queries"`
	// QueryErrors counts queries rejected with an error (invalid
	// query, empty engine, ...).
	QueryErrors int64 `json:"query_errors"`
	// QueriesCancelled counts queries that observed their context's
	// cancellation (deadline expiry or explicit cancel), whether at
	// entry or mid-flight. Always 0 for the context-free API.
	QueriesCancelled int64 `json:"queries_cancelled"`
	// QueriesDeadlineDegraded counts k-NN queries that returned a
	// certified anytime (degraded but sound) answer instead of the
	// complete one because their deadline expired first.
	QueriesDeadlineDegraded int64 `json:"queries_deadline_degraded"`
	// QueryPanics counts contained invariant failures: refinement
	// panics recovered by the panic barrier and converted into
	// ErrInternal on the failing query. Any nonzero value deserves
	// investigation — it means the exact solver tripped an invariant —
	// but the process survived and every other query was unaffected.
	QueryPanics int64 `json:"query_panics"`
	// SnapshotBuilds counts how often the query pipeline was
	// (re)assembled — once after each batch of mutations, not per
	// query. A high rate signals interleaving mutations with queries.
	SnapshotBuilds int64 `json:"snapshot_builds"`
	// ColumnBuilds counts columnar filter layouts assembled during
	// snapshot builds (one per reduced-EMD level).
	ColumnBuilds int64 `json:"column_builds"`

	// WALAppends counts mutations (Add/Delete) durably appended to an
	// open write-ahead log; WALReplayed counts log records applied by
	// RecoverEngine. SnapshotSaves counts snapshot files written by
	// SaveFile/Checkpoint, and Checkpoints counts completed
	// snapshot-plus-log-rotation cycles.
	WALAppends    int64 `json:"wal_appends"`
	WALReplayed   int64 `json:"wal_replayed"`
	SnapshotSaves int64 `json:"snapshot_saves"`
	Checkpoints   int64 `json:"checkpoints"`

	// CascadeReplans counts adopted background/forced re-plans under
	// Options.AutoCascade (the initial Build-time plan is not a
	// re-plan). CascadePlan and CascadePlanID describe the active
	// chain: per-level reduced dimensionalities ascending coarse→fine
	// and their fingerprint. Empty/0 when no auto plan is active.
	CascadeReplans int64  `json:"cascade_replans"`
	CascadePlan    []int  `json:"cascade_plan,omitempty"`
	CascadePlanID  uint64 `json:"cascade_plan_id,omitempty"`

	// Pulled, Refinements and RefinementsSkipped are the summed
	// QueryStats counters of all served KNN/Range queries.
	Pulled             int64 `json:"pulled"`
	Refinements        int64 `json:"refinements"`
	RefinementsSkipped int64 `json:"refinements_skipped"`
	// RefinesAborted sums the refinements the threshold-aware solver
	// abandoned early on a certified bound.
	RefinesAborted int64 `json:"refines_aborted"`
	// RefineRows and RefineCols accumulate the reduced (zero-mass bins
	// stripped) problem shapes of all refinements; divide by
	// Refinements for the average solved shape.
	RefineRows int64 `json:"refine_rows"`
	RefineCols int64 `json:"refine_cols"`

	// ResultsReturned is the total number of answer rows KNN and Range
	// queries returned — the irreducible floor of per-query filter
	// survivors that the cascade planner anchors its model on.
	ResultsReturned int64 `json:"results_returned"`

	// FilterTime and RefineTime are cumulative wall times of the
	// filter and refinement stages; RefineTime sums across refinement
	// workers. QueryTime is the cumulative end-to-end query wall time.
	FilterTime time.Duration `json:"filter_time_ns"`
	RefineTime time.Duration `json:"refine_time_ns"`
	QueryTime  time.Duration `json:"query_time_ns"`

	// Stages aggregates per-stage counters by stage name (e.g.
	// "Potentials", "Red-EMD", "Red-EMD-8").
	Stages map[string]StageMetrics `json:"stages,omitempty"`
}

type metricKind int

const (
	metricKNN metricKind = iota
	metricRange
)

// engineMetrics is the internal mutex-guarded accumulator behind
// Engine.Metrics. Per-query observation is one short critical section;
// contention is negligible next to the EMD work of any real query.
type engineMetrics struct {
	mu sync.Mutex
	m  Metrics
}

func (em *engineMetrics) observe(kind metricKind, stats *QueryStats) {
	em.mu.Lock()
	defer em.mu.Unlock()
	switch kind {
	case metricKNN:
		em.m.KNNQueries++
	case metricRange:
		em.m.RangeQueries++
	}
	if stats == nil {
		return
	}
	if stats.Cancelled {
		em.m.QueriesCancelled++
	}
	em.m.Pulled += int64(stats.Pulled)
	em.m.Refinements += int64(stats.Refinements)
	em.m.RefinementsSkipped += int64(stats.RefinementsSkipped)
	em.m.RefinesAborted += int64(stats.RefinesAborted)
	em.m.RefineRows += stats.RefineRows
	em.m.RefineCols += stats.RefineCols
	em.m.FilterTime += stats.FilterTime
	em.m.RefineTime += stats.RefineTime
	em.m.QueryTime += stats.TotalTime
	if len(stats.Stages) > 0 {
		if em.m.Stages == nil {
			em.m.Stages = make(map[string]StageMetrics, len(stats.Stages))
		}
		for _, st := range stats.Stages {
			agg := em.m.Stages[st.Name]
			agg.Evaluations += int64(st.Evaluations)
			agg.Pruned += int64(st.Pruned)
			agg.Aborted += int64(st.Aborted)
			agg.Time += st.Duration
			em.m.Stages[st.Name] = agg
		}
	}
}

func (em *engineMetrics) rankStarted() {
	em.mu.Lock()
	em.m.RankQueries++
	em.mu.Unlock()
}

func (em *engineMetrics) queryDegraded() {
	em.mu.Lock()
	em.m.QueriesDeadlineDegraded++
	em.mu.Unlock()
}

func (em *engineMetrics) queryPanicked() {
	em.mu.Lock()
	em.m.QueryPanics++
	em.mu.Unlock()
}

func (em *engineMetrics) queryError() {
	em.mu.Lock()
	em.m.QueryErrors++
	em.mu.Unlock()
}

func (em *engineMetrics) snapshotBuilt() {
	em.mu.Lock()
	em.m.SnapshotBuilds++
	em.mu.Unlock()
}

func (em *engineMetrics) columnsBuilt() {
	em.mu.Lock()
	em.m.ColumnBuilds++
	em.mu.Unlock()
}

func (em *engineMetrics) resultsReturned(n int) {
	em.mu.Lock()
	em.m.ResultsReturned += int64(n)
	em.mu.Unlock()
}

// planActive records the active auto-cascade plan, counting it as an
// adopted re-plan when replanned.
func (em *engineMetrics) planActive(p *plan, replanned bool) {
	em.mu.Lock()
	if replanned {
		em.m.CascadeReplans++
	}
	em.m.CascadePlan, em.m.CascadePlanID = p.dims(), p.id()
	em.mu.Unlock()
}

func (em *engineMetrics) walAppended() {
	em.mu.Lock()
	em.m.WALAppends++
	em.mu.Unlock()
}

func (em *engineMetrics) walReplayed(n int) {
	em.mu.Lock()
	em.m.WALReplayed += int64(n)
	em.mu.Unlock()
}

func (em *engineMetrics) snapshotSaved() {
	em.mu.Lock()
	em.m.SnapshotSaves++
	em.mu.Unlock()
}

func (em *engineMetrics) checkpointed() {
	em.mu.Lock()
	em.m.Checkpoints++
	em.mu.Unlock()
}

// Metrics returns a consistent snapshot of the engine's cumulative
// query metrics. Safe for concurrent use; the returned value is a
// deep copy and never mutated afterwards.
func (e *Engine) Metrics() Metrics {
	e.metrics.mu.Lock()
	defer e.metrics.mu.Unlock()
	out := e.metrics.m
	if e.metrics.m.Stages != nil {
		out.Stages = make(map[string]StageMetrics, len(e.metrics.m.Stages))
		for name, st := range e.metrics.m.Stages {
			out.Stages[name] = st
		}
	}
	out.CascadePlan = append([]int(nil), e.metrics.m.CascadePlan...)
	return out
}
